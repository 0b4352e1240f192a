package sim

import (
	"fmt"
	"strings"
	"testing"
)

// The Feed oracle: a stream delivered through Engine.Feed must be
// indistinguishable from the same stream scheduled up front by a loop of At.
// Two twin engines run the same generated script, one feeding each stream
// and one looping At over it. Their callbacks make the same pseudo-random
// decisions (each twin owns an identically seeded generator, and consumes
// it in callback order), so as long as the twins fire the same events in
// the same order they keep doing the same things. Every callback records
// its label with the engine's Now, Steps and Pending at that moment, which
// checks the twins after every step, RunUntil's internal steps included.

// feedRec is one callback (label >= 0) or flusher run (label -1), with the
// engine state it saw.
type feedRec struct {
	label   int
	now     Time
	steps   uint64
	pending int
}

// Stream k labels its entries (k+1)<<20 + i; callbacks' At events count
// up from atLabels.
const atLabels = 1 << 40

type feedTwin struct {
	e       *Engine
	useFeed bool
	rng     uint64
	log     []feedRec
	timers  []Timer // At timers callbacks created: targets for Stop and Reschedule
	nextAt  int     // label of the next At event a callback schedules
	streams int
	resetAt int // the stream entry index whose first delivery resets the engine
	flusher Flusher
}

func newFeedTwin(seed uint64, useFeed bool) *feedTwin {
	w := &feedTwin{e: NewEngine(), useFeed: useFeed, rng: seed | 1, nextAt: atLabels, resetAt: -1}
	w.flusher = w.e.AddFlusher(func() {
		w.record(-1)
		if w.rand(4) == 0 {
			w.schedule(0) // flushed work may queue same-instant events
		}
	})
	return w
}

func (w *feedTwin) rand(n int) int {
	w.rng ^= w.rng << 13
	w.rng ^= w.rng >> 7
	w.rng ^= w.rng << 17
	return int(w.rng % uint64(n))
}

func (w *feedTwin) record(label int) {
	w.log = append(w.log, feedRec{label, w.e.Now(), w.e.Steps(), w.e.Pending()})
}

// schedule queues a stoppable At event d from now.
func (w *feedTwin) schedule(d Time) {
	label := w.nextAt
	w.nextAt++
	w.timers = append(w.timers, w.e.At(w.e.Now()+d, func() { w.event(label) }))
}

// event is every callback's body: record, then maybe schedule, stop or
// reschedule At events at colliding instants, or request a flush. Entry
// resetAt of a stream resets the engine from inside its callback, once.
func (w *feedTwin) event(label int) {
	w.record(label)
	if label < atLabels && label&(1<<20-1) == w.resetAt {
		w.resetAt = -1
		w.e.Reset()
		return
	}
	switch w.rand(10) {
	case 0, 1, 2:
		w.schedule(Time(w.rand(3)))
	case 3, 4:
		if len(w.timers) > 0 {
			w.timers[w.rand(len(w.timers))].Stop()
		}
	case 5, 6:
		if len(w.timers) > 0 {
			w.e.Reschedule(w.timers[w.rand(len(w.timers))], w.e.Now()+Time(w.rand(3)))
		}
	case 7, 8:
		w.e.RequestFlush(w.flusher)
	}
}

// feed delivers times as stream number w.streams: through Feed, or through
// the At loop Feed is specified to match. Stream entries are not stoppable,
// so neither twin adds them to timers.
func (w *feedTwin) feed(times []Time) {
	base := (w.streams + 1) << 20
	w.streams++
	if w.useFeed {
		w.e.Feed(times, func(i int) { w.event(base + i) })
		return
	}
	for i, t := range times {
		w.e.At(t, func() { w.event(base + i) })
	}
}

// feedTimes draws n non-decreasing times from start, mostly duplicates.
func feedTimes(rng func(int) int, start Time, n int) []Time {
	times := make([]Time, n)
	t := start
	for i := range times {
		if rng(3) == 0 {
			t += Time(rng(4))
		}
		times[i] = t
	}
	return times
}

// compareFeedTwins fails unless the twins logged the same callbacks with
// the same engine state, and agree on Now, Steps and Pending now.
func compareFeedTwins(t *testing.T, op string, a, b *feedTwin) {
	t.Helper()
	n := min(len(a.log), len(b.log))
	for i := 0; i < n; i++ {
		if a.log[i] != b.log[i] {
			t.Fatalf("%s: record %d diverged: Feed %+v, At loop %+v", op, i, a.log[i], b.log[i])
		}
	}
	if len(a.log) != len(b.log) {
		t.Fatalf("%s: Feed logged %d records, At loop %d", op, len(a.log), len(b.log))
	}
	if a.e.Now() != b.e.Now() || a.e.Steps() != b.e.Steps() || a.e.Pending() != b.e.Pending() {
		t.Fatalf("%s: (Now, Steps, Pending) Feed (%v, %d, %d), At loop (%v, %d, %d)", op,
			a.e.Now(), a.e.Steps(), a.e.Pending(), b.e.Now(), b.e.Steps(), b.e.Pending())
	}
}

// mustPanic reports the panic message of fn, failing if it does not panic.
func mustPanic(t *testing.T, what string, fn func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		fn()
		t.Fatalf("%s did not panic", what)
	}()
	return msg
}

// runFeedOracle runs one generated script on both twins: an initial stream
// of n entries, then a mix of Step, RunUntil with horizons inside the
// streams, further streams fed mid-run, a mid-stream Reset and rejected
// Feeds, until both twins drain with every budgeted Feed and Reset made.
func runFeedOracle(t *testing.T, seed uint64, n int) {
	a, b := newFeedTwin(seed, true), newFeedTwin(seed, false)
	drv := &feedTwin{rng: seed*0x9E3779B97F4A7C15 | 1} // the script's own randomness
	if drv.rand(2) == 0 {
		a.resetAt = n - 1 - drv.rand(n/4+1)
		b.resetAt = a.resetAt
	}
	feedBoth := func(start Time, n int) {
		times := feedTimes(drv.rand, start, n)
		a.feed(times)
		b.feed(times)
	}
	feedBoth(Time(drv.rand(3)), n)
	compareFeedTwins(t, "initial Feed", a, b)
	feeds, resets := 4, 1 // budgets, so the script drains
	for op := 0; ; op++ {
		if op > 100*(n+16) {
			t.Fatalf("script did not drain after %d ops", op)
		}
		var name string
		k := drv.rand(32)
		switch {
		case k >= 26 && k < 29 && feeds == 0, k == 29 && resets == 0:
			k = 0
		case k >= 26 && k < 29:
			feeds--
		case k == 29:
			resets--
		}
		switch {
		case k < 20:
			name = "Step"
			if ra, rb := a.e.Step(), b.e.Step(); ra != rb {
				t.Fatalf("op %d: Step reported %v (Feed) vs %v (At loop)", op, ra, rb)
			}
		case k < 26:
			h := a.e.Now() + Time(drv.rand(6))
			name = fmt.Sprintf("RunUntil(%v)", h)
			if ra, rb := a.e.RunUntil(h), b.e.RunUntil(h); ra != rb {
				t.Fatalf("op %d: %s reported drained %v (Feed) vs %v (At loop)", op, name, ra, rb)
			}
		case k < 29:
			name = "Feed mid-run"
			feedBoth(a.e.Now()+Time(drv.rand(3)), 1+drv.rand(n/4+1))
		case k == 29:
			name = "Reset, then Feed"
			a.e.Reset()
			b.e.Reset()
			if a.e.Pending() != 0 {
				t.Fatalf("op %d: Pending %d after Reset", op, a.e.Pending())
			}
			feedBoth(Time(drv.rand(3)), n)
		case k == 30:
			name = "Feed with decreasing times"
			bad := feedTimes(drv.rand, a.e.Now(), 3+drv.rand(4))
			bad[len(bad)-1] = bad[len(bad)-2] - 1 - Time(drv.rand(3))
			msg := mustPanic(t, name, func() { a.e.Feed(bad, func(int) { t.Fatal("rejected Feed delivered") }) })
			if !strings.Contains(msg, "decrease") {
				t.Fatalf("op %d: %s panicked with %q", op, name, msg)
			}
		default:
			name = "Feed before now"
			if a.e.Now() == 0 {
				continue
			}
			bad := []Time{a.e.Now() - 1 - Time(drv.rand(3)), a.e.Now()}
			msg := mustPanic(t, name, func() { a.e.Feed(bad, func(int) { t.Fatal("rejected Feed delivered") }) })
			if !strings.Contains(msg, "before now") {
				t.Fatalf("op %d: %s panicked with %q", op, name, msg)
			}
		}
		compareFeedTwins(t, fmt.Sprintf("op %d (%s)", op, name), a, b)
		if a.e.Pending() == 0 && feeds == 0 && resets == 0 {
			a.e.Run() // only flushes can be left
			b.e.Run()
			compareFeedTwins(t, "final Run", a, b)
			return
		}
	}
}

func TestFeedMatchesAt(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		for _, n := range []int{1, 7, 200, 2000} {
			t.Run(fmt.Sprintf("seed%d/n%d", seed, n), func(t *testing.T) {
				runFeedOracle(t, seed, n)
			})
		}
	}
}

// A rejected Feed must leave the engine untouched: no seqs claimed, nothing
// queued.
func TestFeedRejectsBadStreams(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {})
	e.Step()
	for _, times := range [][]Time{{4, 6}, {5, 7, 6}} {
		mustPanic(t, fmt.Sprint("Feed", times), func() { e.Feed(times, func(int) {}) })
	}
	mustPanic(t, "Feed with nil fn", func() { e.Feed([]Time{5}, nil) })
	if e.Pending() != 0 || e.seq != 1 {
		t.Fatalf("rejected Feeds left Pending %d, seq %d; want 0, 1", e.Pending(), e.seq)
	}
	e.Feed(nil, func(int) { t.Fatal("empty Feed delivered") })
	if e.Pending() != 0 || e.Run() != 5 {
		t.Fatal("empty Feed queued work")
	}
}
