package sim

import (
	"fmt"
	"slices"
	"testing"
)

// flushLog registers n flushers on e that append their index to a shared
// log, returning the handles and the log.
func flushLog(e *Engine, n int) ([]Flusher, *[]int) {
	log := new([]int)
	hs := make([]Flusher, n)
	for i := range hs {
		hs[i] = e.AddFlusher(func() { *log = append(*log, i) })
	}
	return hs, log
}

// TestFlushRunsOnlyRequestedInOrder requests a scattered set of flushers,
// in reverse, across bitset words (with empty words between them), and
// demands that exactly those run, once each, in registration order, at
// the end of the instant.
func TestFlushRunsOnlyRequestedInOrder(t *testing.T) {
	e := NewEngine()
	hs, log := flushLog(e, 700)
	want := []int{0, 1, 63, 64, 65, 127, 320, 383, 384, 699}
	e.At(5, func() {
		for i := len(want) - 1; i >= 0; i-- {
			e.RequestFlush(hs[want[i]])
			e.RequestFlush(hs[want[i]]) // idempotent within the instant
		}
	})
	e.At(6, func() {
		if !slices.Equal(*log, want) {
			t.Errorf("flushers before t=6: %v, want %v", *log, want)
		}
		*log = (*log)[:0]
	})
	e.Run()
	if len(*log) != 0 {
		t.Fatalf("unrequested flushers ran: %v", *log)
	}
}

// TestFlushReRequestDuringFlush: a flusher that requests a later flusher
// gets it in the same pass; one that re-requests itself or an earlier
// flusher gets it in a further pass of the same instant, before the clock
// advances.
func TestFlushReRequestDuringFlush(t *testing.T) {
	e := NewEngine()
	var log []string
	var hs [3]Flusher
	again := true
	hs[0] = e.AddFlusher(func() { log = append(log, "f0") })
	hs[1] = e.AddFlusher(func() {
		log = append(log, "f1")
		if again {
			again = false
			e.RequestFlush(hs[2]) // later: this pass
			e.RequestFlush(hs[1]) // itself: next pass
			e.RequestFlush(hs[0]) // earlier: next pass
		}
	})
	hs[2] = e.AddFlusher(func() { log = append(log, fmt.Sprintf("f2@%v", e.Now())) })
	e.At(10, func() { e.RequestFlush(hs[1]) })
	e.At(11, func() { log = append(log, "t11") })
	e.Run()
	want := []string{"f1", "f2@10ns", "f0", "f1", "t11"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("flush order %v, want %v", log, want)
	}
}

// TestFlushForcedByRateAndRunUntil: Flow.Rate flushes the Net inline, and
// RunUntil runs a requested flush even when no event is due by the
// horizon.
func TestFlushForcedByRateAndRunUntil(t *testing.T) {
	e := NewEngine()
	n := NewNet(e)
	r := n.NewResource("r", 8)
	f := n.StartFlow(1000, []*Resource{r}, nil)
	if r.Rate() != 0 {
		t.Fatalf("resource rate %v before any flush", r.Rate())
	}
	if got := f.Rate(); got != 8 {
		t.Fatalf("Flow.Rate = %v, want the forced fill's 8", got)
	}
	g := n.StartFlow(1000, []*Resource{r}, nil)
	e.RunUntil(0)
	if r.Rate() != 8 || g.rate != 4 {
		t.Fatalf("after RunUntil(0): resource rate %v, flow rate %v, want 8 and 4", r.Rate(), g.rate)
	}
}

// rearmTwin drives one engine through a pseudo-random script of At, Stop,
// Reschedule and re-arm calls; useRearm selects Engine.Rearm or the
// Stop-then-At sequence it is specified to equal.
type rearmTwin struct {
	e        *Engine
	useRearm bool
	rng      uint64
	timers   []Timer
	next     int
	log      []feedRec
}

func (w *rearmTwin) rand(n int) int {
	w.rng ^= w.rng << 13
	w.rng ^= w.rng >> 7
	w.rng ^= w.rng << 17
	return int(w.rng % uint64(n))
}

func (w *rearmTwin) fn() func() {
	label := w.next
	w.next++
	return func() { w.event(label) }
}

func (w *rearmTwin) event(label int) {
	w.log = append(w.log, feedRec{label, w.e.Now(), w.e.Steps(), w.e.Pending()})
	for k := w.rand(3); k >= 0; k-- {
		at := w.e.Now() + Time(w.rand(4))
		switch w.rand(6) {
		case 0, 1:
			if len(w.timers) < 64 {
				w.timers = append(w.timers, w.e.At(at, w.fn()))
			}
		case 2:
			if len(w.timers) > 0 {
				w.timers[w.rand(len(w.timers))].Stop()
			}
		case 3:
			if len(w.timers) > 0 {
				w.e.Reschedule(w.timers[w.rand(len(w.timers))], at)
			}
		default:
			if len(w.timers) == 0 {
				continue
			}
			i := w.rand(len(w.timers))
			if w.useRearm {
				w.timers[i] = w.e.Rearm(w.timers[i], at, w.fn())
			} else {
				w.timers[i].Stop()
				w.timers[i] = w.e.At(at, w.fn())
			}
		}
	}
}

// TestRearmMatchesStopAt runs twin engines through the same script, one
// re-arming in place and one stopping and scheduling afresh, and demands
// the same firing order with the same Now, Steps and Pending at every
// event — and that a re-armed timer's old handle is stale, as a stopped
// one is.
func TestRearmMatchesStopAt(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		var twins [2]*rearmTwin
		for k := range twins {
			w := &rearmTwin{e: NewEngine(), useRearm: k == 0, rng: seed}
			for i := 0; i < 8; i++ {
				w.timers = append(w.timers, w.e.At(Time(i%3), w.fn()))
			}
			for w.e.Steps() < 3000 && w.e.Step() {
			}
			twins[k] = w
		}
		a, b := twins[0], twins[1]
		if len(a.log) != len(b.log) {
			t.Fatalf("seed %d: %d events with Rearm, %d with Stop+At", seed, len(a.log), len(b.log))
		}
		for i := range a.log {
			if a.log[i] != b.log[i] {
				t.Fatalf("seed %d: event %d diverged: Rearm %+v, Stop+At %+v", seed, i, a.log[i], b.log[i])
			}
		}
	}
	e := NewEngine()
	fired := 0
	old := e.At(5, func() { fired++ })
	fresh := e.Rearm(old, 7, func() { fired += 10 })
	if e.Reschedule(old, 1) {
		t.Fatal("the re-armed timer's old handle is still live")
	}
	old.Stop() // stale: must not cancel the re-armed event
	e.Run()
	if fired != 10 || e.Now() != 7 {
		t.Fatalf("fired %d at %v, want the re-armed event alone at 7", fired, e.Now())
	}
	if e.Rearm(fresh, 9, func() { fired += 100 }); e.Run() != 9 || fired != 110 {
		t.Fatalf("re-arming a fired timer must schedule afresh: fired %d", fired)
	}
}
