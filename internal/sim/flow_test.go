package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSingleFlowUsesFullCapacity(t *testing.T) {
	e := NewEngine()
	n := NewNet(e)
	r := n.NewResource("mc0", 10) // 10 bytes/ns
	var doneAt Time
	n.StartFlow(1000, []*Resource{r}, func() { doneAt = e.Now() })
	e.Run()
	if doneAt != 100 {
		t.Fatalf("1000 bytes at 10 B/ns finished at %v, want 100", doneAt)
	}
}

func TestTwoFlowsShareBottleneck(t *testing.T) {
	e := NewEngine()
	n := NewNet(e)
	r := n.NewResource("mc0", 10)
	var d1, d2 Time
	n.StartFlow(1000, []*Resource{r}, func() { d1 = e.Now() })
	n.StartFlow(1000, []*Resource{r}, func() { d2 = e.Now() })
	e.Run()
	// Both share 10 B/ns -> 5 each -> 200ns.
	if d1 != 200 || d2 != 200 {
		t.Fatalf("shared flows finished at %v and %v, want 200", d1, d2)
	}
}

func TestFlowSpeedsUpWhenCompetitorFinishes(t *testing.T) {
	e := NewEngine()
	n := NewNet(e)
	r := n.NewResource("mc0", 10)
	var dShort, dLong Time
	n.StartFlow(500, []*Resource{r}, func() { dShort = e.Now() })
	n.StartFlow(1500, []*Resource{r}, func() { dLong = e.Now() })
	e.Run()
	// Phase 1: both at 5 B/ns until short is done at t=100 (500 bytes).
	// Long has 1500-500=1000 left, then runs at 10 B/ns: +100ns -> t=200.
	if dShort != 100 {
		t.Fatalf("short flow finished at %v, want 100", dShort)
	}
	if dLong != 200 {
		t.Fatalf("long flow finished at %v, want 200", dLong)
	}
}

func TestMaxMinFairnessAcrossTwoResources(t *testing.T) {
	e := NewEngine()
	n := NewNet(e)
	// Classic max-min example: flow A uses r1 only, flows B and C use r1+r2,
	// r1 cap 12, r2 cap 4. B and C bottlenecked on r2 at 2 each; A gets the
	// rest of r1 = 8.
	r1 := n.NewResource("r1", 12)
	r2 := n.NewResource("r2", 4)
	fA := n.StartFlow(1e9, []*Resource{r1}, nil)
	fB := n.StartFlow(1e9, []*Resource{r1, r2}, nil)
	fC := n.StartFlow(1e9, []*Resource{r1, r2}, nil)
	if got := fB.Rate(); math.Abs(got-2) > 1e-9 {
		t.Errorf("flow B rate = %v, want 2", got)
	}
	if got := fC.Rate(); math.Abs(got-2) > 1e-9 {
		t.Errorf("flow C rate = %v, want 2", got)
	}
	if got := fA.Rate(); math.Abs(got-8) > 1e-9 {
		t.Errorf("flow A rate = %v, want 8", got)
	}
}

func TestZeroByteFlowCompletesImmediately(t *testing.T) {
	e := NewEngine()
	n := NewNet(e)
	r := n.NewResource("r", 1)
	done := false
	n.StartFlow(0, []*Resource{r}, func() { done = true })
	e.Run()
	if !done {
		t.Fatal("zero-byte flow never completed")
	}
	if e.Now() != 0 {
		t.Fatalf("zero-byte flow advanced clock to %v", e.Now())
	}
}

func TestEmptyPathFlowCompletesImmediately(t *testing.T) {
	e := NewEngine()
	n := NewNet(e)
	done := false
	n.StartFlow(100, nil, func() { done = true })
	e.Run()
	if !done {
		t.Fatal("empty-path flow never completed")
	}
}

func TestNegativeVolumePanics(t *testing.T) {
	e := NewEngine()
	n := NewNet(e)
	r := n.NewResource("r", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative volume did not panic")
		}
	}()
	n.StartFlow(-1, []*Resource{r}, nil)
}

func TestNonPositiveCapacityPanics(t *testing.T) {
	e := NewEngine()
	n := NewNet(e)
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	n.NewResource("bad", 0)
}

func TestResourceAccounting(t *testing.T) {
	e := NewEngine()
	n := NewNet(e)
	r := n.NewResource("r", 5)
	n.StartFlow(100, []*Resource{r}, nil)
	n.StartFlow(100, []*Resource{r}, nil)
	if r.ActiveFlows() != 2 {
		t.Fatalf("ActiveFlows = %d, want 2", r.ActiveFlows())
	}
	e.Run()
	if r.ActiveFlows() != 0 {
		t.Fatalf("ActiveFlows = %d after drain, want 0", r.ActiveFlows())
	}
	if n.ActiveFlows() != 0 {
		t.Fatalf("net still tracks %d flows", n.ActiveFlows())
	}
	if n.TotalBytes != 200 {
		t.Fatalf("TotalBytes = %v, want 200", n.TotalBytes)
	}
}

func TestStaggeredArrivalConservesWork(t *testing.T) {
	// Start a second flow midway through the first; total completion time
	// must equal total bytes / capacity regardless of interleaving because
	// the resource is never idle.
	e := NewEngine()
	n := NewNet(e)
	r := n.NewResource("r", 8)
	var last Time
	n.StartFlow(800, []*Resource{r}, func() { last = e.Now() })
	e.At(50, func() {
		n.StartFlow(400, []*Resource{r}, func() {
			if e.Now() > last {
				last = e.Now()
			}
		})
	})
	e.Run()
	if want := Time(150); last != want { // 1200 bytes / 8 B/ns
		t.Fatalf("drain completed at %v, want %v", last, want)
	}
}

func TestFlowRemainingProgresses(t *testing.T) {
	e := NewEngine()
	n := NewNet(e)
	r := n.NewResource("r", 10)
	f := n.StartFlow(1000, []*Resource{r}, nil)
	e.At(50, func() {
		rem := f.Remaining()
		if math.Abs(rem-500) > 1 {
			t.Errorf("Remaining at t=50 is %v, want ~500", rem)
		}
	})
	e.Run()
	if f.Remaining() != 0 {
		t.Fatalf("Remaining after completion = %v", f.Remaining())
	}
	if f.Volume() != 1000 {
		t.Fatalf("Volume = %v, want 1000", f.Volume())
	}
}

// Property: with a single shared resource, N flows of equal volume all finish
// at N*volume/capacity, regardless of N and volume.
func TestPropertyEqualFlowsFinishTogether(t *testing.T) {
	f := func(nFlows uint8, volKB uint16) bool {
		nf := int(nFlows%16) + 1
		vol := float64(int(volKB%64)+1) * 1024
		e := NewEngine()
		n := NewNet(e)
		r := n.NewResource("r", 16)
		var finish []Time
		for i := 0; i < nf; i++ {
			n.StartFlow(vol, []*Resource{r}, func() { finish = append(finish, e.Now()) })
		}
		e.Run()
		if len(finish) != nf {
			return false
		}
		want := float64(nf) * vol / 16
		for _, ft := range finish {
			if math.Abs(float64(ft)-want) > 2+want*1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: work conservation — the drain time of any set of same-resource
// flows equals total volume / capacity (ceil rounding slack allowed).
func TestPropertyWorkConservation(t *testing.T) {
	f := func(vols [7]uint16) bool {
		e := NewEngine()
		n := NewNet(e)
		r := n.NewResource("r", 4)
		total := 0.0
		for _, v := range vols {
			b := float64(v%8192) + 1
			total += b
			n.StartFlow(b, []*Resource{r}, nil)
		}
		end := e.Run()
		want := total / 4
		return math.Abs(float64(end)-want) <= float64(len(vols))+want*1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCappedFlowBelowResourceCapacity(t *testing.T) {
	e := NewEngine()
	n := NewNet(e)
	r := n.NewResource("r", 10)
	f := n.StartFlowCapped(1000, []*Resource{r}, 2, nil)
	if f.Rate() != 2 {
		t.Fatalf("capped flow rate = %v, want 2", f.Rate())
	}
	end := e.Run()
	if end != 500 {
		t.Fatalf("capped flow finished at %v, want 500", end)
	}
}

func TestCapUnusedShareRedistributed(t *testing.T) {
	// One capped flow (cap 2) plus one uncapped on a 10-capacity resource:
	// fair share would be 5 each, but the capped flow leaves 3 on the table
	// which the other flow picks up (rate 8).
	e := NewEngine()
	n := NewNet(e)
	r := n.NewResource("r", 10)
	capped := n.StartFlowCapped(1e6, []*Resource{r}, 2, nil)
	free := n.StartFlow(1e6, []*Resource{r}, nil)
	if capped.Rate() != 2 {
		t.Errorf("capped rate = %v, want 2", capped.Rate())
	}
	if math.Abs(free.Rate()-8) > 1e-9 {
		t.Errorf("uncapped rate = %v, want 8", free.Rate())
	}
}

func TestCapAboveShareIsInert(t *testing.T) {
	e := NewEngine()
	n := NewNet(e)
	r := n.NewResource("r", 10)
	a := n.StartFlowCapped(1e6, []*Resource{r}, 100, nil)
	b := n.StartFlowCapped(1e6, []*Resource{r}, 100, nil)
	if math.Abs(a.Rate()-5) > 1e-9 || math.Abs(b.Rate()-5) > 1e-9 {
		t.Fatalf("rates %v, %v; want 5, 5", a.Rate(), b.Rate())
	}
}

func TestNonPositiveCapPanics(t *testing.T) {
	e := NewEngine()
	n := NewNet(e)
	r := n.NewResource("r", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("zero cap did not panic")
		}
	}()
	n.StartFlowCapped(10, []*Resource{r}, 0, nil)
}

func TestTimerStopPreventsFiring(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.At(100, func() { fired = true })
	e.At(50, func() { tm.Stop() })
	end := e.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if end != 50 {
		t.Fatalf("cancelled event stretched run to %v, want 50", end)
	}
}

func TestStaleCompletionEventsDoNotStretchRun(t *testing.T) {
	// Regression test: completion events superseded by reallocation must not
	// inflate Engine.Run's final time.
	e := NewEngine()
	n := NewNet(e)
	r := n.NewResource("r", 4)
	total := 0.0
	for _, b := range []float64{5278, 1256, 4904, 141, 3730, 4881, 2494} {
		total += b
		n.StartFlow(b, []*Resource{r}, nil)
	}
	end := e.Run()
	want := total / 4
	if math.Abs(float64(end)-want) > 8 {
		t.Fatalf("drain at %v, want ~%v", end, want)
	}
}

// Regression for the completion-delay guard: a starved flow (rate 0 after a
// reallocation where caps consumed the whole bottleneck) must produce no
// event at all — the historical code divided remaining/rate first, yielding
// +Inf, and relied on an undefined float->int conversion before the dt<1
// clamp.
func TestCompletionDelayGuards(t *testing.T) {
	if _, ok := completionDelay(1000, 0); ok {
		t.Error("zero rate must not schedule a completion")
	}
	if _, ok := completionDelay(1000, -1); ok {
		t.Error("negative rate must not schedule a completion")
	}
	if dt, ok := completionDelay(1000, math.Inf(1)); !ok || dt != 0 {
		t.Errorf("infinite rate: got (%v, %v), want (0, true)", dt, ok)
	}
	if _, ok := completionDelay(1e300, 1e-300); ok {
		t.Error("overflowing delay must not convert to a negative Time")
	}
	if dt, ok := completionDelay(1000, 4); !ok || dt != 250 {
		t.Errorf("plain delay: got (%v, %v), want (250, true)", dt, ok)
	}
	if dt, ok := completionDelay(0, 4); !ok || dt != 0 {
		t.Errorf("drained flow: got (%v, %v), want (0, true)", dt, ok)
	}
}

// A starved flow must neither busy-wait the event queue nor be lost: once
// the capacity-consuming flow finishes, the starved flow is re-rated and
// completes at the work-conserving time.
func TestStarvedFlowRecoversAfterReallocation(t *testing.T) {
	e := NewEngine()
	n := NewNet(e)
	r := n.NewResource("r", 10)
	f := n.StartFlow(1000, []*Resource{r}, nil)
	n.flush() // apply the deferred reallocation before poking its result
	// Force the starved corner directly (float rounding can produce it in
	// big runs but not on demand): pretend water-filling gave f nothing.
	f.rate = 0
	f.starved = true
	n.pending.Stop()
	n.pending = Timer{}
	var doneAt Time
	e.At(100, func() {
		n.StartFlow(500, []*Resource{r}, func() { doneAt = e.Now() })
	})
	end := e.Run()
	if doneAt == 0 {
		t.Fatal("competitor flow never finished")
	}
	if f.Remaining() != 0 || !f.finished {
		t.Fatalf("starved flow never recovered: remaining %v", f.Remaining())
	}
	// t=100: both flows share 10 B/ns. All 1500 bytes drain by t=250.
	if end < 200 || end > 260 {
		t.Fatalf("drain at %v, want ~250", end)
	}
}

// The Flow free list must recycle structs without corrupting still-active
// flows or double-freeing.
func TestFlowRecyclingKeepsAccounting(t *testing.T) {
	e := NewEngine()
	n := NewNet(e)
	r := n.NewResource("r", 100)
	total := 0.0
	for round := 0; round < 20; round++ {
		for i := 0; i < 5; i++ {
			b := float64(100 + 10*i)
			total += b
			n.StartFlow(b, []*Resource{r}, nil)
		}
		e.Run()
		if n.ActiveFlows() != 0 {
			t.Fatalf("round %d: %d flows leaked", round, n.ActiveFlows())
		}
	}
	if math.Abs(n.TotalBytes-total) > 1e-6 {
		t.Fatalf("TotalBytes = %v, want %v", n.TotalBytes, total)
	}
	if r.ActiveFlows() != 0 {
		t.Fatalf("resource flow count leaked: %d", r.ActiveFlows())
	}
}

// TestFlushReentrancy pins the Flow.Rate/Remaining force-flush guard: user
// code running inside the fill (an accounting hook, a sampler called from a
// rate callback) may read Flow.Rate or Flow.Remaining, and that reentrant
// read must NOT run a second fill over the half-updated scratch state — it
// must see exactly the rates the in-progress fill assigns. Without the
// flushing guard the reentrant flush returns early only because dirty
// happens to be cleared first; the guard keeps that true however the flush
// steps are reordered, so the read can never start a second fill or re-arm
// the completion event twice.
func TestFlushReentrancy(t *testing.T) {
	run := func(reenter bool) (fills int, makespan Time, bytes float64, mid []float64) {
		eng := NewEngine()
		n := NewNet(eng)
		r := n.NewResource("mc", 10)
		var probe *Flow
		base := n.fill
		n.fill = func(now Time) {
			fills++
			base(now)
			if reenter && probe != nil && !probe.finished {
				// Reentrant reads mid-flush: the guard must make the forced
				// flush a no-op, returning the rate this very fill assigned.
				mid = append(mid, probe.Rate(), probe.Remaining())
			}
		}
		probe = n.StartFlow(1000, []*Resource{r}, nil)
		n.StartFlow(500, []*Resource{r}, nil)
		makespan = eng.Run()
		bytes = n.TotalBytes
		return
	}

	fills, makespan, bytes, mid := run(true)
	refFills, refMakespan, refBytes, _ := run(false)
	if fills != refFills {
		t.Errorf("reentrant Rate/Remaining changed fill count: %d vs %d", fills, refFills)
	}
	if makespan != refMakespan || bytes != refBytes {
		t.Errorf("reentrant reads perturbed the run: (%v, %.0f) vs (%v, %.0f)",
			makespan, bytes, refMakespan, refBytes)
	}
	// Two flows share a 10 B/ns resource: the first fill assigns 5 B/ns and
	// the mid-flush read must see exactly that, with the full volume intact.
	if len(mid) == 0 {
		t.Fatal("reentrant probe never ran")
	}
	if mid[0] != 5 || mid[1] != 1000 {
		t.Errorf("mid-flush probe read (rate %v, remaining %v), want (5, 1000)", mid[0], mid[1])
	}
}

// TestFlushReentrantFlushIsNoop hits the guard directly: a forced flush
// issued while a flush is running on the same Net must neither recurse nor
// re-arm anything.
func TestFlushReentrantFlushIsNoop(t *testing.T) {
	eng := NewEngine()
	n := NewNet(eng)
	r := n.NewResource("mc", 4)
	depth := 0
	base := n.fill
	n.fill = func(now Time) {
		depth++
		if depth > 1 {
			t.Fatal("fill re-entered")
		}
		base(now)
		n.flush() // must be a no-op: flushing is set, dirty cleared
		depth--
	}
	n.StartFlow(100, []*Resource{r}, nil)
	if got := eng.Run(); got != 25 {
		t.Errorf("makespan %v, want 25ns (100 bytes at 4 B/ns)", got)
	}
}
