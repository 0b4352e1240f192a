package sim

import (
	"testing"
)

// Allocation-contract tests for the simulator hot path, run as blocking
// deterministic tests (testing.AllocsPerRun, not benchmarks) by
// `make test-allocs` and the CI allocs gate. Together with
// TestFlowChurnSteadyStateAllocs (bench_test.go) they assert that steady-
// state operation — including the deferred/batched reallocation path —
// allocates nothing: event slots, Flow structs, crossing lists, per-slot
// fill arrays and worklists are all recycled.

// TestBatchedFanoutSteadyStateAllocs pins the batching path: bursts of
// same-instant starts over multiple sockets' resource pairs, flushed once
// per instant by the engine hook, then drained through batched completion
// waves.
func TestBatchedFanoutSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	n := NewNet(e)
	caps := make([]*Resource, 16)
	for i := range caps {
		if i%2 == 0 {
			caps[i] = n.NewResource("mc", 30)
		} else {
			caps[i] = n.NewResource("port", 12)
		}
	}
	paths := make([][]*Resource, 8)
	for s := range paths {
		if s%2 == 0 {
			paths[s] = []*Resource{caps[2*s]}
		} else {
			paths[s] = []*Resource{caps[2*s], caps[2*s+1]}
		}
	}
	burst := func(i int) {
		// 8 same-instant starts across 4 components: one deferred flush.
		for j := 0; j < 8; j++ {
			n.StartFlowCapped(4096+float64(j), paths[(i+j)%8], 640.0/90, nil)
		}
		for n.ActiveFlows() > 24 {
			e.Step()
		}
	}
	for i := 0; i < 32; i++ {
		burst(i) // warm flow pool, event arena, crossing lists and fill scratch
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		burst(i)
		i++
	})
	if avg != 0 {
		t.Fatalf("batched fan-out churn allocates %v objects per op, want 0", avg)
	}
}

// TestReallocateFullSteadyStateAllocs pins the from-scratch fill itself: a
// warmed net recomputing every rate must not allocate.
func TestReallocateFullSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	n := NewNet(e)
	rs := make([]*Resource, 16)
	for i := range rs {
		rs[i] = n.NewResource("r", 30)
	}
	for i := 0; i < 32; i++ {
		path := []*Resource{rs[i%16], rs[(i+5)%16]}
		n.StartFlowCapped(1e12, path, 0.64, nil)
	}
	n.reallocate() // warm scratch
	avg := testing.AllocsPerRun(200, func() {
		n.reallocate()
	})
	if avg != 0 {
		t.Fatalf("full reallocation allocates %v objects per op, want 0", avg)
	}
}

// TestFeedSteadyStateAllocs pins Feed's allocation contract: a stream costs
// its Feed call a constant two allocations (the stream's state and its bound
// delivery callback), never one per entry — a service run feeds every job
// arrival as one stream.
func TestFeedSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	times := make([]Time, 4096)
	for i := range times {
		times[i] = Time(i / 3)
	}
	delivered := 0
	fn := func(int) { delivered++ }
	run := func() {
		e.Reset()
		e.Feed(times, fn)
		e.Run()
	}
	run() // grow the slot arena
	if avg := testing.AllocsPerRun(20, run); avg > 2 {
		t.Fatalf("Feed of %d entries: %.1f allocs per stream, want <= 2", len(times), avg)
	}
	if delivered != 22*len(times) {
		t.Fatalf("delivered %d entries, want %d", delivered, 22*len(times))
	}
}

// TestFleetStepSteadyStateAllocs pins the fleet-scale flush contract: 512
// Nets share one engine, as a service fleet's machines do, and each step
// starts a burst of flows on one of them and runs it to completion. A step
// must allocate nothing, and the engine must call only that Net's flusher,
// never an idle machine's: per-instant flush work follows the churn, not
// the fleet size.
func TestFleetStepSteadyStateAllocs(t *testing.T) {
	const fleet = 512
	e := NewEngine()
	nets := make([]*Net, fleet)
	paths := make([][]*Resource, fleet)
	for i := range nets {
		nets[i] = NewNet(e)
		paths[i] = []*Resource{nets[i].NewResource("mc", 30), nets[i].NewResource("port", 12)}
	}
	active, stray, flushes := 0, 0, 0
	for i, fn := range e.flushers {
		e.flushers[i] = func() {
			if i != active {
				stray++
			}
			flushes++
			fn()
		}
	}
	k := 0
	step := func() {
		active = k * 37 % fleet
		k++
		n := nets[active]
		for j := 0; j < 4; j++ {
			n.StartFlowCapped(4096+float64(j), paths[active][:1+j%2], 640.0/90, nil)
		}
		for e.Step() {
		}
	}
	for i := 0; i < 2*fleet; i++ {
		step() // warm every Net's flow pool and fill scratch
	}
	flushes = 0
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Fatalf("fleet step allocates %v objects per op, want 0", avg)
	}
	if stray != 0 {
		t.Fatalf("%d flusher calls on Nets that did not churn", stray)
	}
	if flushes == 0 {
		t.Fatal("no flusher ran")
	}
}
