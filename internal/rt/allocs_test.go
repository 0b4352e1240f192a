package rt

import (
	"fmt"
	"runtime/debug"
	"testing"

	"numadag/internal/machine"
	"numadag/internal/memory"
	"numadag/internal/sim"
)

// buildLayeredRT submits a layered task graph (width tasks per layer, each
// depending on its own region and its left neighbor's) — a mid-sized install
// workload for the arena benchmarks.
func buildLayeredRT(r *Runtime, layers, width int) {
	regs := make([]*memory.Region, width)
	for i := range regs {
		regs[i] = r.Mem().Alloc(fmt.Sprintf("r%d", i), 64<<10, memory.Deferred, 0)
	}
	for l := 0; l < layers; l++ {
		for i := 0; i < width; i++ {
			acc := []Access{{Region: regs[i], Mode: InOut}}
			if i > 0 {
				acc = append(acc, Access{Region: regs[i-1], Mode: In})
			}
			r.Submit(TaskSpec{Label: "t", Flops: 1000, Accesses: acc, EPSocket: NoEPHint})
		}
	}
}

// TestInstallSteadyStateAllocs pins the snapshot-install arena contract:
// once a pooled runtime's slabs have grown to the graph's high-water mark,
// a NewRuntime+Install+Release cycle allocates only the per-run constant —
// the fresh TDG handle NewRuntime makes for the Submit path and the two
// Result slices that escape through Run's return value. Everything
// per-task (Task structs, pointer table, access and successor slabs,
// region objects) must come from the recycled arenas.
func TestInstallSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomizes caching under the race detector")
	}
	proto := newSnapRT(pinned(0), Options{})
	buildLayeredRT(proto, 24, 16)
	snap, err := Snap(proto)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.TwoSocketXeon(), sim.NewEngine())
	opts := Options{WindowSize: 32, Seed: 3}
	cycle := func() {
		r := NewRuntime(m, pinned(0), opts)
		snap.Install(r)
		r.Release()
	}
	for i := 0; i < 5; i++ {
		cycle() // grow the pooled arenas to steady state
	}
	// The runtime pool is a sync.Pool; disable GC so a collection mid-measure
	// cannot drop the warmed runtime and charge a full re-grow to one run.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const limit = 8
	if avg := testing.AllocsPerRun(20, cycle); avg > limit {
		t.Fatalf("Install cycle allocates %.1f allocs/op in steady state, want <= %d", avg, limit)
	}
}

// TestRunNilObserverSteadyStateAllocs pins the untraced hot path through a
// full simulated run: with no Observer configured, the transfer/steal
// observer hooks must stay un-taken branches — the traced path wraps every
// cross-socket transfer completion in a fresh closure, and that wrapper
// must never be paid by plain runs. The layered graph on AnySocket with
// stealing exercises transfers and steals (each an Observer nil-check);
// what remains per cycle is the per-run constant: the TDG
// handle and the escaping Result slices — measured 4 allocs/op. The bound
// leaves headroom over 4 but sits far below the dozens of transfer-wrapper
// closures one traced run of this graph pays, so a hook leaking onto the
// plain path trips it.
func TestRunNilObserverSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomizes caching under the race detector")
	}
	proto := newSnapRT(pinned(0), Options{})
	buildLayeredRT(proto, 24, 16)
	snap, err := Snap(proto)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.TwoSocketXeon(), sim.NewEngine())
	opts := Options{WindowSize: 32, Seed: 3, Steal: true, StealThreshold: 2}
	cycle := func() {
		r := NewRuntime(m, cyclic{}, opts)
		snap.Install(r)
		res := r.Run()
		if res.TasksRun == 0 {
			t.Fatal("run executed no tasks")
		}
		r.Release()
		m.Reset()
	}
	for i := 0; i < 5; i++ {
		cycle() // grow the pooled arenas and the engine's event arena
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const limit = 16
	if avg := testing.AllocsPerRun(20, cycle); avg > limit {
		t.Fatalf("nil-observer run allocates %.1f allocs/op in steady state, want <= %d", avg, limit)
	}
}

// BenchmarkSnapshotInstall measures installing a captured task graph into a
// pooled runtime — the per-replicate cost of a multi-seed sweep cell before
// any simulation runs. allocs/op is the arena contract: ~constant, not
// O(tasks).
func BenchmarkSnapshotInstall(b *testing.B) {
	proto := newSnapRT(pinned(0), Options{})
	buildLayeredRT(proto, 64, 32)
	snap, err := Snap(proto)
	if err != nil {
		b.Fatal(err)
	}
	m := machine.New(machine.TwoSocketXeon(), sim.NewEngine())
	opts := Options{WindowSize: 64, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRuntime(m, pinned(0), opts)
		snap.Install(r)
		r.Release()
	}
}
