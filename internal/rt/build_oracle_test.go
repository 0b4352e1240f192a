package rt_test

import (
	"testing"

	"numadag/internal/apps"
	"numadag/internal/machine"
	"numadag/internal/memory"
	"numadag/internal/rt"
	"numadag/internal/sim"
	"numadag/internal/workload"
)

type nopPolicy struct{}

func (nopPolicy) Name() string                         { return "nop" }
func (nopPolicy) PickSocket(*rt.Runtime, *rt.Task) int { return 0 }

// oracleSynthetics mirrors the synthetic generators the root package's
// determinism goldens pin (determinismSynthetics), plus noop.
var oracleSynthetics = []string{
	"random-layered?layers=10&width=24&fan=2&seed=7",
	"forkjoin?depth=5&fanout=3&seed=7",
	"file?path=../../testdata/dags/diamond.json",
	"random-layered?layers=24&width=96&cv=0.4&seed=11",
	"forkjoin?depth=9&fanout=2&seed=11",
	"noop?tasks=5",
}

func newOracleRT(opts rt.Options) *rt.Runtime {
	return rt.NewRuntime(machine.New(machine.TwoSocketXeon(), sim.NewEngine()), nopPolicy{}, opts)
}

// replay copies src's regions (in ID order) into dst and resubmits src's
// tasks through submit, calling barrier before every barrierEvery-th task
// (never when barrierEvery is 0).
func replay(src, dst *rt.Runtime, barrierEvery int, submit func(rt.TaskSpec) *rt.Task, barrier func()) {
	regs := make([]*memory.Region, len(src.Mem().Regions()))
	for i, reg := range src.Mem().Regions() {
		home := 0
		if reg.Placement() == memory.Home {
			home = int(reg.HomeOfPage(0))
		}
		regs[i] = dst.Mem().Alloc(reg.Name(), reg.Bytes(), reg.Placement(), home)
	}
	for i, t := range src.Tasks() {
		if barrierEvery > 0 && i > 0 && i%barrierEvery == 0 {
			barrier()
		}
		acc := make([]rt.Access, len(t.Accesses))
		for j, a := range t.Accesses {
			acc[j] = rt.Access{Region: regs[a.Region.ID()], Mode: a.Mode}
		}
		submit(rt.TaskSpec{Label: t.Label, Flops: t.Flops, Accesses: acc, EPSocket: t.EPSocket})
	}
}

// TestBuildPathMatchesReference is the oracle for Submit's one-pass build
// path: for every paper app at tiny and small scale and every synthetic
// generator, the graph Submit builds — node labels and weights, the edge
// list, every node's pred and succ lists in order with weights — and every
// task's window, nDeps and successor order, plus its Snap, must equal what
// the reference builder (the per-dependence HasEdge + AddEdge path) makes
// of the same task stream. The stream is checked as the generator submits
// it, and replayed with a Barrier before every 3rd task and before every
// quarter of the stream.
func TestBuildPathMatchesReference(t *testing.T) {
	type build struct {
		spec  string
		scale apps.Scale
	}
	var builds []build
	for _, sc := range []apps.Scale{apps.Tiny, apps.Small} {
		for _, name := range apps.Names() {
			builds = append(builds, build{name, sc})
		}
	}
	for _, spec := range oracleSynthetics {
		builds = append(builds, build{spec, apps.Small})
	}
	opts := rt.Options{WindowSize: 64}
	for _, b := range builds {
		w, err := workload.New(b.spec, b.scale)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(w.Key(), func(t *testing.T) {
			prod := newOracleRT(opts)
			if err := w.Build(prod); err != nil {
				t.Fatal(err)
			}
			if len(prod.Tasks()) == 0 {
				t.Fatal("workload built no tasks")
			}
			for _, every := range []int{0, 3, len(prod.Tasks())/4 + 1} {
				got := prod
				if every > 0 {
					got = newOracleRT(opts)
					replay(prod, got, every, got.Submit, got.Barrier)
					if got.Barriers() == 0 {
						t.Fatalf("barrier every %d: no barrier inserted", every)
					}
				}
				want := newOracleRT(opts)
				ref := rt.NewRefBuilder(want)
				replay(prod, want, every, ref.Submit, ref.Barrier)
				if err := rt.DiffBuilds(got, want); err != nil {
					t.Fatalf("barrier every %d: %v", every, err)
				}
			}
		})
	}
}
