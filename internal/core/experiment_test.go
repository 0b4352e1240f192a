package core

import (
	"context"
	"errors"
	"testing"

	"numadag/internal/apps"
	"numadag/internal/machine"
	"numadag/internal/rt"
	"numadag/internal/sim"
)

func TestExperimentCellEnumeration(t *testing.T) {
	e := &Experiment{
		Apps:     []string{"jacobi", "cg"},
		Policies: []string{"LAS", "DFIFO"},
		Scale:    apps.Tiny,
		Variants: []Variant{{Name: "a"}, {Name: "b"}},
		Seeds:    2,
	}
	cells, err := e.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*2*2*2 {
		t.Fatalf("got %d cells", len(cells))
	}
	// Canonical order: apps x policies x machines x variants x replicates.
	first := cells[0]
	if first.App != "jacobi" || first.Policy != "LAS" || first.Variant != "a" ||
		first.Replicate != 0 || first.Index != 0 {
		t.Fatalf("first cell %+v", first)
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has Index %d", i, c.Index)
		}
		if want := DeriveSeed(rt.DefaultOptions().Seed, c.Replicate); c.Seed != want {
			t.Fatalf("cell %+v seed, want %d", c, want)
		}
		if c.Machine != machine.BullionS16().Name {
			t.Fatalf("cell %+v machine", c)
		}
	}
	if cells[1].Replicate != 1 || cells[2].Variant != "b" {
		t.Fatalf("replicates not innermost: %+v %+v", cells[1], cells[2])
	}
}

func TestExperimentValidation(t *testing.T) {
	if _, err := (&Experiment{}).Cells(); err == nil {
		t.Error("empty experiment accepted")
	}
	if _, err := (&Experiment{Policies: []string{"LAS"}, Apps: []string{}}).Cells(); err == nil {
		t.Error("zero-length app list accepted")
	}
	base := func() *Experiment { return &Experiment{Apps: []string{"jacobi"}, Policies: []string{"LAS"}} }
	e := base()
	e.Machines = []machine.Config{}
	if _, err := e.Cells(); err == nil {
		t.Error("zero-length machine list accepted (silent zero-cell experiment)")
	}
	e = base()
	e.Variants = []Variant{}
	if _, err := e.Cells(); err == nil {
		t.Error("zero-length variant list accepted (silent zero-cell experiment)")
	}
	bad := &Experiment{Apps: []string{"jacobi"}, Policies: []string{"nope"}, Scale: apps.Tiny}
	if err := bad.Run(context.Background()); err == nil {
		t.Error("unknown policy accepted")
	}
	bad = &Experiment{Apps: []string{"nope"}, Policies: []string{"LAS"}, Scale: apps.Tiny}
	if err := bad.Run(context.Background()); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestExperimentDefaultAppsAllBenchmarks(t *testing.T) {
	e := &Experiment{Policies: []string{"LAS"}, Scale: apps.Tiny}
	cells, err := e.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(apps.Names()) {
		t.Fatalf("%d cells for nil Apps, want %d", len(cells), len(apps.Names()))
	}
}

// TestExperimentMatchesSequential pins the load-bearing determinism claim:
// the pooled experiment delivers results in canonical order, so any sink
// aggregation equals a one-worker (fully sequential) evaluation.
func TestExperimentMatchesSequential(t *testing.T) {
	grid := func(workers int) *Experiment {
		return &Experiment{
			Apps:     []string{"jacobi", "nstream"},
			Policies: []string{"LAS", "DFIFO", "RGP+LAS"},
			Scale:    apps.Tiny,
			Seeds:    2,
			Workers:  workers,
		}
	}
	collect := func(workers int) []CellResult {
		var got []CellResult
		sink := SinkFunc(func(res CellResult) error { got = append(got, res); return nil })
		if err := grid(workers).Run(context.Background(), sink); err != nil {
			t.Fatal(err)
		}
		return got
	}
	pooled, serial := collect(0), collect(1)
	if len(pooled) != len(serial) || len(pooled) != 2*3*2 {
		t.Fatalf("lengths %d vs %d", len(pooled), len(serial))
	}
	for i := range pooled {
		if pooled[i].Cell != serial[i].Cell {
			t.Fatalf("cell %d differs: %+v vs %+v", i, pooled[i].Cell, serial[i].Cell)
		}
		if pooled[i].Stats.Makespan != serial[i].Stats.Makespan {
			t.Fatalf("cell %d makespan %v vs %v", i, pooled[i].Stats.Makespan, serial[i].Stats.Makespan)
		}
	}
}

func TestExperimentSeedDerivation(t *testing.T) {
	opts := rt.DefaultOptions()
	opts.Seed = 7
	e := &Experiment{
		Apps:     []string{"jacobi"},
		Policies: []string{"LAS"},
		Scale:    apps.Tiny,
		Runtime:  opts,
		Seeds:    3,
	}
	var seeds []uint64
	sink := SinkFunc(func(res CellResult) error {
		if res.Config.Runtime.Seed != res.Cell.Seed {
			t.Errorf("config seed %d != cell seed %d", res.Config.Runtime.Seed, res.Cell.Seed)
		}
		seeds = append(seeds, res.Cell.Seed)
		return nil
	})
	if err := e.Run(context.Background(), sink); err != nil {
		t.Fatal(err)
	}
	for i, s := range seeds {
		if want := DeriveSeed(7, i); s != want {
			t.Errorf("replicate %d seed %d, want %d", i, s, want)
		}
	}
}

func TestExperimentVariantCannotOverrideSeed(t *testing.T) {
	e := &Experiment{
		Apps:     []string{"jacobi"},
		Policies: []string{"LAS"},
		Scale:    apps.Tiny,
		Variants: []Variant{{Name: "rogue", Mutate: func(o *rt.Options) { o.Seed = 999 }}},
	}
	err := e.Run(context.Background(), SinkFunc(func(res CellResult) error {
		if res.Config.Runtime.Seed != DeriveSeed(rt.DefaultOptions().Seed, 0) {
			t.Errorf("variant overrode the derived seed: %d", res.Config.Runtime.Seed)
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
}

// nopObserver is a minimal rt.Observer for option-plumbing tests.
type nopObserver struct{}

func (nopObserver) TaskEnd(*rt.Task)                                   {}
func (nopObserver) TransferLanded(*rt.Task, int, int, int64, sim.Time) {}
func (nopObserver) TaskStolen(*rt.Task, int, int)                      {}

// TestExperimentRejectsRuntimeObserver: a grid records through Trace only.
// A caller-set Runtime.Observer is an error before any cell runs or any
// sink sees a result — and before Runtime is compared with its zero value,
// which would panic on an uncomparable Observer.
func TestExperimentRejectsRuntimeObserver(t *testing.T) {
	type uncomparable struct {
		nopObserver
		_ []int
	}
	for _, obs := range []rt.Observer{nopObserver{}, uncomparable{}} {
		e := &Experiment{
			Apps:     []string{"jacobi"},
			Policies: []string{"LAS"},
			Scale:    apps.Tiny,
			Runtime:  rt.Options{Observer: obs},
			Workers:  1,
		}
		emitted := 0
		err := e.Run(context.Background(), SinkFunc(func(CellResult) error { emitted++; return nil }))
		if !errors.Is(err, errObserver) {
			t.Fatalf("Run with Runtime.Observer %T: err = %v, want errObserver", obs, err)
		}
		if emitted != 0 {
			t.Fatalf("Run with Runtime.Observer emitted %d cells", emitted)
		}
	}
}

func TestExperimentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	e := &Experiment{
		Apps:     apps.Names(),
		Policies: []string{"LAS", "DFIFO", "RGP+LAS"},
		Scale:    apps.Tiny,
		Seeds:    4,
		Workers:  2,
	}
	total := len(apps.Names()) * 3 * 4
	delivered := 0
	e.Progress = func(done, tot int, res CellResult) {
		delivered = done
		if tot != total {
			t.Errorf("total %d, want %d", tot, total)
		}
		cancel() // stop after the first in-order delivery
	}
	err := e.Run(ctx, SinkFunc(func(CellResult) error { return nil }))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if delivered == 0 || delivered >= total {
		t.Fatalf("delivered %d of %d cells after cancellation", delivered, total)
	}
}

func TestExperimentSinkErrorAborts(t *testing.T) {
	e := &Experiment{
		Apps:     []string{"jacobi", "nstream"},
		Policies: []string{"LAS"},
		Scale:    apps.Tiny,
		Seeds:    4,
	}
	boom := errors.New("boom")
	calls := 0
	err := e.Run(context.Background(), SinkFunc(func(CellResult) error { calls++; return boom }))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 1 {
		t.Fatalf("sink called %d times after erroring", calls)
	}
}

func TestExperimentProgressInOrder(t *testing.T) {
	e := &Experiment{
		Apps:     []string{"jacobi"},
		Policies: []string{"LAS", "DFIFO"},
		Scale:    apps.Tiny,
		Seeds:    2,
	}
	last := -1
	e.Progress = func(done, total int, res CellResult) {
		if res.Cell.Index != last+1 {
			t.Errorf("progress out of order: index %d after %d", res.Cell.Index, last)
		}
		last = res.Cell.Index
		if done != last+1 || total != 4 {
			t.Errorf("done/total = %d/%d at index %d", done, total, last)
		}
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if last != 3 {
		t.Fatalf("last index %d", last)
	}
}

func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(1, 0) != 1 || DeriveSeed(1, 3) != 3001 || DeriveSeed(42, 2) != 2042 {
		t.Fatalf("DeriveSeed formula drifted: %d %d %d",
			DeriveSeed(1, 0), DeriveSeed(1, 3), DeriveSeed(42, 2))
	}
}

// TestFigure1MatchesManualExperiment pins Figure1 as a pure declaration:
// building the same experiment and table by hand yields the same cells.
func TestFigure1MatchesManualExperiment(t *testing.T) {
	opt := DefaultFigure1Options()
	opt.Scale = apps.Tiny
	opt.Seeds = 1
	opt.Apps = []string{"jacobi", "cg"}
	tb, err := Figure1(opt)
	if err != nil {
		t.Fatal(err)
	}
	table := Figure1Table(opt)
	if err := Figure1Experiment(opt).Run(context.Background(), table); err != nil {
		t.Fatal(err)
	}
	want := table.Table()
	for _, row := range want.Rows() {
		for _, col := range want.Columns {
			if tb.Get(row, col) != want.Get(row, col) {
				t.Errorf("cell (%s,%s): %v vs %v", row, col, tb.Get(row, col), want.Get(row, col))
			}
		}
	}
}
