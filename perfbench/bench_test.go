package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"numadag/internal/apps"
	"numadag/internal/cluster"
	"numadag/internal/core"
	"numadag/internal/machine"
	"numadag/internal/policy"
	"numadag/internal/rt"
	"numadag/internal/sim"
)

// plainGrid runs every cell of g with the bare policy and no hooks, and
// returns each cell's statistics and the summed engine steps.
func plainGrid(t *testing.T, g grid) ([]rt.Result, int64) {
	t.Helper()
	cells, err := g.exp.Cells()
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := buildSnapshots(g.exp, cells, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []rt.Result
	var steps int64
	for _, cell := range cells {
		pol, err := policy.New(cell.Policy)
		if err != nil {
			t.Fatal(err)
		}
		opts := g.exp.Runtime
		opts.Seed = cell.Seed
		m := machine.New(g.exp.Machines[0], sim.NewEngine())
		r := rt.NewRuntime(m, pol, opts)
		snaps[cell.App].Install(r)
		out = append(out, r.Run())
		steps += int64(m.Engine().Steps())
		if err := r.AuditSchedule(); err != nil {
			t.Fatal(err)
		}
	}
	return out, steps
}

// TestTracingDoesNotPerturb runs a small version of each workload with and
// without the timing wrapper, flow hooks and observer: the simulated
// statistics and engine steps must be identical. figure1 covers the
// wrapper's StealVeto (EP) and Preparer (RGP+LAS) forwarding.
func TestTracingDoesNotPerturb(t *testing.T) {
	for _, name := range []string{"figure1", "rgp_window8192"} {
		t.Run(name, func(t *testing.T) {
			g := grids[name](defaultSeed, apps.Small)
			want, wantSteps := plainGrid(t, g)

			// The command's path, core.Experiment.Run, must agree too.
			var viaCore []rt.Result
			collect := core.SinkFunc(func(cr core.CellResult) error {
				viaCore = append(viaCore, cr.Stats)
				return nil
			})
			if err := g.exp.Run(context.Background(), collect); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(viaCore, want) {
				t.Fatal("core.Experiment.Run statistics differ from the bare loop")
			}

			p, got, err := traceGrid(g)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("traced statistics differ from the untraced ones")
			}
			if p.steps != wantSteps {
				t.Fatalf("traced run took %d engine steps, untraced %d", p.steps, wantSteps)
			}
			if p.c.pickCalls == 0 || p.c.flows == 0 || p.c.windows == 0 {
				t.Fatalf("wrapper or hooks saw nothing: %d picks, %d flows, %d windows", p.c.pickCalls, p.c.flows, p.c.windows)
			}
		})
	}
	t.Run("service", func(t *testing.T) {
		cfg := serviceConfig(defaultSeed, 2000)
		want, err := cluster.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p, got, err := traceService(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.CompletionHash() != want.CompletionHash() || got.Steps != want.Steps {
			t.Fatalf("traced run: hash %x, %d steps; untraced: hash %x, %d steps",
				got.CompletionHash(), got.Steps, want.CompletionHash(), want.Steps)
		}
		for i := range want.Jobs {
			if !reflect.DeepEqual(got.Jobs[i].Stats, want.Jobs[i].Stats) {
				t.Fatalf("job %d statistics differ", i)
			}
		}
		if p.c.pickCalls == 0 || p.c.flows == 0 {
			t.Fatalf("wrapper or hooks saw nothing: %d picks, %d flows", p.c.pickCalls, p.c.flows)
		}
	})
}

// TestWrapperForwardsOptionalInterfaces checks the wrapper implements
// exactly the optional policy interfaces of the policy it wraps.
func TestWrapperForwardsOptionalInterfaces(t *testing.T) {
	for _, spec := range []string{"LAS", "DFIFO", "EP", "RGP+LAS", "RGP", "HEFT"} {
		inner, err := policy.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		w, err := wrapPolicy(inner, newLayerCounts(nil))
		if err != nil {
			t.Fatal(err)
		}
		_, ip := inner.(rt.Preparer)
		_, wp := w.(rt.Preparer)
		_, iv := inner.(rt.StealVeto)
		_, wv := w.(rt.StealVeto)
		if ip != wp || iv != wv || w.Name() != inner.Name() {
			t.Errorf("%s: wrapper Preparer %v StealVeto %v name %q, policy %v %v %q", spec, wp, wv, w.Name(), ip, iv, inner.Name())
		}
		if iv && w.(rt.StealVeto).VetoSteal() != inner.(rt.StealVeto).VetoSteal() {
			t.Errorf("%s: VetoSteal differs", spec)
		}
	}
	inner, err := policy.New("OSMigrate")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wrapPolicy(inner, newLayerCounts(nil)); err == nil {
		t.Error("a policy with a TaskDoneHook was wrapped without it")
	}
}

// TestMetricNames keeps the printed workload and metric names and units in
// step with BENCHMARK.json, and checks a traced pass measures every
// per-layer metric.
func TestMetricNames(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	same := func(kind string, declared []struct{ Name, Unit string }, printed []metricDef) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, benchmark prints %d", kind, len(declared), len(printed))
			return
		}
		for i, d := range declared {
			if d.Name != printed[i].name || d.Unit != printed[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]", kind, i, d.Name, d.Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)

	p, _, err := traceGrid(figure1Grid(defaultSeed, apps.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	var measured, want []string
	for k := range p.values() {
		measured = append(measured, k)
	}
	for _, m := range perLayer {
		want = append(want, m.name)
	}
	sort.Strings(measured)
	sort.Strings(want)
	if !reflect.DeepEqual(measured, want) {
		t.Errorf("a traced pass measures %v, perLayer lists %v", measured, want)
	}
}
