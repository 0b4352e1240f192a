package rt_test

import (
	"runtime/debug"
	"testing"

	"numadag/internal/apps"
	"numadag/internal/machine"
	"numadag/internal/memory"
	"numadag/internal/rt"
	"numadag/internal/sim"
)

// TestSubmitSteadyStateAllocs pins the build path's allocation contract: a
// pooled runtime rebuilding jacobi at paper scale (3,328 tasks) through
// Submit. The task stream is recorded once and replayed with the same
// labels and access slices, so what is counted is Submit's own work. Task
// structs and successor lists come from the recycled arenas, dependences
// from reused scratch and region trackers from a recycled slice; what
// remains is the fresh TDG every build makes (a snapshot keeps it, so it
// is never pooled): its per-node arrays, its pred slab and, mostly, the
// successor lists it grows by append. Measured 3.68 allocs per task; the
// per-dependence path this replaced paid 12.7.
func TestSubmitSteadyStateAllocs(t *testing.T) {
	if rt.RaceEnabled {
		t.Skip("sync.Pool randomizes caching under the race detector")
	}
	app, err := apps.ByName("jacobi", apps.Paper)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.TwoSocketXeon(), sim.NewEngine())
	src := rt.NewRuntime(m, nopPolicy{}, rt.Options{})
	app.Build(src)
	type regionSpec struct {
		name  string
		bytes int64
	}
	var regs []regionSpec
	for _, reg := range src.Mem().Regions() {
		if reg.Placement() != memory.Deferred {
			t.Fatalf("region %s is not deferred", reg.Name())
		}
		regs = append(regs, regionSpec{reg.Name(), reg.Bytes()})
	}
	specs := make([]rt.TaskSpec, len(src.Tasks()))
	regionIDs := make([][]int, len(specs))
	for i, tk := range src.Tasks() {
		specs[i] = rt.TaskSpec{Label: tk.Label, Flops: tk.Flops, EPSocket: tk.EPSocket, Accesses: make([]rt.Access, len(tk.Accesses))}
		for j, a := range tk.Accesses {
			specs[i].Accesses[j].Mode = a.Mode
			regionIDs[i] = append(regionIDs[i], a.Region.ID())
		}
	}
	live := make([]*memory.Region, len(regs))
	rebuild := func() {
		r := rt.NewRuntime(m, nopPolicy{}, rt.Options{WindowSize: 2048})
		for i, reg := range regs {
			live[i] = r.Mem().Alloc(reg.name, reg.bytes, memory.Deferred, 0)
		}
		for i := range specs {
			for j, id := range regionIDs[i] {
				specs[i].Accesses[j].Region = live[id]
			}
			r.Submit(specs[i])
		}
		r.Release()
	}
	for i := 0; i < 5; i++ {
		rebuild() // grow the pooled arenas to steady state
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const perTask = 4.0
	avg := testing.AllocsPerRun(20, rebuild)
	if got := avg / float64(len(specs)); got > perTask {
		t.Fatalf("rebuilding %d tasks allocates %.0f times (%.3f per task), want <= %.1f per task",
			len(specs), avg, got, perTask)
	}
}
