// Benchmark harness for the paper's evaluation.
//
// The poster has a single exhibit — Figure 1 — plus the design knobs §2.2
// describes (window size, partitioner, propagation). One benchmark family
// regenerates each:
//
//	BenchmarkFigure1/<app>/<policy>   every bar of Figure 1 (small scale;
//	                                  run cmd/figure1 for the paper scale)
//	BenchmarkAblationWindow/w=<n>     A1: window-size sensitivity (RGP+LAS)
//	BenchmarkAblationPartitioner/...  A2: partitioner quality on app TDGs
//	BenchmarkAblationSockets/...      A3: socket-count scaling
//	BenchmarkAblationPropagation/...  A4: RGP+LAS vs repartitioning RGP
//
// Each simulation bench reports the simulated makespan as "sim-ms/run" —
// that metric, not wall-clock ns/op, is the figure's y-axis input.
package numadag_test

import (
	"context"
	"fmt"
	"testing"

	"numadag"
	"numadag/internal/apps"
	"numadag/internal/core"
	"numadag/internal/machine"
	"numadag/internal/partition"
	"numadag/internal/rt"
	"numadag/internal/workload"
)

// runSim executes one configuration per iteration and reports simulated
// time. It runs through a snapshot-cached core.Runner, the sweep execution
// path: the workload's TDG is built once and installed into every
// iteration's pooled runtime (bit-identical to rebuilding — the workload
// determinism contract), so allocs/op tracks the true steady-state per-run
// cost of a Figure-1 cell rather than one-off graph construction.
func runSim(b *testing.B, cfg core.Config) {
	b.Helper()
	b.ReportAllocs()
	runner := core.NewRunner(0)
	var last float64
	for i := 0; i < b.N; i++ {
		cfg.Runtime.Seed = uint64(i + 1)
		res, err := runner.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = float64(res.Stats.Makespan) / 1e6
	}
	b.ReportMetric(last, "sim-ms/run")
}

// BenchmarkFigure1 regenerates every bar of Figure 1 at small scale: eight
// apps x four policies (LAS is the baseline the speedups divide by).
func BenchmarkFigure1(b *testing.B) {
	for _, app := range apps.Names() {
		for _, pol := range []string{"LAS", "DFIFO", "RGP+LAS", "EP"} {
			b.Run(fmt.Sprintf("%s/%s", app, pol), func(b *testing.B) {
				runSim(b, core.DefaultConfig(app, pol, apps.Small))
			})
		}
	}
}

// BenchmarkAblationWindow sweeps the RGP+LAS window size (A1).
func BenchmarkAblationWindow(b *testing.B) {
	for _, w := range []int{64, 256, 1024, 2048, 8192} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			cfg := core.DefaultConfig("jacobi", "RGP+LAS", apps.Small)
			cfg.Runtime.WindowSize = w
			runSim(b, cfg)
		})
	}
}

// BenchmarkAblationPartitioner measures partitioner quality (edge cut, as
// "cut-bytes") on real app TDGs under the pipeline ablations (A2). This is
// a pure partitioner benchmark: wall-clock ns/op is the partitioning cost.
func BenchmarkAblationPartitioner(b *testing.B) {
	for _, appName := range []string{"jacobi", "qr", "cg"} {
		app, err := apps.ByName(appName, apps.Small)
		if err != nil {
			b.Fatal(err)
		}
		m := numadag.NewMachine(machine.BullionS16(), numadag.NewEngine())
		r := rt.NewRuntime(m, benchPolicy{}, rt.Options{})
		app.Build(r)
		pg := partition.FromDAG(r.Graph())
		variants := []struct {
			name string
			mut  func(*partition.Options)
		}{
			{"full", func(*partition.Options) {}},
			{"random-match", func(o *partition.Options) { o.Matching = partition.RandomMatching }},
			{"no-refine", func(o *partition.Options) { o.NoRefine = true }},
			{"random-init", func(o *partition.Options) { o.Initial = partition.RandomInit }},
		}
		for _, v := range variants {
			b.Run(fmt.Sprintf("%s/%s", appName, v.name), func(b *testing.B) {
				var cut int64
				for i := 0; i < b.N; i++ {
					opt := partition.DefaultOptions(8)
					opt.Seed = uint64(i + 1)
					v.mut(&opt)
					_, st, err := partition.Partition(pg, opt)
					if err != nil {
						b.Fatal(err)
					}
					cut = st.EdgeCut
				}
				b.ReportMetric(float64(cut), "cut-bytes")
			})
		}
	}
}

// BenchmarkAblationSockets scales the machine from 2 to 8 sockets (A3).
func BenchmarkAblationSockets(b *testing.B) {
	for _, m := range []machine.Config{
		machine.TwoSocketXeon(),
		machine.FourSocket(),
		machine.BullionS16(),
	} {
		for _, pol := range []string{"LAS", "RGP+LAS"} {
			b.Run(fmt.Sprintf("%s/%s", m.Name, pol), func(b *testing.B) {
				cfg := core.DefaultConfig("nstream", pol, apps.Small)
				cfg.Machine = m
				runSim(b, cfg)
			})
		}
	}
}

// BenchmarkAblationPropagation compares the two RGP propagation modes (A4).
func BenchmarkAblationPropagation(b *testing.B) {
	for _, pol := range []string{"LAS", "RGP+LAS", "RGP"} {
		b.Run(pol, func(b *testing.B) {
			runSim(b, core.DefaultConfig("gauss-seidel", pol, apps.Small))
		})
	}
}

// BenchmarkMultiSeedSweep measures a replicated experiment grid — the
// paper-scale sweep pattern (one workload x policy cell averaged over many
// seeds). With the TDG cache each workload's task graph is generated once
// per (workload, machine) and installed into every replicate; /nocache runs
// the identical grid with the cache disabled, so the delta between the two
// is the redundant graph-construction cost the cache removes.
func BenchmarkMultiSeedSweep(b *testing.B) {
	for _, mode := range []struct {
		name     string
		tdgCache int
	}{{"cached", 0}, {"nocache", -1}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := rt.DefaultOptions()
				opts.Seed = uint64(i + 1)
				e := &core.Experiment{
					Apps:     []string{"jacobi", "qr"},
					Policies: []string{"LAS"},
					Scale:    apps.Small,
					Runtime:  opts,
					Seeds:    8,
					TDGCache: mode.tdgCache,
				}
				if err := e.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPartitionerScaling measures the multilevel partitioner's
// wall-clock cost on growing grids (infrastructure, not a paper figure).
func BenchmarkPartitionerScaling(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		g := partition.NewGraph(n * n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := i*n + j
				g.SetVertexWeight(v, 1)
				if i+1 < n {
					g.AddEdge(v, (i+1)*n+j, 64)
				}
				if j+1 < n {
					g.AddEdge(v, i*n+j+1, 64)
				}
			}
		}
		b.Run(fmt.Sprintf("grid%dx%d", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := partition.DefaultOptions(8)
				opt.Seed = uint64(i + 1)
				if _, _, err := partition.Partition(g, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDagpart measures the stand-alone partitioner flow of cmd/dagen
// -parts and -map — workload TDG -> symmetrized graph -> k-way partition
// or static mapping onto 8 equidistant sockets — on a partitioner-heavy app
// and a synthetic layered DAG. allocs/op tracks the per-call overhead that
// remains outside the refiner's reused scratch (subgraph extraction and
// coarsening).
func BenchmarkDagpart(b *testing.B) {
	for _, spec := range []string{"qr", "random-layered?layers=24&width=96"} {
		w, err := workload.New(spec, apps.Small)
		if err != nil {
			b.Fatal(err)
		}
		m := numadag.NewMachine(machine.BullionS16(), numadag.NewEngine())
		r := rt.NewRuntime(m, benchPolicy{}, rt.Options{})
		if err := w.Build(r); err != nil {
			b.Fatal(err)
		}
		pg := partition.FromDAG(r.Graph())
		for _, mode := range []string{"kway", "map"} {
			b.Run(fmt.Sprintf("%s/%s", spec, mode), func(b *testing.B) {
				b.ReportAllocs()
				arch := partition.NewUniformArch(8)
				var cut int64
				for i := 0; i < b.N; i++ {
					opt := partition.DefaultOptions(8)
					opt.Seed = uint64(i + 1)
					var st partition.Stats
					var err error
					if mode == "map" {
						_, st, err = partition.MapOnto(pg, arch, opt)
					} else {
						_, st, err = partition.Partition(pg, opt)
					}
					if err != nil {
						b.Fatal(err)
					}
					cut = st.EdgeCut
				}
				b.ReportMetric(float64(cut), "cut-bytes")
			})
		}
	}
}

// BenchmarkSimulatorThroughput measures host-side simulation speed in
// tasks/second (infrastructure).
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := core.DefaultConfig("jacobi", "LAS", apps.Small)
	runner := core.NewRunner(0)
	var tasks int
	for i := 0; i < b.N; i++ {
		cfg.Runtime.Seed = uint64(i + 1)
		res, err := runner.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tasks = res.Tasks
	}
	b.ReportMetric(float64(tasks), "tasks/run")
}

type benchPolicy struct{}

func (benchPolicy) Name() string                         { return "bench" }
func (benchPolicy) PickSocket(*rt.Runtime, *rt.Task) int { return 0 }
