// Command dagen is the task-graph front door: it lists the registered
// workloads and policies, describes a generator, resolves a workload spec
// and prints graph statistics, exports the DAG as JSON (re-importable via
// "file?path=...") or Graphviz DOT, partitions it with the multilevel
// partitioner (the SCOTCH substitute) or maps it onto the machine, and runs
// it end to end through the audited schedule -> audit pipeline with an
// optional Chrome trace and text Gantt chart.
//
// Usage:
//
//	dagen -list                                      # workloads and policies
//	dagen -describe random-layered                   # one generator's doc
//	dagen -spec "random-layered?layers=24&width=96"  # graph statistics
//	dagen -spec "forkjoin?depth=6&fanout=3" -json t.json -dot t.dot
//	dagen -spec qr -scale tiny -parts 8              # k-way partition
//	dagen -spec jacobi -map -dot jacobi.dot          # map onto -machine
//	dagen -spec "file?path=g.json" -parts 4 -imbalance 0.03
//	dagen -spec nstream -run -policy RGP+LAS
//	dagen -spec nstream -run -machine 2socket -gantt -trace nstream.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"numadag/internal/cliutil"
	"numadag/internal/core"
	"numadag/internal/graph"
	"numadag/internal/partition"
	"numadag/internal/policy"
	"numadag/internal/rt"
	"numadag/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		cliutil.Fatal("dagen", err)
	}
}

// run parses args and executes the command, writing its report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dagen", flag.ContinueOnError)
	var (
		list      = fs.Bool("list", false, "list registered workloads and policies, then exit")
		describe  = fs.String("describe", "", "print one workload's documentation and exit")
		spec      = fs.String("spec", "", "workload spec to generate, e.g. \"forkjoin?depth=6&fanout=3\" or \"file?path=g.json\"")
		scale     = cliutil.ScaleFlag(fs, "small")
		machF     = cliutil.MachineFlag(fs, "bullion")
		seed      = fs.Uint64("seed", 1, "partitioner seed for -parts/-map, runtime seed for -run")
		jsonOut   = fs.String("json", "", "export the generated DAG as JSON to this file")
		dotOut    = fs.String("dot", "", "export the generated DAG as Graphviz DOT to this file (colored by part with -parts/-map)")
		parts     = fs.Int("parts", 0, "partition the DAG into this many parts and print cut, imbalance and part weights")
		useMap    = fs.Bool("map", false, "map the DAG onto the -machine sockets and print the communication cost")
		imbalance = fs.Float64("imbalance", 0.05, "tolerated imbalance for -parts/-map")
		noRefine  = fs.Bool("norefine", false, "disable FM refinement for -parts/-map")
		runF      = fs.Bool("run", false, "run the workload end-to-end (schedule + audit) and print statistics")
		polName   = fs.String("policy", "RGP+LAS", "policy registry spec for -run (see -list)")
		window    = fs.Int("window", rt.DefaultOptions().WindowSize, "window size limit (tasks) for -run")
		noSteal   = fs.Bool("nosteal", false, "disable cross-socket work stealing for -run")
		gantt     = fs.Bool("gantt", false, "print a per-core text Gantt chart of the -run")
		traceOut  = cliutil.BindTrace(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *list:
		fmt.Fprintln(stdout, "workloads:")
		for _, n := range workload.Names() {
			doc, _ := workload.Doc(n)
			fmt.Fprintf(stdout, "  %-16s %s\n", n, doc)
		}
		fmt.Fprintln(stdout, "policies:")
		for _, n := range policy.Names() {
			fmt.Fprintf(stdout, "  %s\n", n)
		}
		return nil
	case *describe != "":
		doc, err := workload.Doc(*describe)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: %s\n", *describe, doc)
		fmt.Fprintln(stdout, "reserved parameters: scale=tiny|small|paper, seed=N (generator seed)")
		return nil
	case *spec == "":
		return errors.New("need -spec, -list or -describe (see -h)")
	case (*gantt || traceOut.Path != "") && !*runF:
		return errors.New("-gantt and -trace need -run")
	case *parts < 0:
		return fmt.Errorf("-parts %d: want a positive part count, or 0 for none", *parts)
	}

	sc, err := scale()
	if err != nil {
		return err
	}
	mach, err := machF()
	if err != nil {
		return err
	}
	if *useMap && *parts > 0 && *parts != mach.Sockets {
		return fmt.Errorf("-map partitions into the %d sockets of %s, not -parts %d", mach.Sockets, mach.Name, *parts)
	}
	w, err := workload.New(*spec, sc)
	if err != nil {
		return err
	}
	r, err := w.Instantiate(mach)
	if err != nil {
		return err
	}
	dag := r.Graph()
	fmt.Fprintf(stdout, "workload %s (scale %s, seed %d)\n", w.Spec, w.Scale, w.Seed)
	fmt.Fprintf(stdout, "graph: %d nodes, %d edges, total node weight %d, total edge weight %d\n",
		dag.Len(), dag.Edges(), dag.TotalNodeWeight(), dag.TotalEdgeWeight())
	if prof, err := dag.ComputeProfile(); err == nil {
		fmt.Fprintf(stdout, "profile: %s\n", prof)
	}

	var part []int32
	if *parts > 0 || *useMap {
		opt := partition.DefaultOptions(*parts)
		opt.Imbalance = *imbalance
		opt.Seed = *seed
		opt.NoRefine = *noRefine
		if part, err = partitionDAG(stdout, dag, r.Machine().HopMatrix(), mach.Name, *useMap, opt); err != nil {
			return err
		}
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(dag, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "JSON written to %s (re-import with -spec \"file?path=%s\")\n", *jsonOut, *jsonOut)
	}
	if *dotOut != "" {
		f, err := os.Create(*dotOut)
		if err != nil {
			return err
		}
		if err := dag.DOT(f, w.Name, part); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "DOT written to %s\n", *dotOut)
	}
	if !*runF {
		return nil
	}

	cfg := core.Config{
		App:     *spec,
		Scale:   sc,
		Policy:  *polName,
		Machine: mach,
		Runtime: rt.DefaultOptions(),
		Trace:   traceOut.Enable(*gantt),
	}
	cfg.Runtime.WindowSize = *window
	cfg.Runtime.Seed = *seed
	cfg.Runtime.Steal = !*noSteal
	res, err := core.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "run: policy=%s machine=%s window=%d seed=%d\n", *polName, mach.Name, *window, *seed)
	fmt.Fprintf(stdout, "  %s\n", res.Stats.Summary())
	fmt.Fprintf(stdout, "  socket task counts: %v\n", res.Stats.SocketTasks)
	if err := traceOut.Write(); err != nil {
		return err
	}
	if traceOut.Path != "" {
		fmt.Fprintf(stdout, "trace written to %s (open in Perfetto or chrome://tracing)\n", traceOut.Path)
	}
	if *gantt {
		return cfg.Trace.WriteGantt(stdout, cfg.TracePID, 100)
	}
	return nil
}

// partitionDAG partitions dag k-way (opt.Parts parts) or, with useMap, maps
// it onto the sockets of the machine whose hop matrix is dist, and prints
// the cut, imbalance and part weights (plus the mapping's communication
// cost). It returns the part of every node.
func partitionDAG(stdout io.Writer, dag *graph.DAG, dist [][]int, machName string, useMap bool, opt partition.Options) ([]int32, error) {
	pg := partition.FromDAG(dag)
	var (
		part []int32
		st   partition.Stats
		err  error
	)
	if useMap {
		opt.Parts = len(dist)
		arch := &partition.Arch{Dist: dist}
		if part, st, err = partition.MapOnto(pg, arch, opt); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "mapping onto %s: comm cost %d\n", machName, partition.CommCost(pg, part, arch.Dist))
	} else if part, st, err = partition.Partition(pg, opt); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "parts=%d cut=%d imbalance=%.4f\n", opt.Parts, st.EdgeCut, st.Imbalance)
	fmt.Fprintf(stdout, "part weights: %v\n", partition.PartWeights(pg, part, opt.Parts))
	return part, nil
}
