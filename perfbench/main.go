// Command perfbench is the repository benchmark. It runs one workload
// through the same public entry points the commands use (core.Experiment.Run
// for grids, cluster.Run for service mode), checks every simulated result,
// and prints the end-to-end metrics, or with -trace 1 the per-layer metrics
// of a traced pass timed from outside the layers. The last line of standard
// output is one JSON object: correct, attempted, failed and metrics.
//
// Usage, from the repository root (run.py builds the binary first):
//
//	python3 perfbench/run.py --workload figure1 --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads, the metrics and the
// baseline.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"numadag/internal/apps"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"figure1", "rgp_window8192", "service"}

// grids maps the grid workloads to their declarations.
var grids = map[string]func(seed uint64, scale apps.Scale) grid{
	"figure1":        figure1Grid,
	"rgp_window8192": rgpWindowGrid,
}

// report is the outcome of one benchmark run.
type report struct {
	attempted, failed int
	values            map[string]float64
}

// minReps is the fewest timed repetitions a run takes however short
// -seconds is, so that every median has something to choose from.
const minReps = 3

// setupReps is how many times a grid run times its set-up.
const setupReps = 5

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed    = flag.Uint64("seed", defaultSeed, "workload seed")
		seconds = flag.Int("seconds", 10, "measuring time in seconds")
		traceF  = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		commit  = flag.String("commit", "unknown", "source commit, for the provenance header")
		spans   = flag.String("spans", "", "with -trace 1, write the last traced pass's spans here (default .bench_build/perfbench/spans-<workload>-seed<n>.json)")
	)
	flag.Parse()
	_, isGrid := grids[*name]
	if !isGrid && *name != "service" {
		fatalf("unknown -workload %q (want %s)", *name, strings.Join(workloadNames, ", "))
	}
	if *seconds < 1 || (*traceF != 0 && *traceF != 1) {
		fatalf("want -seconds >= 1 and -trace 0 or 1")
	}
	traced := *traceF == 1
	if *spans == "" {
		*spans = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
	}
	printProvenance(*name, *seed, *traceF, *commit)

	out := bufio.NewWriter(os.Stdout)
	budget := time.Duration(*seconds) * time.Second
	var rep report
	switch {
	case isGrid && traced:
		rep = traceGridWorkload(out, *name, *seed, budget, *spans)
	case isGrid:
		rep = measureGridWorkload(out, *name, *seed, budget)
	case traced:
		rep = traceServiceWorkload(out, *seed, budget, *spans)
	default:
		rep = measureServiceWorkload(out, *seed, budget)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	} else {
		rep.values["peak_rss_mb"] = peakRSSMB()
	}
	fmt.Fprintf(out, "failed_ratio %.6g (%d of %d attempted)\n", ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fatalf("metric %s not measured", d.name)
		}
		fmt.Fprintf(out, "metric %-32s %16.6f %s\n", d.name, v, d.unit)
		ms[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, ms})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(out, "%s\n", line)
	if err := out.Flush(); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// printProvenance prints the header every result carries.
func printProvenance(name string, seed uint64, trace int, commit string) {
	h, _ := json.Marshal(map[string]any{
		"workload":     name,
		"seed":         seed,
		"heldout_seed": heldOutSeed,
		"trace":        trace,
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"cpu":          cpuModel(),
		"go":           runtime.Version(),
		"commit":       commit,
	})
	fmt.Printf("provenance %s\n", h)
}

// cpuModel returns the host CPU's model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// checker counts results that fail their check: a reference digest list
// (the recorded golden at the default seed, else the run's first result)
// that every later result must reproduce cell for cell.
type checker struct {
	ref []uint64
}

// check compares digests with the reference and returns how many cells
// differ. The first call without a golden sets the reference.
func (c *checker) check(digests []uint64) int {
	if c.ref == nil {
		c.ref = digests
		return 0
	}
	bad := 0
	for i := range c.ref {
		if i >= len(digests) || digests[i] != c.ref[i] {
			bad++
		}
	}
	return bad
}

func newChecker(workload string, seed uint64) *checker {
	if seed == defaultSeed {
		return &checker{ref: goldenDigests[workload]}
	}
	return &checker{}
}

// measureGridWorkload is the untraced grid run: set-up timed setupReps
// times, one warm-up grid, then whole grids until the budget is spent.
func measureGridWorkload(out *bufio.Writer, name string, seed uint64, budget time.Duration) report {
	g := grids[name](seed, apps.Paper)
	chk := newChecker(name, seed)
	cells, err := g.exp.Cells()
	if err != nil {
		fatalf("%v", err)
	}
	var setups, rates, wallRates []float64
	for i := 0; i < setupReps; i++ {
		d, err := gridSetup(g)
		if err != nil {
			fatalf("set-up: %v", err)
		}
		setups = append(setups, d)
	}
	var rep report
	var last gridRun
	start := time.Now()
	for n := 0; n <= minReps || time.Since(start) < budget; n++ {
		run, err := runGrid(g, 0)
		rep.attempted += len(cells)
		if err != nil {
			fmt.Fprintf(out, "grid failed: %v\n", err)
			rep.failed += len(cells)
			continue
		}
		rep.failed += chk.check(run.digests)
		if n > 0 { // the first grid warms the pools
			rates = append(rates, float64(len(cells))/run.cpu)
			wallRates = append(wallRates, float64(len(cells))/run.wall.Seconds())
		}
		last = run
	}
	printDigests(out, name, seed, chk.ref)
	if name == "figure1" && last.table != nil {
		printFidelity(out, last.table)
	}
	fmt.Fprintf(out, "grid: %d cells; %d timed grids\ncells per CPU second: %.4g\ncells per wall second: %.4g\n", len(cells), len(rates), rates, wallRates)
	cps := median(rates)
	// Every cell of a grid is one job, so the two throughputs coincide.
	rep.values = map[string]float64{"setup_s": median(setups), "cells_per_s": cps, "jobs_per_s": cps}
	return rep
}

// traceGridWorkload alternates an untraced single-worker Experiment.Run
// with a traced pass until the budget is spent, and reports per-layer
// medians over the traced passes.
func traceGridWorkload(out *bufio.Writer, name string, seed uint64, budget time.Duration, spansPath string) report {
	g := grids[name](seed, apps.Paper)
	chk := newChecker(name, seed)
	cells, err := g.exp.Cells()
	if err != nil {
		fatalf("%v", err)
	}
	var rep report
	var passes []map[string]float64
	var last *recorder
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < budget; n++ {
		rep.attempted += 2 * len(cells)
		plain, err := runGrid(g, 1)
		if err != nil {
			fmt.Fprintf(out, "untraced grid failed: %v\n", err)
			rep.failed += 2 * len(cells)
			continue
		}
		rep.failed += chk.check(plain.digests)
		p, results, err := traceGrid(g)
		if err != nil {
			fmt.Fprintf(out, "traced grid failed: %v\n", err)
			rep.failed += len(cells)
			continue
		}
		digests := make([]uint64, len(results))
		for i, r := range results {
			digests[i] = cellDigest(r)
		}
		// The traced pass must reproduce the untraced one cell for cell.
		rep.failed += (&checker{ref: plain.digests}).check(digests)
		p.untraced = plain.wall
		passes = append(passes, p.values())
		last = p.rec
	}
	printDigests(out, name, seed, chk.ref)
	writeSpans(out, last, spansPath)
	fmt.Fprintf(out, "traced: %d passes of %d cells\n", len(passes), len(cells))
	rep.values = medianValues(passes)
	return rep
}

// measureServiceWorkload is the untraced service run: one warm-up
// cluster.Run, then runs until the budget is spent. Each run times its own
// set-up (arrivals and snapshot prebuild, until the first submission).
func measureServiceWorkload(out *bufio.Writer, seed uint64, budget time.Duration) report {
	cfg := serviceConfig(seed, serviceJobs)
	chk := newChecker("service", seed)
	var rep report
	var setups, rates, wallRates []float64
	var last serviceRun
	start := time.Now()
	for n := 0; n <= minReps || time.Since(start) < budget; n++ {
		run, err := runService(cfg)
		rep.attempted += cfg.Jobs
		if err != nil {
			fmt.Fprintf(out, "service run failed: %v\n", err)
			rep.failed += cfg.Jobs
			continue
		}
		if chk.check([]uint64{run.res.CompletionHash()}) != 0 {
			rep.failed += cfg.Jobs
		}
		setups = append(setups, run.setup)
		if n > 0 { // the first run warms the pools
			rates = append(rates, float64(len(run.res.Jobs))/run.loop)
			wallRates = append(wallRates, float64(len(run.res.Jobs))/run.loopWall.Seconds())
		}
		last = run
	}
	printDigests(out, "service", seed, chk.ref)
	if last.res != nil {
		fmt.Fprintf(out, "%s\n%d engine steps per run\n", last.res.Stats.Summary(), last.res.Steps)
	}
	fmt.Fprintf(out, "service: %d jobs per run; %d timed runs\njobs per CPU second: %.4g\njobs per wall second: %.4g\n", cfg.Jobs, len(rates), rates, wallRates)
	jps := median(rates)
	// Every job is one audited single-machine simulation: one cell.
	rep.values = map[string]float64{"setup_s": median(setups), "cells_per_s": jps, "jobs_per_s": jps}
	return rep
}

// traceServiceWorkload alternates an untraced cluster.Run with a traced
// one until the budget is spent.
func traceServiceWorkload(out *bufio.Writer, seed uint64, budget time.Duration, spansPath string) report {
	cfg := serviceConfig(seed, serviceJobs)
	chk := newChecker("service", seed)
	var rep report
	var passes []map[string]float64
	var last *recorder
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < budget; n++ {
		rep.attempted += 2 * cfg.Jobs
		plain, err := runService(cfg)
		if err != nil {
			fmt.Fprintf(out, "untraced service run failed: %v\n", err)
			rep.failed += 2 * cfg.Jobs
			continue
		}
		want := plain.res.CompletionHash()
		if chk.check([]uint64{want}) != 0 {
			rep.failed += cfg.Jobs
		}
		p, res, err := traceService(cfg)
		if err != nil {
			fmt.Fprintf(out, "traced service run failed: %v\n", err)
			rep.failed += cfg.Jobs
			continue
		}
		if res.CompletionHash() != want || res.Steps != plain.res.Steps {
			rep.failed += cfg.Jobs
		}
		p.untraced = plain.wall
		passes = append(passes, p.values())
		last = p.rec
	}
	printDigests(out, "service", seed, chk.ref)
	writeSpans(out, last, spansPath)
	fmt.Fprintf(out, "traced: %d passes of %d jobs\n", len(passes), cfg.Jobs)
	rep.values = medianValues(passes)
	return rep
}

func writeSpans(out *bufio.Writer, rec *recorder, path string) {
	if rec == nil {
		return
	}
	if err := rec.writeChrome(path); err != nil {
		fmt.Fprintf(out, "spans not written: %v\n", err)
		return
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(rec.spans), path)
}

// printDigests prints the reference digests in the form goldenDigests
// records them.
func printDigests(out *bufio.Writer, name string, seed uint64, ds []uint64) {
	hex := make([]string, len(ds))
	for i, d := range ds {
		hex[i] = fmt.Sprintf("0x%016x", d)
	}
	fmt.Fprintf(out, "digests %s seed %d: {%s}\n", name, seed, strings.Join(hex, ", "))
}
