package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric. These lists are the benchmark's
// vocabulary: BENCHMARK.json declares the same names and units, and
// TestMetricNames keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run (-trace 0) prints.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cells_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what a traced run (-trace 1) prints. A layer the workload
// does not reach reads 0.
var perLayer = []metricDef{
	{"sim.steps", "count"},
	{"sim.flows", "count"},
	{"sim.flows_per_step", "ratio"},
	{"sim.ns_per_step", "ns"},
	{"rt.run_self_ms", "ms"},
	{"rt.install_ms", "ms"},
	{"rt.install_ns_per_task", "ns"},
	{"rt.snap_ms", "ms"},
	{"rt.audit_ms", "ms"},
	{"rt.steals", "count"},
	{"rt.deferred", "count"},
	{"partition.prepare_ms", "ms"},
	{"partition.windows", "count"},
	{"partition.tasks", "count"},
	{"partition.us_per_task", "us"},
	{"partition.share", "ratio"},
	{"policy.pick_calls", "count"},
	{"policy.pick_ms", "ms"},
	{"policy.pick_ns_per_call", "ns"},
	{"workload.build_ms", "ms"},
	{"workload.tasks", "count"},
	{"cluster.jobs", "count"},
	{"cluster.peak_queue", "count"},
	{"cluster.mean_queue_at_dispatch", "count"},
	{"cluster.steps_per_job", "ratio"},
	{"cluster.ns_per_step", "ns"},
	{"cluster.arrivals_ms", "ms"},
	{"core.cells", "count"},
	{"core.sink_ms", "ms"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"gc.cpu_frac", "ratio"},
	{"gc.alloc_mb", "MB"},
	{"gc.allocs", "count"},
	{"bench.trace_overhead", "ratio"},
	{"bench.unattributed_ms", "ms"},
}

// layerSpans are the span names whose self time is attributed to a layer;
// whatever else the traced wall holds is bench.unattributed_ms.
var layerSpans = []string{
	"workload.build", "rt.snap", "rt.install", "rt.run", "rt.audit",
	"partition.prepare", "core.sink", "cluster.arrivals", "cluster.run",
}

// tracedPass is what one traced pass of a workload measured.
type tracedPass struct {
	wall     time.Duration // traced pass, host time
	untraced time.Duration // the untraced comparator pass, host time
	rec      *recorder
	c        *layerCounts
	gc       gcStat

	steps, tasks, steals, deferred int64
	cells                          int64 // grid cells simulated
	jobs                           int64 // service jobs completed
	peakQueue                      int
	meanQueue                      float64
	loopNs                         int64 // service: cluster.Run after the first submission
}

// values derives the per-layer metrics of one pass.
func (p *tracedPass) values() map[string]float64 {
	self := p.rec.selfTimes()
	wall := float64(p.wall.Nanoseconds())
	// On grids the engine runs inside Runtime.Run; on service inside
	// cluster.Run's event loop. Exactly one of the two spans exists.
	runSelf := float64(self["rt.run"] + self["cluster.run"])
	install := float64(self["rt.install"])
	prepare := float64(self["partition.prepare"])
	attributed := float64(p.c.pickNs)
	for _, name := range layerSpans {
		attributed += float64(self[name])
	}
	return map[string]float64{
		"sim.steps":                      float64(p.steps),
		"sim.flows":                      float64(p.c.flows),
		"sim.flows_per_step":             ratio(float64(p.c.flows), float64(p.steps)),
		"sim.ns_per_step":                ratio(runSelf, float64(p.steps)),
		"rt.run_self_ms":                 runSelf / 1e6,
		"rt.install_ms":                  install / 1e6,
		"rt.install_ns_per_task":         ratio(install, float64(p.tasks)),
		"rt.snap_ms":                     float64(self["rt.snap"]) / 1e6,
		"rt.audit_ms":                    float64(self["rt.audit"]) / 1e6,
		"rt.steals":                      float64(p.steals),
		"rt.deferred":                    float64(p.deferred),
		"partition.prepare_ms":           prepare / 1e6,
		"partition.windows":              float64(p.c.windows),
		"partition.tasks":                float64(p.c.partTasks),
		"partition.us_per_task":          ratio(prepare/1e3, float64(p.c.partTasks)),
		"partition.share":                ratio(prepare, wall),
		"policy.pick_calls":              float64(p.c.pickCalls),
		"policy.pick_ms":                 float64(p.c.pickNs) / 1e6,
		"policy.pick_ns_per_call":        ratio(float64(p.c.pickNs), float64(p.c.pickCalls)),
		"workload.build_ms":              float64(self["workload.build"]) / 1e6,
		"workload.tasks":                 float64(p.tasks),
		"cluster.jobs":                   float64(p.jobs),
		"cluster.peak_queue":             float64(p.peakQueue),
		"cluster.mean_queue_at_dispatch": p.meanQueue,
		"cluster.steps_per_job":          ratio(float64(p.steps), float64(p.jobs)),
		"cluster.ns_per_step":            ratio(float64(p.loopNs), float64(p.steps)),
		"cluster.arrivals_ms":            float64(self["cluster.arrivals"]) / 1e6,
		"core.cells":                     float64(p.cells),
		"core.sink_ms":                   float64(self["core.sink"]) / 1e6,
		"gc.cycles":                      p.gc.cycles,
		"gc.pause_ms":                    p.gc.pauseSec * 1e3,
		"gc.cpu_frac":                    ratio(p.gc.gcCPU, p.gc.totalCPU),
		"gc.alloc_mb":                    p.gc.allocBytes / (1 << 20),
		"gc.allocs":                      p.gc.allocObjs,
		"bench.trace_overhead":           ratio(wall, float64(p.untraced.Nanoseconds())) - 1,
		"bench.unattributed_ms":          (wall - attributed) / 1e6,
	}
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// gcStat is a reading of the Go runtime's cumulative GC counters.
type gcStat struct {
	cycles, pauseSec, gcCPU, totalCPU, allocBytes, allocObjs float64
}

var gcMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readGC() gcStat {
	samples := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	v := make([]float64, len(samples))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s.Value.Float64()
		case metrics.KindFloat64Histogram:
			v[i] = histogramSum(s.Value.Float64Histogram())
		}
	}
	return gcStat{v[0], v[1], v[2], v[3], v[4], v[5]}
}

// histogramSum estimates the total of a histogram's samples from bucket
// midpoints (an open-ended bucket counts at its finite edge).
func histogramSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, n := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		if math.IsInf(lo, -1) {
			mid = hi
		} else if math.IsInf(hi, 1) {
			mid = lo
		}
		sum += float64(n) * mid
	}
	return sum
}

func (a gcStat) sub(b gcStat) gcStat {
	return gcStat{a.cycles - b.cycles, a.pauseSec - b.pauseSec, a.gcCPU - b.gcCPU,
		a.totalCPU - b.totalCPU, a.allocBytes - b.allocBytes, a.allocObjs - b.allocObjs}
}

// peakRSSMB returns the process's high-water resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds returns the CPU time the process has used so far: user plus
// system, all threads. The throughput and set-up metrics divide by it
// rather than by wall time because it leaves out the time a shared host
// steals from a virtual machine's CPUs, which can swing wall-clock rates
// far more than the program's own variation.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianValues folds the per-pass metric maps into per-metric medians.
func medianValues(passes []map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range perLayer {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = p[m.name]
		}
		out[m.name] = median(xs)
	}
	return out
}
