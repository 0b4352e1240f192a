// Command dcsim runs the simulator in online multi-tenant service mode: an
// open-loop arrival process submits DAG jobs from several tenants to a
// fleet of NUMA machines sharing one simulated clock, a dispatcher places
// each job, and the run reports tail-latency slowdowns against the IdealDC
// fluid model, per-tenant fairness and cluster utilization.
//
// Usage:
//
//	dcsim -machines 8 -jobs 500
//	dcsim -dispatcher idle -policy RGP+LAS -seed 7
//	dcsim -tenants "web:poisson:4000:noop?tasks=4,hpc:diurnal:500:forkjoin?depth=5" -jobs 1000
//	dcsim -machines 16 -machine bullion -jsonl jobs.jsonl
//	dcsim -trace run.json            # Chrome trace (load in Perfetto)
//	dcsim -http :8080                # live monitor: /status JSON, /trace
//
// The -tenants grammar is comma-separated tenant declarations of the form
//
//	name:process:rate:spec[|spec...]
//
// where process is poisson or diurnal and rate is jobs per simulated
// second. Omitting -tenants uses a four-tenant default mix whose total
// arrival rate is set by -rate. Workload specs are the same registry specs
// every other command accepts (see cmd/dagen -list).
//
// A fixed -seed makes the whole run — arrivals, dispatch, scheduling —
// bit-identical across repeats and across -procs values. -procs only fans
// out the one-time task-graph prebuilds; the simulation itself runs on one
// engine goroutine.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"numadag/internal/cliutil"
	"numadag/internal/cluster"
	"numadag/internal/rt"
	"numadag/internal/sim"
)

func main() {
	var (
		machines = flag.Int("machines", 8, "fleet size")
		machF    = cliutil.MachineFlag(flag.CommandLine, "2socket")
		policyF  = flag.String("policy", "LAS", "per-job scheduling policy spec")
		dispF    = flag.String("dispatcher", "kchoices?d=2", "dispatcher spec (kchoices?d=K, idle)")
		scale    = cliutil.ScaleFlag(flag.CommandLine, "tiny")
		jobs     = flag.Int("jobs", 500, "arrival stream length")
		seed     = flag.Uint64("seed", 1, "base seed (tenants, dispatch, per-job runtimes)")
		procs    = flag.Int("procs", 1, "task-graph prebuild workers (never affects results)")
		rate     = flag.Float64("rate", 7000, "total arrival rate for the default tenant mix, jobs/s")
		tenantsF = flag.String("tenants", "", "tenant declarations: name:process:rate:spec|spec,...")
		outputs  = cliutil.BindOutputs(flag.CommandLine, true)
		audit    = flag.Bool("audit", false, "audit every job's schedule against TDG semantics")
		traceOut = cliutil.BindTrace(flag.CommandLine)
		httpF    = flag.String("http", "", "serve the live monitor on this address (e.g. :8080): /status JSON, /trace snapshot")
		lingerF  = flag.Duration("http-linger", 0, "with -http: keep serving the monitor this long after the run ends, so a scraper can read the final snapshot")
	)
	flag.Parse()

	sc, err := scale()
	if err != nil {
		fatal(err)
	}
	mc, err := machF()
	if err != nil {
		fatal(err)
	}
	tenants, err := parseTenants(*tenantsF, *rate)
	if err != nil {
		fatal(err)
	}

	cfg := cluster.Config{
		Machines:   *machines,
		Machine:    mc,
		Policy:     *policyF,
		Runtime:    rt.DefaultOptions(),
		Scale:      sc,
		Tenants:    tenants,
		Jobs:       *jobs,
		Seed:       *seed,
		Dispatcher: *dispF,
		Procs:      *procs,
		Audit:      *audit,
	}
	// The monitor's /trace endpoint serves the tracer's snapshot, so -http
	// implies tracing even without a -trace output file.
	cfg.Trace = traceOut.Enable(*httpF != "")
	if *httpF != "" {
		mon := cluster.NewMonitor(cfg.Trace)
		cfg.Monitor = mon
		ln, err := net.Listen("tcp", *httpF)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dcsim: live monitor on http://%s (/status, /trace)\n", ln.Addr())
		go func() {
			// Serve returns ErrClosed on a clean listener close at exit;
			// anything else (port stolen, accept failure) must be surfaced,
			// not dropped — a dead monitor that looks alive is worse than
			// none.
			if err := http.Serve(ln, mon.Handler()); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintln(os.Stderr, "dcsim: monitor:", err)
			}
		}()
	}

	sinks, err := outputs.Sinks()
	if err != nil {
		fatal(err)
	}
	defer outputs.Close()

	res, err := cluster.Run(cfg, sinks...)
	if err != nil {
		fatal(err)
	}
	if err := traceOut.Write(); err != nil {
		fatal(err)
	}
	if err := res.Stats.SummaryTable().Write(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Printf("\n%s\n", res.Stats.Summary())
	fmt.Printf("makespan %v, %d engine steps, %.0f bytes moved, completion hash %016x\n",
		res.Makespan, res.Steps, res.TotalBytes, res.CompletionHash())
	if *httpF != "" && *lingerF > 0 {
		// Without the linger the process exits the instant the run ends and
		// the monitor dies with the final snapshot unread.
		fmt.Fprintf(os.Stderr, "dcsim: run complete; monitor lingering %v\n", *lingerF)
		time.Sleep(*lingerF)
	}
}

// parseTenants decodes the -tenants grammar, or returns the default
// four-tenant mix (rates split 4:2:1 across interactive/batch/science plus
// a three-entry cron trace) at the given total rate.
func parseTenants(spec string, totalRate float64) ([]cluster.Tenant, error) {
	if spec == "" {
		if totalRate <= 0 {
			return nil, fmt.Errorf("-rate must be positive")
		}
		return []cluster.Tenant{
			{Name: "interactive", Specs: []string{"noop?tasks=4&flops=4096", "noop?tasks=1&flops=1024"},
				Process: "diurnal", Rate: totalRate * 4 / 7, Amplitude: 0.6, Period: 200 * sim.Millisecond},
			{Name: "batch", Specs: []string{"forkjoin?depth=2&fanout=2", "random-layered?layers=3&width=4"},
				Process: "poisson", Rate: totalRate * 2 / 7},
			{Name: "science", Specs: []string{"random-layered?layers=4&width=3&fan=2"},
				Process: "poisson", Rate: totalRate / 7},
			{Name: "cron", Specs: []string{"noop?tasks=0"},
				Process: "trace", Trace: []sim.Time{0, sim.Millisecond, 50 * sim.Millisecond}},
		}, nil
	}
	var tenants []cluster.Tenant
	for _, decl := range strings.Split(spec, ",") {
		parts := strings.SplitN(decl, ":", 4)
		if len(parts) != 4 {
			return nil, fmt.Errorf("tenant %q: want name:process:rate:spec|spec", decl)
		}
		r, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, fmt.Errorf("tenant %q: bad rate %q", parts[0], parts[2])
		}
		tenants = append(tenants, cluster.Tenant{
			Name:    parts[0],
			Process: parts[1],
			Rate:    r,
			Specs:   strings.Split(parts[3], "|"),
		})
	}
	return tenants, nil
}

func fatal(err error) {
	cliutil.Fatal("dcsim", err)
}
