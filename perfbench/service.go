package main

import (
	"fmt"
	"time"

	"numadag/internal/apps"
	"numadag/internal/cluster"
	"numadag/internal/machine"
	"numadag/internal/policy"
	"numadag/internal/rt"
	"numadag/internal/sim"
)

// serviceJobs is the arrival-stream length of one cluster.Run. About a
// second of host time: long enough for the fleet to reach its steady queue,
// short enough that a run holds a dozen of them to take the median over.
const serviceJobs = 50000

// serviceConfig is cmd/dcsim's default setup (8 two-socket machines, tiny
// scale, LAS, kchoices?d=2, one flush and prebuild worker) with every job
// audited, driven at 200,000 jobs/s: about 29% utilisation, where jobs
// queue and the dispatcher matters, unlike dcsim's idle default rate.
func serviceConfig(seed uint64, jobs int) cluster.Config {
	return cluster.Config{
		Machines:    8,
		Machine:     machine.TwoSocketXeon(),
		Policy:      "LAS",
		Runtime:     rt.DefaultOptions(),
		Scale:       apps.Tiny,
		Tenants:     dcsimTenants(200000),
		Jobs:        jobs,
		Seed:        seed,
		Dispatcher:  "kchoices?d=2",
		Procs:       1,
		Parallelism: 1,
		Audit:       true,
	}
}

// dcsimTenants is cmd/dcsim's default four-tenant mix (rates split 4:2:1
// plus a three-job cron trace) at the given total rate. It is repeated here
// because a main package cannot be imported.
func dcsimTenants(totalRate float64) []cluster.Tenant {
	return []cluster.Tenant{
		{Name: "interactive", Specs: []string{"noop?tasks=4&flops=4096", "noop?tasks=1&flops=1024"},
			Process: "diurnal", Rate: totalRate * 4 / 7, Amplitude: 0.6, Period: 200 * sim.Millisecond},
		{Name: "batch", Specs: []string{"forkjoin?depth=2&fanout=2", "random-layered?layers=3&width=4"},
			Process: "poisson", Rate: totalRate * 2 / 7},
		{Name: "science", Specs: []string{"random-layered?layers=4&width=3&fan=2"},
			Process: "poisson", Rate: totalRate / 7},
		{Name: "cron", Specs: []string{"noop?tasks=0"},
			Process: "trace", Trace: []sim.Time{0, sim.Millisecond, 50 * sim.Millisecond}},
	}
}

// serviceProbe observes a cluster.Run from outside. The first JobSubmit
// ends set-up; in a traced run it also closes the set-up span and the
// install span the timed policy factory opened for the job being started.
type serviceProbe struct {
	rec         *recorder // nil in the untraced run
	submitted   bool
	firstSubmit time.Time
	submitCPU   float64
	setupSpan   int
	installSpan int
	peakQueue   int
	queuedSum   int
	dispatches  int
}

func newServiceProbe(rec *recorder) *serviceProbe {
	return &serviceProbe{rec: rec, setupSpan: -1, installSpan: -1}
}

func (p *serviceProbe) JobSubmit(*cluster.Job) {
	if !p.submitted {
		p.submitted = true
		p.firstSubmit, p.submitCPU = time.Now(), cpuSeconds()
		p.rec.end(p.setupSpan)
	}
}

func (p *serviceProbe) JobDispatch(_ *cluster.Job, _ []int, queued int) {
	p.dispatches++
	p.queuedSum += queued
	p.peakQueue = max(p.peakQueue, queued)
}

func (p *serviceProbe) JobStart(j *cluster.Job, _ int) {
	if p.installSpan >= 0 {
		p.rec.spans[p.installSpan].id = j.ID
		p.rec.end(p.installSpan)
		p.installSpan = -1
	}
}

func (p *serviceProbe) JobComplete(*cluster.Job) {}

// serviceRun is one untraced cluster.Run, timed in process CPU seconds
// and in wall time.
type serviceRun struct {
	setup, loop float64       // CPU: call to first JobSubmit, then to return
	wall        time.Duration // the whole call
	loopWall    time.Duration // first JobSubmit to return
	res         *cluster.Result
}

// runService runs the fleet through cluster.Run, the path cmd/dcsim takes.
func runService(cfg cluster.Config) (serviceRun, error) {
	probe := newServiceProbe(nil)
	cfg.Observer = probe
	start, cpu0 := time.Now(), cpuSeconds()
	res, err := cluster.Run(cfg)
	end, cpu1 := time.Now(), cpuSeconds()
	if err != nil {
		return serviceRun{}, err
	}
	return serviceRun{
		setup:    probe.submitCPU - cpu0,
		loop:     cpu1 - probe.submitCPU,
		wall:     end.Sub(start),
		loopWall: end.Sub(probe.firstSubmit),
		res:      res,
	}, nil
}

// timedPolicies counts the timing policies registered so far; each traced
// pass registers its own under a fresh name.
var timedPolicies int

// traceService runs the fleet with the policy behind the timing wrapper
// (registered in the policy registry, since cluster.Run instantiates one
// policy per job by name) and a probe observer. cluster.Arrivals is timed
// by a call of its own with the same arguments.
func traceService(cfg cluster.Config) (*tracedPass, *cluster.Result, error) {
	rec := newRecorder()
	p := &tracedPass{rec: rec, c: newLayerCounts(rec)}
	probe := newServiceProbe(rec)
	timedPolicies++
	name := fmt.Sprintf("perfbench-timed-%d", timedPolicies)
	inner := cfg.Policy
	err := policy.Register(name, func(s policy.Spec) (rt.Policy, error) {
		if err := s.Only(); err != nil {
			return nil, err
		}
		// cluster.Run calls the factory right before NewRuntime and
		// Install; JobStart fires right after them.
		probe.installSpan = rec.begin("rt.install", -1)
		pol, err := policy.New(inner)
		if err != nil {
			return nil, err
		}
		return wrapPolicy(pol, p.c)
	})
	if err != nil {
		return nil, nil, err
	}
	cfg.Policy = name
	cfg.Observer = probe

	gc0 := readGC()
	start := time.Now()
	i := rec.begin("cluster.arrivals", -1)
	if _, err := cluster.Arrivals(cfg.Tenants, cfg.Seed, cfg.Jobs); err != nil {
		return nil, nil, err
	}
	rec.end(i)
	top := rec.begin("cluster.run", -1)
	probe.setupSpan = rec.begin("cluster.setup", -1)
	res, err := cluster.Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	rec.end(top)
	p.wall = time.Since(start)
	p.gc = readGC().sub(gc0)

	p.loopNs = rec.duration("cluster.run") - rec.duration("cluster.setup")
	p.steps = int64(res.Steps)
	p.jobs = int64(len(res.Jobs))
	p.peakQueue = probe.peakQueue
	p.meanQueue = ratio(float64(probe.queuedSum), float64(probe.dispatches))
	for _, j := range res.Jobs {
		p.tasks += int64(j.Stats.TasksRun)
		p.steals += int64(j.Stats.Steals)
		p.deferred += int64(j.Stats.Deferred)
	}
	return p, res, nil
}
