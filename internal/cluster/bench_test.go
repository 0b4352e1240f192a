package cluster

import (
	"testing"

	"numadag/internal/apps"
	"numadag/internal/machine"
	"numadag/internal/rt"
	"numadag/internal/sim"
	"numadag/internal/xrand"
)

// benchConfig is a steady-pressure service scenario: four machines, three
// tenants, short DAG jobs arriving fast enough to keep queues non-trivial.
func benchConfig(jobs int) Config {
	return Config{
		Machines: 4,
		Machine:  machine.TwoSocketXeon(),
		Policy:   "LAS",
		Runtime:  rt.DefaultOptions(),
		Scale:    apps.Tiny,
		Tenants: []Tenant{
			{Name: "a", Specs: []string{"noop?tasks=4&flops=4096"}, Process: "poisson", Rate: 3000},
			{Name: "b", Specs: []string{"forkjoin?depth=2&fanout=2"}, Process: "poisson", Rate: 1500},
			{Name: "c", Specs: []string{"noop?tasks=1&flops=1024"}, Process: "diurnal",
				Rate: 2000, Amplitude: 0.5, Period: sim.Millisecond},
		},
		Jobs: jobs,
		Seed: 9,
	}
}

// BenchmarkClusterTick measures the full service loop — arrival, dispatch,
// runtime install/start, completion bookkeeping, streaming stats — as
// amortized cost per job. The sim-us/job metric tracks how much simulated
// service time each real microsecond buys.
func BenchmarkClusterTick(b *testing.B) {
	const jobs = 256
	cfg := benchConfig(jobs)
	if _, err := Run(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var makespan sim.Time
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		makespan = res.Makespan
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*jobs), "ns/job")
	b.ReportMetric(float64(makespan)/1e6, "sim-ms/run")
}

// benchFleetConfig is the fleet-scale flush scenario: `machines` machines
// and a trace tenant submitting machine-wide bursts at identical instants,
// spread one-per-machine by the idle dispatcher under the RNG-free DFIFO
// policy — so every burst makes every machine's Net reallocate in the same
// end-of-instant flush.
func benchFleetConfig(machines, rounds int) Config {
	burst := make([]sim.Time, 0, machines*rounds)
	for r := 0; r < rounds; r++ {
		at := sim.Time(r) * 200 * sim.Microsecond
		for i := 0; i < machines; i++ {
			burst = append(burst, at)
		}
	}
	return Config{
		Machines: machines,
		Machine:  machine.TwoSocketXeon(),
		Policy:   "DFIFO",
		Runtime:  rt.DefaultOptions(),
		Scale:    apps.Tiny,
		Tenants: []Tenant{
			{Name: "burst", Specs: []string{"forkjoin?depth=2&fanout=2"}, Process: "trace", Trace: burst},
		},
		Jobs:       machines * rounds,
		Seed:       9,
		Dispatcher: "idle",
	}
}

// BenchmarkClusterTickFleet is BenchmarkClusterTick at fleet scale (64
// machines, lockstep bursts): the cost of one engine flushing many Nets per
// instant.
func BenchmarkClusterTickFleet(b *testing.B) {
	const machines, rounds = 64, 6
	jobs := machines * rounds
	cfg := benchFleetConfig(machines, rounds)
	if _, err := Run(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var makespan sim.Time
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		makespan = res.Makespan
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*jobs), "ns/job")
	b.ReportMetric(float64(makespan)/1e6, "sim-ms/run")
}

// BenchmarkDispatch isolates the placement decision: Pick + the paired
// load updates, on a 1024-machine fleet with a churning load vector.
func BenchmarkDispatch(b *testing.B) {
	const fleet = 1024
	for _, spec := range []string{"kchoices?d=2", "idle"} {
		b.Run(spec, func(b *testing.B) {
			d, err := NewDispatcher(spec)
			if err != nil {
				b.Fatal(err)
			}
			d.Init(fleet, xrand.New(1))
			// Ring of in-flight placements: place one job per iteration and
			// complete the oldest once 4k are in flight, so loads churn
			// without underflowing any machine.
			ring := make([]int, 4096)
			head, count := 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := d.Pick()
				d.Update(m, +1)
				if count == len(ring) {
					d.Update(ring[head], -1)
				} else {
					count++
				}
				ring[head] = m
				head = (head + 1) % len(ring)
			}
		})
	}
}
