package main

import (
	"math"
	"slices"
	"testing"

	"numadag/internal/cluster"
)

// FuzzParseTenants feeds arbitrary -tenants and -rate values through the
// tenant grammar and into cluster.Arrivals, as dcsim does before a run.
// Neither may panic: a bad declaration, rate or amplitude is an error. Every
// stream Arrivals accepts must be what the engine's Feed requires of
// cluster.Run's arrivals: jobs numbered by position, with non-negative
// submit times that never decrease. The seed corpus includes a NaN rate,
// which once passed validation and panicked in the arrival merge.
func FuzzParseTenants(f *testing.F) {
	f.Add("", 7000.0, uint64(1))
	f.Add("", math.NaN(), uint64(1))
	f.Add("a:poisson:NaN:noop?tasks=1", 0.0, uint64(1))
	f.Add("a:poisson:+Inf:noop?tasks=1", 0.0, uint64(2))
	f.Add("a:diurnal:-1:noop", 0.0, uint64(3))
	f.Add("a:poisson:1e-300:noop", 0.0, uint64(4))
	f.Add("web:poisson:4000:noop?tasks=4,hpc:diurnal:500:forkjoin?depth=5", 0.0, uint64(5))
	f.Add("a:trace:1:noop|forkjoin,a:poisson:1:noop", 0.0, uint64(6))
	f.Add("a:poisson", 0.0, uint64(7))
	f.Fuzz(func(t *testing.T, spec string, rate float64, seed uint64) {
		tenants, err := parseTenants(spec, rate)
		if err != nil {
			return
		}
		const maxJobs = 64
		jobs, err := cluster.Arrivals(tenants, seed, maxJobs)
		if err != nil {
			return
		}
		if len(jobs) > maxJobs {
			t.Fatalf("%d jobs, asked for at most %d", len(jobs), maxJobs)
		}
		for i := range jobs {
			j := &jobs[i]
			if j.ID != i {
				t.Fatalf("job %d has ID %d", i, j.ID)
			}
			if j.SubmitAt < 0 {
				t.Fatalf("job %d submitted at %v", i, j.SubmitAt)
			}
			if i > 0 && j.SubmitAt < jobs[i-1].SubmitAt {
				t.Fatalf("job %d submitted at %v, before job %d at %v", i, j.SubmitAt, i-1, jobs[i-1].SubmitAt)
			}
			if j.Tenant < 0 || j.Tenant >= len(tenants) || !slices.Contains(tenants[j.Tenant].Specs, j.Spec) {
				t.Fatalf("job %d: tenant %d, spec %q not among its specs", i, j.Tenant, j.Spec)
			}
		}
	})
}
