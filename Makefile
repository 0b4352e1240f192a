GO ?= go

.PHONY: build test test-short test-race test-allocs test-traced test-sharded bench bench-sim bench-json bench-check fuzz-smoke vet fmt-check ci clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The experiment worker pool shares TDG snapshots across cells; the race
# detector guards that read-only sharing. CI runs this as its own parallel
# job (the `race` job in .github/workflows/ci.yml) so it does not serialize
# behind the plain test step.
test-race:
	$(GO) test -race ./...

# Blocking allocation-contract gate: deterministic testing.AllocsPerRun
# tests (not benchmarks) asserting steady-state allocation bounds for the
# hot paths — the simulator's flow churn and water-filling, the
# partitioner's fmRefine and DAG symmetrization, induced-subgraph
# extraction with a warmed scratch, snapshot Install into pooled runtime
# arenas, a full nil-observer simulated run (the tracing hooks must cost
# nothing when no Observer is configured), the RGP window-partitioning
# pass, a full audited cell through the pooled machine/engine pair, and the
# cluster dispatcher's placement step. A named, blocking CI step (`allocs`
# in ci.yml); a regression fails the build, not just the nightly bench
# trend.
test-allocs:
	$(GO) test -run 'SteadyStateAllocs' -count=1 \
		./internal/sim ./internal/partition ./internal/graph ./internal/rt ./internal/policy \
		./internal/core ./internal/cluster

# Traced-determinism gate: the full determinism golden sweep with a Tracer
# attached to every cell must reproduce the untraced goldens byte for byte
# (tracing observes, never perturbs). Env-gated because it duplicates the
# whole sweep; CI runs it as its own blocking step after `allocs`.
test-traced:
	NUMADAG_TRACED_GOLDEN=1 $(GO) test -run 'TestDeterminismGoldenTraced' -count=1 .

# Sharded-sweep equivalence gate: builds the real cmd/sweep binary and
# drives its distribution modes end to end — 3-shard fan-out + -merge,
# -maxcells interrupt + -resume, and -serve/-join over HTTP — demanding
# JSONL/CSV/table outputs byte-identical to an unsharded run. Env-gated
# because it builds a binary and runs the grid several times; CI runs it as
# its own blocking step (`sharded sweeps` in ci.yml).
test-sharded:
	NUMADAG_SHARDED=1 $(GO) test -run 'TestShardedSweepCLI' -count=1 .

vet:
	$(GO) vet ./...

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

# Mirrors the blocking steps of .github/workflows/ci.yml (the race job runs
# in parallel there; fuzz-smoke is non-blocking and nightly.yml tracks the
# benchmark trajectory).
ci: fmt-check build vet test test-race test-allocs test-traced test-sharded

# Full benchmark families (paper figures + ablations).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Simulator hot-path families only: the Figure-1 runs, the multi-seed sweep
# (TDG-cache) family, plus the sim micro-benchmarks whose allocs/op pin the
# zero-allocation contract.
bench-sim:
	$(GO) test -run '^$$' -bench 'BenchmarkFigure1|BenchmarkAblationSockets|BenchmarkMultiSeedSweep' -benchmem .
	$(GO) test -run '^$$' -bench . -benchmem ./internal/sim/

# Machine-readable perf trajectory: writes BENCH_sim.json. Regenerate (and
# commit) in perf-relevant PRs; the nightly workflow diffs a fresh run
# against the committed file.
bench-json:
	./scripts/bench_sim.sh

# Re-runs the benchmark families and fails on allocs/op regressions against
# the committed BENCH_sim.json — what .github/workflows/nightly.yml runs on
# schedule.
bench-check:
	./scripts/bench_sim.sh BENCH_sim.new.json
	./scripts/bench_check.sh BENCH_sim.new.json BENCH_sim.json
	rm -f BENCH_sim.new.json

# Short coverage-guided fuzz of the FM refiner (gain-bucket vs heap
# reference), the fluid network's full-vs-incremental reallocation contract
# (batched CSR/worklist fill vs the eager naive ladder), and the cluster's
# arrival/dispatch loop (bursty same-instant arrivals, zero-length jobs and
# tenant-skewed rates must never stall or reorder the shared clock), and
# the shard wire decoders (no panic on arbitrary bytes; every accepted line
# re-encodes byte for byte). The seed corpora also run in plain `make test`;
# CI uploads any new crashers as workflow artifacts.
fuzz-smoke:
	$(GO) test -fuzz=FuzzFMRefine -fuzztime=15s ./internal/partition
	$(GO) test -fuzz=FuzzReallocate -fuzztime=15s ./internal/sim
	$(GO) test -fuzz=FuzzArrivals -fuzztime=15s ./internal/cluster
	$(GO) test -fuzz=FuzzDecode -fuzztime=15s ./internal/shard

# BENCH_sim.json is tracked (the perf trajectory across PRs) and must
# survive a clean.
clean:
	rm -f BENCH_sim.new.json *.test *.out *.prof
