GO ?= go

.PHONY: build test test-short test-race test-allocs test-traced test-sharded bench bench-sim bench-json bench-check bench-ab fuzz-smoke vet fmt-check ci clean

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
# hot paths — the simulator's flow churn and water-filling, a fleet step
# (512 Nets on one engine: only the churned Net's flusher may run), the
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
# against the committed file. BENCH_sim.json gates allocs/op only: each
# ns/op in it is one sample, with no host or commit recorded. Timing claims
# come from perfbench (perfbench/run.py), as alternating parent/change
# pairs on one host.
bench-json:
	./scripts/bench_sim.sh

# Re-runs the benchmark families and fails on allocs/op regressions against
# the committed BENCH_sim.json — what .github/workflows/nightly.yml runs on
# schedule. Only allocs/op gates: the committed ns/op values are single
# samples from an unrecorded host and commit, so ns/op drift only warns;
# timing claims come from perfbench alternating parent/change pairs.
bench-check:
	./scripts/bench_sim.sh BENCH_sim.new.json
	./scripts/bench_check.sh BENCH_sim.new.json BENCH_sim.json
	rm -f BENCH_sim.new.json

# Timing A/B on the repository benchmark: perfbench at revision BASE (default
# HEAD) against the working tree, PAIRS (default 10) alternating pairs of
# runs of WORKLOAD (default figure1) at SEED (default 1). Prints every pair,
# then per metric both medians, the base IQR and the change's win count.
# The base tree is exported under .bench_build/ab/; nothing is downloaded.
# This is the protocol every timing claim uses (see scripts/bench_ab.py).
BASE ?= HEAD
WORKLOAD ?= figure1
PAIRS ?= 10
SEED ?= 1
bench-ab:
	python3 scripts/bench_ab.py --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS) --seed $(SEED)

# Short coverage-guided fuzz of the FM refiner (gain-bucket vs heap
# reference), the fluid network's full-vs-incremental reallocation contract
# (batched incremental fill vs the eager naive ladder, every state checked
# for max-min optimality), the engine's Feed streams (identical to a loop of
# At: order, Now, Steps and Pending after every step), the cluster's
# arrival/dispatch loop (bursty same-instant arrivals, zero-length jobs and
# tenant-skewed rates must never stall or reorder the shared clock), the
# dcsim -tenants grammar (no panic; every accepted arrival stream sorted
# from time 0, as Feed requires), the shard wire decoders (no panic on
# arbitrary bytes; every accepted line re-encodes byte for byte), the
# workload spec parser (no panic; every accepted spec round-trips through
# its canonical rendering), the file workload's DAG import (no panic;
# every accepted graph's edges, weights and labels survive the replay
# through the runtime's dependence tracker), the journal's resume path
# (no panic on arbitrary file bytes; an accepted journal reopens to the
# same done set and file bytes, and loses no accepted record line), and the
# memory regions' residency descriptor (random Alloc/Touch/Migrate/Reset
# sequences against a per-page reference model: residency, byte sums and
# the bytes Touch and Migrate report). The
# seed corpora also run in plain `make test`; CI uploads any new crashers
# as workflow artifacts.
fuzz-smoke:
	$(GO) test -fuzz=FuzzFMRefine -fuzztime=15s ./internal/partition
	$(GO) test -fuzz=FuzzReallocate -fuzztime=15s ./internal/sim
	$(GO) test -fuzz=FuzzFeed -fuzztime=15s ./internal/sim
	$(GO) test -fuzz=FuzzParseTenants -fuzztime=15s ./cmd/dcsim
	$(GO) test -fuzz=FuzzArrivals -fuzztime=15s ./internal/cluster
	$(GO) test -fuzz=FuzzDecode -fuzztime=15s ./internal/shard
	$(GO) test -fuzz=FuzzOpenJournal -fuzztime=15s ./internal/shard
	$(GO) test -fuzz=FuzzParseSpec -fuzztime=15s ./internal/workload
	$(GO) test -fuzz=FuzzImportDAG -fuzztime=15s ./internal/workload
	$(GO) test -fuzz=FuzzRegionOps -fuzztime=15s ./internal/memory

# BENCH_sim.json is tracked (the perf trajectory across PRs) and must
# survive a clean.
clean:
	rm -f BENCH_sim.new.json *.test *.out *.prof
