#!/bin/sh
# Compares a fresh BENCH_sim.json against a committed baseline and fails on
# allocs/op regressions: any benchmark whose allocs/op grew by more than 2%
# (or became non-zero when the baseline pins 0 — the simulator and refiner
# zero-allocation contracts) fails the check. ns/op is reported for context
# but never gates: wall-clock numbers are too machine-dependent for CI,
# allocation counts are not. ns/op drift beyond BENCH_NSOP_DRIFT_PCT percent
# (default 25, 0 disables) is printed as a warning so large wall-clock swings
# are visible in the nightly log without flaking the build.
#
# Usage: scripts/bench_check.sh candidate.json baseline.json
set -e
candidate="${1:?usage: bench_check.sh candidate.json baseline.json}"
baseline="${2:?usage: bench_check.sh candidate.json baseline.json}"
drift="${BENCH_NSOP_DRIFT_PCT:-25}"

extract() {
  # name allocs_per_op, one per line; benchmarks without allocs are skipped.
  # The GOMAXPROCS suffix is stripped (bench_sim.sh strips it when writing
  # too) so baselines generated on one core count compare against runs on
  # another.
  tr ',' '\n' < "$1" | tr -d ' "{}[]' | awk -F: '
    $1 == "name"          { name = $2; sub(/-[0-9]+$/, "", name) }
    $1 == "allocs_per_op" { if (name != "") print name, $2; name = "" }
  '
}

extract_nsop() {
  # name ns_per_op, one per line (ns_per_op directly follows name in the
  # emitted JSON).
  tr ',' '\n' < "$1" | tr -d ' "{}[]' | awk -F: '
    $1 == "name"      { name = $2; sub(/-[0-9]+$/, "", name) }
    $1 == "ns_per_op" { if (name != "") print name, $2; name = "" }
  '
}

extract "$baseline" > /tmp/bench_base.$$
extract "$candidate" > /tmp/bench_cand.$$

# Warn-only wall-clock drift report.
if [ "$drift" != "0" ]; then
  extract_nsop "$baseline" > /tmp/bench_base_ns.$$
  extract_nsop "$candidate" > /tmp/bench_cand_ns.$$
  while read -r name ns; do
    base=$(awk -v n="$name" '$1 == n { print $2 }' /tmp/bench_base_ns.$$)
    [ -z "$base" ] && continue
    awk -v n="$name" -v a="$ns" -v b="$base" -v d="$drift" 'BEGIN {
      if (b > 0 && (a > b * (1 + d / 100) || a < b * (1 - d / 100)))
        printf "warning: ns/op drift: %s %s -> %s (> %s%%, not gating)\n", n, b, a, d
    }'
  done < /tmp/bench_cand_ns.$$
  rm -f /tmp/bench_base_ns.$$ /tmp/bench_cand_ns.$$
fi

status=0
while read -r name allocs; do
  base=$(awk -v n="$name" '$1 == n { print $2 }' /tmp/bench_base.$$)
  if [ -z "$base" ]; then
    echo "new benchmark (no baseline): $name allocs/op=$allocs"
    continue
  fi
  bad=$(awk -v a="$allocs" -v b="$base" 'BEGIN {
    if (b == 0) print (a > 0) ? 1 : 0
    else        print (a > b * 1.02) ? 1 : 0
  }')
  if [ "$bad" = "1" ]; then
    echo "ALLOCS REGRESSION: $name allocs/op $base -> $allocs" >&2
    status=1
  fi
done < /tmp/bench_cand.$$

missing=$(awk 'NR == FNR { seen[$1] = 1; next } !($1 in seen) { print $1 }' \
  /tmp/bench_cand.$$ /tmp/bench_base.$$)
if [ -n "$missing" ]; then
  echo "benchmarks missing from candidate run:" >&2
  echo "$missing" >&2
  status=1
fi

rm -f /tmp/bench_base.$$ /tmp/bench_cand.$$
if [ "$status" = "0" ]; then
  echo "bench-check: no allocs/op regressions against $baseline"
fi
exit $status
