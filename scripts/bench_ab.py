#!/usr/bin/env python3
"""A/B the repository benchmark: a base revision against the working tree.

Run from the repository root (or through `make bench-ab`):

    python3 scripts/bench_ab.py --base <rev> --workload figure1 --pairs 10 --seed 1

The base revision is exported with `git archive` into
.bench_build/ab/<commit>/, so the comparison never touches the working
tree or the repository's worktree list; the change side is the working
tree itself, uncommitted edits included. Each side runs through its own
perfbench/run.py, which builds the benchmark from that side's source, at
perfbench's default run length and untraced. The runs alternate, base
first in even pairs and change first in odd ones, so host drift hits both
sides alike.

Output: every pair's metrics, then per metric each side's quartiles and
median, the median change, the interquartile range of the base runs, and
how many pairs the change won (ties count for neither side). A gain is
credible when the change wins at least nine pairs in ten and the median
moves by more than the base IQR. Nothing is downloaded; the result JSON is
read from each run's last output line.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

# Direction of each end-to-end metric (BENCHMARK.json's "better").
HIGHER = {"cells_per_s", "jobs_per_s"}


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def export(rev):
    """Exports rev's tree under .bench_build/ab/ and returns its directory."""
    commit = git("rev-parse", "--verify", rev + "^{commit}")
    root = os.path.abspath(os.path.join(".bench_build", "ab", commit))
    if not os.path.isfile(os.path.join(root, "perfbench", "run.py")):
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root)
        archive = subprocess.Popen(["git", "archive", commit], stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", root], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit(f"bench-ab: git archive {rev} failed")
    return root, commit[:12]


def run(root, args):
    """Runs one perfbench pass in root and returns its metrics dict."""
    out = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                         cwd=root, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        sys.exit(f"bench-ab: perfbench in {root} exited {out.returncode}")
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed"):
        sys.exit(f"bench-ab: perfbench in {root} reported incorrect results: {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="base revision")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    a = ap.parse_args()
    if a.pairs < 2:
        sys.exit("bench-ab: need at least 2 pairs")
    os.chdir(git("rev-parse", "--show-toplevel"))
    base, base_id = export(a.base)
    new = os.getcwd()
    args = ["--workload", a.workload, "--seed", str(a.seed)]
    print(f"bench-ab {a.workload} seed {a.seed}: base {base_id} vs the working tree, {a.pairs} pairs")
    runs = {"base": [], "new": []}
    for i in range(a.pairs):
        order = [("base", base), ("new", new)]
        if i % 2:
            order.reverse()
        for side, root in order:
            runs[side].append(run(root, args))
        print(f"pair {i + 1}: " + "  ".join(
            f"{m} {runs['base'][-1][m]:.4g} -> {runs['new'][-1][m]:.4g}" for m in sorted(runs["base"][-1])),
            flush=True)
    print(f"{'metric':<12} {'side':<5} {'q1':>12} {'median':>12} {'q3':>12}")
    for m in sorted(runs["base"][0]):
        for side in ("base", "new"):
            q1, q3 = quartiles([r[m] for r in runs[side]])
            print(f"{m:<12} {side:<5} {q1:>12.4f} {statistics.median(r[m] for r in runs[side]):>12.4f} {q3:>12.4f}")
    print(f"{'metric':<12} {'change':>8} {'base IQR':>10}  wins")
    for m in sorted(runs["base"][0]):
        b = [r[m] for r in runs["base"]]
        n = [r[m] for r in runs["new"]]
        q1, q3 = quartiles(b)
        mb, mn = statistics.median(b), statistics.median(n)
        better = (lambda x, y: x > y) if m in HIGHER else (lambda x, y: x < y)
        wins = sum(better(y, x) for x, y in zip(b, n))
        change = (mn - mb) / mb * 100 if mb else float("nan")
        print(f"{m:<12} {change:>+7.1f}% {q3 - q1:>10.4f}  {wins}/{a.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
