#!/usr/bin/env python3
"""Build the repository benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload figure1 --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark binary (see main.go). The Go
build cache, the binary and the traced run's span files all live under
.bench_build/perfbench in the current directory, so nothing is written
outside it. The exit code is the build's when the build fails (nothing is
printed on standard output then), otherwise the benchmark's.
"""

import os
import subprocess
import sys


def source_commit(root):
    """The commit of the repository at root, or "unknown" outside a clone."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.path.join(".bench_build", "perfbench"))
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."],
        cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        return built.returncode or 1
    return subprocess.run([binary, *sys.argv[1:], "--commit", source_commit(os.path.dirname(here))]).returncode


if __name__ == "__main__":
    sys.exit(main())
