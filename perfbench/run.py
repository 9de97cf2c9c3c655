#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper-read --seed 1 --seconds 20 --trace 0

The Go build cache, the binary and each run's scratch state live under
.bench_build/ in the repository root, so the benchmark reads and writes
nothing outside the checkout. All arguments are passed to the benchmark
binary; its exit status is returned.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def main():
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=BUILD,
        GOWORK="off",
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    build = subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=os.path.join(ROOT, "perfbench"),
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
