#!/usr/bin/env python3
"""Build and run the Draconis simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark program is built
from source with dune (the first run of a fresh checkout compiles the
whole simulator), then run once; its last line of stdout is the result
object.  Any further arguments (--horizon-ms, --force-undrained) go to
the program unchanged; README.md lists them.

Build output goes to stderr, so stdout carries only the report.  The
exit code is the program's: non-zero when the build fails or any
correctness check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "./perfbench/perfbench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
OUT = os.path.join(HERE, "_out")  # dune skips directories starting with "_"
TIMEOUT_S = 175


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        r = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def build():
    # Keep dune's shared cache out of it: the build writes only _build.
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet", TARGET],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return r.returncode == 0 and os.path.isfile(EXE)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = p.parse_known_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", commit(), "--out", OUT] + extra
    # glibc adapts its mmap threshold to the first large frees, so each
    # process either faults in fresh pages for every cluster or reuses
    # freed ones, and set-up times came out bimodal between processes.
    # Fixed thresholds make every process reuse freed memory, as a
    # long-lived process running many clusters does.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="1073741824",
               MALLOC_TRIM_THRESHOLD_="1073741824")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
