#!/usr/bin/env python3
"""Build and run the repo benchmark for one workload.

    python3 perfbench/run.py --workload serve-quant-4card --seed 1 \
        --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles the tfacc library from
src/) in Release mode into .bench_build/ at the repository root, then runs
the requested workload. Build output goes to stderr; the last line of
stdout is the benchmark's JSON result. The exit code is non-zero when the
build fails, a correctness check fails, or the run exceeds its time limit.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("serve-quant-4card", "serve-accel-1card", "resblock-paper")
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark binary; exits non-zero if that is impossible."""
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "scheduler.hpp")):
        sys.exit("perfbench: no tfacc sources under src/ beside perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
