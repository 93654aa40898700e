#!/usr/bin/env python3
"""Build and run the end-to-end Session benchmark.

    python3 perfbench/run.py --workload cold_open --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
library and the benchmark (Release) under `.bench_build/perfbench`; later
runs only rebuild what changed. Build output goes to stderr, the
benchmark's report to stdout, ending with one JSON line whose metric names
are checked against BENCHMARK.json before it is printed. Exits non-zero,
without a result, when the build fails, the run fails or times out, or the
metric names disagree.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The build root: $CARGO_TARGET_DIR when set (relative to the repository
# root), else .bench_build; the benchmark builds in its perfbench/ subdir.
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                     "perfbench")
WORKLOADS = ("cold_open", "delta_stream", "serve_mixed")
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as err:
            print(f"perfbench: cannot run {cmd[0]}: {err}", file=sys.stderr)
            return False
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            print("perfbench: build failed", file=sys.stderr)
            return False
    return True


def expected_metrics(traced):
    """Metric names BENCHMARK.json promises for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not build():
        return 1
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: benchmark exited {proc.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace == "1")
    if sorted(result["metrics"]) != sorted(want):
        sys.stderr.write(proc.stdout)
        print("perfbench: metric names disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
