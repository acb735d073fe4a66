#!/usr/bin/env python3
"""Builds and runs the taxonomic serving benchmark.

Run from the root of a source tree:

    python3 taxbench/run.py --workload hot --seed 1 --seconds 10 --trace 0

Builds the engine libraries and the `taxbench` program (Release) into
`$CARGO_TARGET_DIR/taxbench` (default `.bench_build/taxbench`), then runs one
workload and prints its result as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end figures (p50_ms, p99_ms,
cpu_us_per_op, setup_s); with `--trace 1` they are the per-layer split.
Build logs and progress go to standard error. Exits non-zero, printing no
result, when the build or the run fails or the run's output is malformed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("hot", "uncached", "churn")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds taxbench; returns its path or None."""
    steps = (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "taxbench", "-j", "4"],
    )
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            return None
    return os.path.join(build_dir, "taxbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"))
    binary = build(os.path.join(target, "taxbench"))
    if binary is None:
        return 1
    workdir = os.path.join(target, "taxbench-run")
    os.makedirs(workdir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run timed out")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        log("taxbench exited with %d" % proc.returncode)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("no result line in taxbench output")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result: %s" % lines[-1])
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
