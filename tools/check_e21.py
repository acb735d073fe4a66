#!/usr/bin/env python3
"""CI gate over the E21 MVCC section of BENCH_server.json.

Two checks, both on hosts with >= 4 cores that are not host_bounded:

  1. scaling_4v1 >= 1.5: lock-free reads must scale with workers; a
     regression here means readers serialize somewhere again.
  2. read_p99_ratio: reader p99 under a 400-write-transaction churn
     writer, relative to reader-only. Target is <= 1.2; we warn above
     that and only fail above 1.5 because shared CI runners are noisy.

Usage: check_e21.py path/to/BENCH_server.json
"""

import json
import sys

SCALING_FLOOR = 1.5
RATIO_TARGET = 1.2
RATIO_CEILING = 1.5


def main(argv):
    if len(argv) != 2:
        print(f"usage: {argv[0]} BENCH_server.json", file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as f:
        bench = json.load(f)

    e21 = bench.get("e21")
    if e21 is None:
        print("FAIL: no 'e21' section in bench output", file=sys.stderr)
        return 1

    failures = []

    cores = bench.get("hardware_concurrency", 0)
    host_bounded = bool(e21.get("host_bounded", cores < 4))
    if host_bounded or cores < 4:
        print(
            f"skip: scaling/latency gates (host has {cores} hardware "
            "threads; E21 marked host_bounded)"
        )
    else:
        scaling = float(e21.get("scaling_4v1", 0.0))
        if scaling < SCALING_FLOOR:
            failures.append(
                f"scaling_4v1 = {scaling:.2f} (floor {SCALING_FLOOR}): "
                "read throughput no longer scales with workers"
            )
        else:
            print(f"ok: scaling_4v1 = {scaling:.2f} (floor {SCALING_FLOOR})")

        ratio = float(e21.get("read_p99_ratio", 0.0))
        if ratio > RATIO_CEILING:
            failures.append(
                f"read_p99_ratio = {ratio:.2f} (ceiling {RATIO_CEILING}): "
                "writer churn is back in the read latency path"
            )
        elif ratio > RATIO_TARGET:
            print(
                f"warn: read_p99_ratio = {ratio:.2f} above the "
                f"{RATIO_TARGET} target (tolerated up to {RATIO_CEILING} "
                "for runner noise)"
            )
        else:
            print(f"ok: read_p99_ratio = {ratio:.2f} (target {RATIO_TARGET})")

    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
