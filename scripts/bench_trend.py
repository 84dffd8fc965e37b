#!/usr/bin/env python3
"""Leg-by-leg throughput trend gate over two BENCH_sweep.json files.

Usage: bench_trend.py BASELINE FRESH [--threshold 0.30]

Scaling rows are matched on (tier, threads) and per-workload rows
on (workload, tier); only legs present in BOTH files are compared,
so adding or removing a leg never trips the gate.  A fresh leg whose
scenarios_per_s falls more than the threshold below the same
baseline leg emits a GitHub Actions ::warning:: annotation.  The
exit code is always 0: CI hosts are noisy and the committed
baseline may come from different hardware, so the gate surfaces
trends for a human, it does not fail the build.  Only the standard
library is used.
"""

import argparse
import json
import sys


def run_key(row):
    # Rows written while the sweep had an engine knob also carry an
    # "engine" field; it is ignored, so they match current rows.
    return (
        "run",
        row.get("tier"),
        row.get("threads"),
    )


def workload_key(row):
    return (
        "workload",
        row.get("workload"),
        row.get("tier"),
    )


def index(bench):
    legs = {}
    for row in bench.get("runs", []):
        legs[run_key(row)] = row
    for row in bench.get("workloads", []):
        legs[workload_key(row)] = row
    return legs


def describe(key):
    return " ".join(str(part) for part in key[1:] if part is not None)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--threshold", type=float, default=0.30)
    args = parser.parse_args()

    try:
        with open(args.baseline) as f:
            baseline = index(json.load(f))
        with open(args.fresh) as f:
            fresh = index(json.load(f))
    except (OSError, ValueError) as e:
        # A missing or malformed file is a setup problem, not a perf
        # regression; say so and let the build proceed.
        print(f"::warning::bench_trend: cannot compare ({e})")
        return 0

    compared = 0
    regressed = 0
    for key, base_row in baseline.items():
        fresh_row = fresh.get(key)
        if fresh_row is None:
            continue
        base_rate = float(base_row.get("scenarios_per_s", 0))
        fresh_rate = float(fresh_row.get("scenarios_per_s", 0))
        if base_rate <= 0:
            continue
        compared += 1
        change = fresh_rate / base_rate - 1.0
        label = describe(key)
        if change < -args.threshold:
            regressed += 1
            print(
                f"::warning::perf trend: {label}: "
                f"{base_rate:.0f} -> {fresh_rate:.0f} scen/s "
                f"({change * 100:+.1f}%, threshold "
                f"-{args.threshold * 100:.0f}%)"
            )
        else:
            print(
                f"perf trend: {label}: {base_rate:.0f} -> "
                f"{fresh_rate:.0f} scen/s ({change * 100:+.1f}%)"
            )
    print(
        f"bench_trend: {compared} legs compared, "
        f"{regressed} regressed beyond "
        f"{args.threshold * 100:.0f}%"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
