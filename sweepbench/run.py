#!/usr/bin/env python3
"""Sweep benchmark: end-to-end and per-layer numbers for cfva sweeps.

Run from the repository root:

    python3 sweepbench/run.py --workload wide --seed 1592651789 \\
        --seconds 30 --trace 0

It builds the cfva library and the measuring program from source into
.bench_build/ (Release), computes the reference outcomes of the
workload's grid untimed on the per-cycle simulator, and then either
times the production sweep (--trace 0: the end-to-end metrics) or makes
the single-worker traced run (--trace 1: the per-layer metrics).  Every
outcome is checked against the reference.  Human-readable lines go
first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Metric names and units
come from BENCHMARK.json; sweepbench/README.md says what each one
measures and which end-to-end number it should move.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "cfva_sweepbench")
WORKLOADS = ("wide", "claimed", "simulated")
DEFAULT_SEED = 0x5EEDF00D  # ScenarioGrid's own default seed

# Timeouts, so a hung build or run cannot stall the benchmark.  A
# cold build of the library takes a few minutes on one core.
BUILD_TIMEOUT_S = 840
CHILD_SLACK_S = 60


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds the measuring program; False on failure."""
    if shutil.which("cmake") is None:
        log("sweepbench: cmake not found")
        return False
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    # Configuring every time costs about a second and recovers a
    # build tree whose earlier configure failed.
    compile_ = ["cmake", "--build", BUILD, "-j", str(nproc())]
    for cmd in (configure, compile_):
        try:
            r = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("sweepbench: build timed out")
            return False
        if r.returncode != 0:
            log(r.stdout)
            log("sweepbench: build failed:", " ".join(cmd))
            return False
    return os.path.exists(DRIVER)


def nproc():
    return len(os.sched_getaffinity(0))


def measure(mode, args, timeout):
    """Runs the measuring program; returns its JSON, or None if it
    failed or crashed."""
    cmd = [DRIVER, mode] + [str(a) for a in args]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        log("sweepbench: timed out:", " ".join(cmd))
        return None
    if r.returncode != 0:
        log("sweepbench: exit code %d: %s" % (r.returncode, " ".join(cmd)))
        return None
    return json.loads(r.stdout.strip().splitlines()[-1])


def metric_units(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[section]}


def end_to_end(raw):
    jobs = raw["jobs"]
    return {
        "scen_per_s.t1": jobs / statistics.median(raw["t1_s"]),
        "scen_per_s.tall": jobs / statistics.median(raw["tall_s"]),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not build():
        return 1
    threads = nproc()
    ref = os.path.join(BUILD, "ref-%s.bin" % a.workload)
    common = ["--workload", a.workload, "--seed", a.seed, "--ref", ref]

    reference = measure("reference", common + ["--threads", threads],
                        CHILD_SLACK_S)
    if reference is None:
        return 1
    jobs = reference["jobs"]
    log("sweepbench: workload %s, seed %d, %d jobs, nproc %d, "
        "reference %.2f s" % (a.workload, a.seed, jobs, threads,
                              reference["seconds"]))

    if a.trace:
        raw = measure("trace", common + [
            "--seconds", a.seconds, "--trace-out",
            os.path.join(BUILD, "trace-%s.tsv" % a.workload)],
            a.seconds + 2 * CHILD_SLACK_S)
        section = "per_layer"
    else:
        raw = measure("e2e", common + ["--threads", threads,
                                       "--seconds", a.seconds],
                      a.seconds + 2 * CHILD_SLACK_S)
        section = "end_to_end"
    if raw is None:
        # A crash counts every scenario of the run as failed.
        print(json.dumps({"correct": False, "attempted": jobs,
                          "failed": jobs, "metrics": {}}))
        return 1

    failed = raw["failed"]
    correct = failed == 0
    if a.trace:
        values = raw
        failed += raw["self_check_failures"]
        correct = (failed == 0 and raw["counts_repeat"] == 1)
        log("sweepbench: %d traced passes, %d spans, self-check "
            "failures %d, counts repeat %s" % (
                raw["passes"], raw["spans"], raw["self_check_failures"],
                bool(raw["counts_repeat"])))
    else:
        values = end_to_end(raw)
        log("sweepbench: %d runs at 1 worker, %d at %d workers" % (
            len(raw["t1_s"]), len(raw["tall_s"]), raw["threads"]))
    # failed_frac reads 0 whenever the program is correct, and an
    # end-to-end metric is judged as a share of its median, so it is
    # carried by the result's failed / attempted, not by a metric.
    print("%-32s %.6g ratio (%d of %d scenarios)" % (
        "failed_frac", failed / raw["attempted"], failed,
        raw["attempted"]))

    metrics = {}
    for name, unit in metric_units(section).items():
        if name not in values:
            log("sweepbench: the measuring program did not report", name)
            return 1
        metrics[name] = {"value": values[name], "unit": unit}
        print("%-32s %.6g %s" % (name, values[name], unit))
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
