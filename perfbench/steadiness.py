#!/usr/bin/env python3
"""Measure the run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py [--runs 10] [--seconds 20]
                                    [--first-seed 1] [workload ...]

From the repository root. Runs perfbench/run.py --trace 0 once per
seed (first-seed, first-seed + 1, ...) on each workload, one run at a
time, and prints for every end-to-end metric the median, the first
and third quartiles (statistics.quantiles(values, n=4)), the spread
(Q3 - Q1) / median, and the metric's bound from BENCHMARK.json. With
no workloads named, every workload in BENCHMARK.json is run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=REPO_ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        sys.exit("run failed: %s" % " ".join(cmd))
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("run reported failures: %s" % " ".join(cmd))
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()

    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in workloads:
        runs = [run_once(workload, args.first_seed + i, seconds)
                for i in range(args.runs)]
        print("%s: %d runs, seeds %d..%d, %d s each"
              % (workload, args.runs, args.first_seed,
                 args.first_seed + args.runs - 1, seconds))
        print("  %-14s %12s %12s %12s %8s %6s"
              % ("metric", "median", "q1", "q3", "spread", "bound"))
        for name in bounds:
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print("  %-14s %12.6g %12.6g %12.6g %8.4f %6.3f"
                  % (name, med, q1, q3, spread, bounds[name]))
        print("  raw: %s" % json.dumps(runs), flush=True)


if __name__ == "__main__":
    main()
