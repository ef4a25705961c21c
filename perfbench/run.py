#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (the simulator libraries from src/ plus the driver) into
the directory named by CARGO_TARGET_DIR, or .bench_build; later calls
rebuild incrementally. Build output goes to stderr. The benchmark's
own output goes to stdout, and its last line is the JSON result. The
exit code is non-zero, with no result line, when the build or the
benchmark fails.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure (once) and build perfbench; return the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def main():
    binary = build()
    try:
        proc = subprocess.run([binary] + sys.argv[1:], stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: benchmark exited with code %d" % proc.returncode)
    lines = proc.stdout.splitlines() or [""]
    body, last = lines[:-1], lines[-1]
    if body:
        print("\n".join(body))
    try:
        result = json.loads(last)
    except ValueError:
        sys.exit("perfbench: last output line is not JSON: " + last)
    if set(result) != RESULT_KEYS:
        sys.exit("perfbench: result keys %s != %s"
                 % (sorted(result), sorted(RESULT_KEYS)))
    print(last, flush=True)


if __name__ == "__main__":
    main()
