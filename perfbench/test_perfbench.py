#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/test_perfbench.py      (from the repository root)

Builds perfbench like run.py does, then checks that every metric it
can print is named and united as BENCHMARK.json says, that the output
checks count fabricated bad runs as failed, and that run.py fails
cleanly where the simulator sources are missing.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402  (perfbench/run.py)

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def load_spec():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spec_units(spec, kind):
    return {m["name"]: m["unit"] for m in spec[kind]}


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.chdir(REPO_ROOT)
        cls.binary = run.build()
        cls.spec = load_spec()

    def bench(self, *args):
        proc = subprocess.run([self.binary] + list(args),
                              stdout=subprocess.PIPE, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        return proc.stdout

    def test_metric_table_matches_benchmark_json(self):
        listed = {"end_to_end": {}, "per_layer": {}}
        for line in self.bench("--list-metrics").splitlines():
            kind, name, unit = line.split()
            self.assertRegex(name, NAME_RE)
            self.assertTrue(unit, name)
            self.assertNotIn(name, listed[kind])
            listed[kind][name] = unit
        for kind in listed:
            self.assertEqual(listed[kind], spec_units(self.spec, kind), kind)
        self.assertLessEqual(len(listed["end_to_end"]), 16)
        self.assertLessEqual(len(listed["per_layer"]), 128)

    def test_printed_metrics_are_named_in_benchmark_json(self):
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            out = self.bench("--workload", "hmmer-static7", "--seed", "2",
                             "--seconds", "1", "--trace", trace)
            result = json.loads(out.splitlines()[-1])
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            units = spec_units(self.spec, kind)
            self.assertEqual(set(result["metrics"]), set(units), kind)
            for name, metric in result["metrics"].items():
                self.assertRegex(name, NAME_RE)
                self.assertEqual(metric["unit"], units[name], name)
                self.assertIsInstance(metric["value"], (int, float))

    def test_fabricated_bad_runs_count_as_failed(self):
        out = self.bench("--self-test")
        self.assertIn("fast + slow != demand -> counted as failed", out)
        self.assertIn("nonzero audit -> counted as failed", out)
        self.assertNotIn("WRONG", out)

    def test_counts_repeat_exactly(self):
        first, second = (
            json.loads(self.bench("--workload", "hmmer-static7", "--seed",
                                  "3", "--trace", "1").splitlines()[-1])
            for _ in range(2))
        for name, unit in spec_units(self.spec, "per_layer").items():
            if unit == "count":
                self.assertEqual(first["metrics"][name]["value"],
                                 second["metrics"][name]["value"], name)

    def test_fails_without_simulator_sources(self):
        bare = os.path.join(run.build_dir(), "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, "build"))
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "hmmer-static7", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=170)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
