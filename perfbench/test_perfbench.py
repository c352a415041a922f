#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

They build the benchmark program on first use (as run.py does) and run
short grid_sweep jobs, so they take about a minute on a cold build.
"""

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402


def run_bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run([sys.executable, script] + list(args), cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines()


class MetricsTest(unittest.TestCase):
    """Every metric of BENCHMARK.json is printed, with its unit."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def check_run(self, trace, section):
        code, lines = run_bench("--workload", "grid_sweep", "--seed", "3",
                                "--seconds", "1", "--trace", str(trace))
        self.assertEqual(code, 0, lines)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in self.bench[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"}, name)
            self.assertIsInstance(m["value"], (int, float), name)

    def test_end_to_end_metrics_printed_with_units(self):
        self.check_run(0, "end_to_end")

    def test_per_layer_metrics_printed_with_units(self):
        self.check_run(1, "per_layer")

    def test_workloads_match(self):
        self.assertLessEqual({w["name"] for w in self.bench["workloads"]},
                             set(run.WORKLOADS))
        self.assertEqual(set(run.TAIL_PERCENTILE), set(run.WORKLOADS))


class TailTest(unittest.TestCase):
    """The tail percentile leaves at least ten samples beyond it."""

    def test_min_jobs_is_tight(self):
        for p in set(run.TAIL_PERCENTILE.values()):
            n = run.min_jobs(p)
            rng = random.Random(p)
            _, beyond = run.tail([rng.random() for _ in range(n - 1)], p)
            self.assertLess(beyond, run.TAIL_BEYOND, p)

    def test_tail_leaves_ten_beyond(self):
        rng = random.Random(1)
        for p in set(run.TAIL_PERCENTILE.values()):
            for n in range(run.min_jobs(p), 600, 7):
                samples = [rng.lognormvariate(0.0, 0.3) for _ in range(n)]
                value, beyond = run.tail(samples, p)
                self.assertGreaterEqual(beyond, run.TAIL_BEYOND, (p, n))
                self.assertEqual(beyond, sum(1 for x in samples if x > value))
                self.assertIn(value, samples)


class BuildDirTest(unittest.TestCase):
    """Checkouts sharing one CARGO_TARGET_DIR do not share a build."""

    def test_build_dir_is_per_checkout(self):
        a, b = os.path.join(ROOT, "a"), os.path.join(ROOT, "b")
        with mock.patch.dict(os.environ, {"CARGO_TARGET_DIR": "/shared"}):
            self.assertNotEqual(run.build_dir(a), run.build_dir(b))
            self.assertEqual(run.build_dir(a), run.build_dir(a + "/"))
            self.assertEqual(os.path.dirname(run.build_dir(a)), "/shared")


class TimeoutTest(unittest.TestCase):
    """A long run is given the time it asks for."""

    def test_timeout_grows_with_the_run(self):
        for seconds in (1, 30, 600):
            for p in set(run.TAIL_PERCENTILE.values()):
                jobs = run.min_jobs(p)
                self.assertGreater(run.run_timeout(seconds, jobs),
                                   seconds + jobs * run.JOB_CEILING_S)


class CheckTest(unittest.TestCase):
    """Corrupted outputs fail the run."""

    def test_tampered_result_trips_the_check(self):
        code, lines = run_bench("--workload", "grid_sweep", "--seconds", "1",
                                "--trace", "0", "--tamper")
        self.assertEqual(code, 1)
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertTrue(any("proposed power exceeds iso-layout DVAS" in l
                            for l in lines), lines)

    def test_fails_without_repository_sources(self):
        # A directory holding only BENCHMARK.json and the benchmark.
        os.makedirs(run.build_dir(), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = run_bench(
                "--workload", "grid_sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp,
                script=os.path.join(tmp, "perfbench", "run.py"))
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
