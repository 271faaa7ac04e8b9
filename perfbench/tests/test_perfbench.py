#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/tests/test_perfbench.py

Runs the C++ self-test (percentiles, samples-beyond rule, shed-as-failed,
span self times, digests), checks that the harness prints exactly the
metrics BENCHMARK.json declares, that the simulated digest depends on the
seed only (same seed twice, serial against parallel execution), that the
report's verdicts follow the bounds, and that the command fails cleanly
without the sources it measures.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import report  # noqa: E402
import run  # noqa: E402

BUILD = None


def setUpModule():
    global BUILD
    BUILD = run.build()
    if BUILD is None:
        raise RuntimeError("perfbench build failed")


def harness(*args):
    env = dict(os.environ, HAIL_THREADS=str(run.hail_threads()))
    proc = subprocess.run([os.path.join(BUILD, "perfbench_harness"), *args],
                          env=env, capture_output=True, text=True, timeout=600)
    return proc


def small_run(workload, seed, execution="default"):
    """A tiny run of a workload; returns its detail record."""
    proc = harness("--workload", workload, "--seed", str(seed),
                   "--seconds", "0.1", "--trace", "0", "--setups", "1",
                   "--blocks-per-node", "4", "--exec", execution)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr[-3000:])
    parsed = report.parse_run(proc.stdout)
    assert parsed is not None, proc.stdout[-2000:]
    return parsed


class HarnessTest(unittest.TestCase):
    def test_selftest(self):
        proc = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_metric_lists_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        listed = harness("--list-metrics").stdout.split("\n")
        e2e = [tuple(l.split()[1:]) for l in listed if l.startswith("e2e ")]
        layers = [tuple(l.split()[1:]) for l in listed
                  if l.startswith("layer ")]
        self.assertEqual(e2e, [(m["name"], m["unit"])
                               for m in bench["end_to_end"]])
        self.assertEqual(layers, [(m["name"], m["unit"])
                                  for m in bench["per_layer"]])

    def test_digest_depends_on_seed_only(self):
        for workload in ("bob-queries", "shared-session"):
            first = small_run(workload, 5)
            again = small_run(workload, 5)
            serial = small_run(workload, 5, "serial")
            parallel = small_run(workload, 5, "parallel")
            other = small_run(workload, 6)
            self.assertEqual(first["digest"], again["digest"], workload)
            self.assertEqual(first["digest"], serial["digest"], workload)
            self.assertEqual(first["digest"], parallel["digest"], workload)
            self.assertNotEqual(first["digest"], other["digest"], workload)

    def test_upload_digest_stable(self):
        self.assertEqual(small_run("upload", 3)["digest"],
                         small_run("upload", 3)["digest"])

    def traced_run(self, workload):
        proc = harness("--workload", workload, "--seed", "2",
                       "--seconds", "0.1", "--trace", "1", "--setups", "1",
                       "--blocks-per-node", "4")
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [m["name"] for m in json.load(f)["per_layer"]]
        self.assertEqual(list(result["metrics"]), names)
        return {k: m["value"] for k, m in result["metrics"].items()}

    def test_traced_run_prints_every_layer_metric(self):
        metrics = self.traced_run("bob-queries")
        self.assertGreater(metrics["index.probe_us"], 0)
        self.assertGreater(metrics["mapreduce.reader_self_ms"], 0)

    def test_traced_upload_has_no_tracing_overhead(self):
        # The upload path takes no tracer: nothing to compare.
        metrics = self.traced_run("upload")
        self.assertEqual(metrics["obs.tracing_overhead_frac"], 0)
        self.assertEqual(metrics["mapreduce.reader_self_ms"], 0)
        self.assertGreater(metrics["hail.replica_build_ms"], 0)


class ReportTest(unittest.TestCase):
    def test_spread_uses_statistics_quartiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        self.assertAlmostEqual(report.spread(values), (4.5 - 1.5) / 3.0)
        self.assertEqual(report.spread([7.0]), 0.0)

    def test_verdicts(self):
        base = [100.0, 101.0, 99.0, 100.5, 99.5]
        self.assertEqual(report.verdict(base, [100.2, 99.8, 100.1, 100.0, 99.9],
                                        "higher", 0.1), "same")
        self.assertEqual(report.verdict(base, [80.0, 81.0, 79.0, 80.5, 79.5],
                                        "higher", 0.1), "worse")
        self.assertEqual(report.verdict(base, [120.0, 121.0, 119.0, 120.5, 119.5],
                                        "higher", 0.1), "better")
        # Lower is better: the same change is now an improvement.
        self.assertEqual(report.verdict(base, [80.0, 81.0, 79.0, 80.5, 79.5],
                                        "lower", 0.1), "better")
        # Spread wider than the bound: unresolved unless every run wins.
        noisy = [60.0, 140.0, 100.0, 70.0, 130.0]
        self.assertEqual(report.verdict(noisy, [95.0, 100.0, 105.0],
                                        "higher", 0.1), "unresolved")

    def test_digest_mismatch_is_reported(self):
        runs = [{"workload": "w", "seed": 1, "digest": "a"},
                {"workload": "w", "seed": 1, "digest": "b"},
                {"workload": "w", "seed": 2, "digest": "c"}]
        self.assertEqual(report.digest_mismatches(runs), [("w", 1)])


class CommandTest(unittest.TestCase):
    def test_build_dir_is_per_checkout(self):
        saved_root = run.ROOT
        saved_env = os.environ.get("CARGO_TARGET_DIR")
        os.environ["CARGO_TARGET_DIR"] = "/shared/target"
        try:
            first = run.build_dir()
            run.ROOT = saved_root + "-other"
            second = run.build_dir()
        finally:
            run.ROOT = saved_root
            if saved_env is None:
                del os.environ["CARGO_TARGET_DIR"]
            else:
                os.environ["CARGO_TARGET_DIR"] = saved_env
        self.assertEqual(os.path.dirname(first), "/shared/target")
        self.assertEqual(os.path.dirname(second), "/shared/target")
        self.assertNotEqual(first, second)

    def test_fails_without_sources(self):
        base = os.path.dirname(run.build_dir())
        with tempfile.TemporaryDirectory(dir=base) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items()
                   if k != "CARGO_TARGET_DIR"}
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "upload",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
