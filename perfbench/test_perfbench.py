#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Builds perfbench like run.py does, then checks the percentile helper, the
result line's shape, and that a seeded drain-accounting or digest mismatch
makes the command fail.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own entry point)

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(*args):
    """Runs run.py briefly on sim_paper12; returns (exit code, result)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", "sim_paper12", "--seed", "0", "--seconds", "1"]
    proc = subprocess.run(cmd + list(args), capture_output=True, text=True,
                          cwd=run.ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(run.build_dir())

    def test_percentile_helper_and_span_self_times(self):
        proc = subprocess.run([self.binary, "--selftest"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("1000 samples support p99 with 10 beyond", proc.stdout)

    def test_untraced_result_carries_exactly_the_end_to_end_metrics(self):
        code, result = bench("--trace", "0")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in SPEC["end_to_end"]))

    def test_traced_result_carries_exactly_the_per_layer_metrics(self):
        code, result = bench("--trace", "1")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in SPEC["per_layer"]))

    def test_drain_accounting_mismatch_fails_the_command(self):
        code, result = bench("--trace", "0", "--inject-fault", "drain")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_digest_mismatch_fails_the_command(self):
        code, result = bench("--trace", "0", "--inject-fault", "digest")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
