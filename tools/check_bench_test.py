#!/usr/bin/env python3
"""Tests of the benchmark gate (check_bench.py).

    python3 tools/check_bench_test.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench  # noqa: E402


def rec(bench, metric, value, unit):
    return {"benchmark": bench, "arch": "vax", "metric": metric,
            "value": value, "unit": unit}


BASELINE = [
    rec("bench_a", "faults", 100, "count"),
    rec("bench_a", "time", 1000.0, "ns"),
    rec("bench_b", "ipis", 8, "count"),
]


class CheckBenchTest(unittest.TestCase):
    def gate(self, results):
        """Run check_bench.py on @p results; return its exit code."""
        with tempfile.TemporaryDirectory() as tmp:
            base_dir = os.path.join(tmp, "baselines")
            os.mkdir(base_dir)
            for bench in {r["benchmark"] for r in BASELINE}:
                with open(os.path.join(base_dir, bench + ".json"),
                          "w") as f:
                    json.dump([r for r in BASELINE
                               if r["benchmark"] == bench], f)
            path = os.path.join(tmp, "results.json")
            with open(path, "w") as f:
                json.dump(results, f)
            with contextlib.redirect_stdout(io.StringIO()):
                return check_bench.main(
                    ["--baseline-dir", base_dir, path])

    def with_value(self, metric, value):
        return [dict(r, value=value) if r["metric"] == metric else r
                for r in BASELINE]

    def test_matching_results_pass(self):
        self.assertEqual(self.gate(BASELINE), 0)

    def test_missing_benchmark_fails(self):
        # A workload machvm_bench no longer runs must not drop out of
        # the gate silently.
        results = [r for r in BASELINE if r["benchmark"] != "bench_b"]
        self.assertEqual(self.gate(results), 1)

    def test_count_drift_fails(self):
        self.assertEqual(self.gate(self.with_value("faults", 101)), 1)

    def test_any_ns_drift_fails(self):
        # The gate is exact: a 0.1% move is a model change too.
        self.assertEqual(self.gate(self.with_value("time", 1001.0)), 1)

    def test_ns_three_percent_off_fails(self):
        self.assertEqual(self.gate(self.with_value("time", 1030.0)), 1)


if __name__ == "__main__":
    unittest.main()
