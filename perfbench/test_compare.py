"""Tests of the benchmark's run-comparison code (compare.py).

Run with: python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import json
import statistics
import tempfile
import unittest
from pathlib import Path

import compare

BENCH = {
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "tx_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "latency_p99_us", "unit": "us", "better": "lower", "bound": 0.2},
    ]
}


def result(**values):
    units = {"setup_s": "s", "tx_per_s": "1/s", "latency_p99_us": "us"}
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


class SummaryTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 12.0, 9.0, 11.0, 30.0, 10.5, 9.5, 10.2, 11.1, 9.9]
        s = compare.summary(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(s["n"], 10)
        self.assertEqual(s["median"], statistics.median(values))
        self.assertAlmostEqual(s["spread"], (q3 - q1) / statistics.median(values))

    def test_single_value_has_no_spread(self):
        self.assertEqual(compare.summary([4.0])["spread"], 0.0)


class WorseShareTest(unittest.TestCase):
    def test_direction(self):
        self.assertAlmostEqual(compare.worse_share(100.0, 110.0, "lower"), 0.10)
        self.assertAlmostEqual(compare.worse_share(100.0, 90.0, "lower"), -0.10)
        self.assertAlmostEqual(compare.worse_share(100.0, 90.0, "higher"), 0.10)
        self.assertAlmostEqual(compare.worse_share(100.0, 110.0, "higher"), -0.10)

    def test_zero_base(self):
        self.assertEqual(compare.worse_share(0.0, 0.0, "lower"), 0.0)
        self.assertEqual(compare.worse_share(0.0, 1.0, "lower"), float("inf"))


class ReportTest(unittest.TestCase):
    def test_spread_checks_every_bound(self):
        runs = [result(setup_s=s, tx_per_s=t, latency_p99_us=10.0)
                for s, t in [(1, 100), (5, 101), (9, 99), (2, 100), (7, 100)]]
        rows = {m["name"]: ok for m, _, ok in compare.spread_report(runs, BENCH)}
        self.assertFalse(rows["setup_s"])  # setup_s is held to its bound too
        self.assertTrue(rows["tx_per_s"])
        self.assertTrue(rows["latency_p99_us"])
        wide = [result(setup_s=1, tx_per_s=t, latency_p99_us=10.0)
                for t in (60, 80, 100, 120, 140)]  # quartiles 70 and 130
        rows = {m["name"]: ok for m, _, ok in compare.spread_report(wide, BENCH)}
        self.assertFalse(rows["tx_per_s"])

    def test_regress_flags_only_worse_beyond_bound(self):
        base = [result(setup_s=1.0, tx_per_s=100.0, latency_p99_us=10.0)] * 3
        same = [result(setup_s=1.2, tx_per_s=95.0, latency_p99_us=11.5)] * 3
        worse = [result(setup_s=1.3, tx_per_s=85.0, latency_p99_us=13.0)] * 3
        ok = {m["name"]: ok for m, *_, ok in compare.regress_report(base, same, BENCH)}
        self.assertEqual(ok, {"setup_s": True, "tx_per_s": True, "latency_p99_us": True})
        ok = {m["name"]: ok for m, *_, ok in compare.regress_report(base, worse, BENCH)}
        self.assertEqual(ok, {"setup_s": False, "tx_per_s": False, "latency_p99_us": False})

    def test_load_runs_skips_blank_lines(self):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "runs.jsonl"
            path.write_text(json.dumps(result(tx_per_s=1.0)) + "\n\n" +
                            json.dumps(result(tx_per_s=2.0)) + "\n")
            runs = compare.load_runs(path)
        self.assertEqual(compare.metric_values(runs, "tx_per_s"), [1.0, 2.0])


if __name__ == "__main__":
    unittest.main()
