#!/usr/bin/env python3
"""Tests of scripts/bench_pairs.py with a stubbed benchmark runner.

Run with: python3 scripts/test_bench_pairs.py -v
"""
import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_pairs  # noqa: E402


def result(tx_per_s, setup_s=0.01, attempted=640, failed=0):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"tx_per_s": {"value": tx_per_s, "unit": "1/s"},
                        "setup_s": {"value": setup_s, "unit": "s"}}}


class StubRunner:
    """Answers from per-side queues and records the call order."""

    def __init__(self, before, after):
        self.queues = {"before": list(before), "after": list(after)}
        self.calls = []

    def __call__(self, tree, workload, seed, seconds):
        side = "before" if str(tree) == "REF" else "after"
        self.calls.append((side, workload, seed, seconds))
        return self.queues[side].pop(0)


@contextlib.contextmanager
def stub_worktree(ref):
    yield Path("REF")


def run_main(runner, *args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = bench_pairs.main(["HEAD~1", *args], runner=runner,
                                  worktree=stub_worktree)
    return status, json.loads(out.getvalue())


class BenchPairsTest(unittest.TestCase):
    def test_sides_alternate_which_runs_first(self):
        runner = StubRunner([(0, result(100.0))] * 4, [(0, result(200.0))] * 4)
        run_main(runner, "--pairs", "4", "--seconds", "2", "--seed", "9001")
        self.assertEqual([c[0] for c in runner.calls],
                         ["before", "after", "after", "before",
                          "before", "after", "after", "before"])
        self.assertTrue(all(c[1:] == ("sim-fig3", 9001, 2.0) for c in runner.calls))

    def test_wins_medians_and_ratio_follow_each_metrics_direction(self):
        before = [(0, result(100.0, setup_s=0.010)), (0, result(110.0, setup_s=0.012)),
                  (0, result(90.0, setup_s=0.011))]
        after = [(0, result(150.0, setup_s=0.002)), (0, result(105.0, setup_s=0.003)),
                 (0, result(180.0, setup_s=0.020))]
        status, doc = run_main(StubRunner(before, after), "--pairs", "3")
        self.assertEqual(status, 0)
        res = doc["workloads"]["sim-fig3"]["results"]
        # Pair 1 runs after-then-before, but pairs match by index, not order.
        self.assertEqual(res["tx_per_s"]["wins"], 2)  # 150>100, 105<110, 180>90
        self.assertEqual(res["tx_per_s"]["before"]["median"], 100.0)
        self.assertEqual(res["tx_per_s"]["after"]["median"], 150.0)
        self.assertAlmostEqual(res["tx_per_s"]["ratio_median"], 1.5)
        self.assertEqual(res["setup_s"]["wins"], 2)  # lower is better
        self.assertEqual(res["tx_per_s"]["pairs"], 3)

    def test_failure_share_is_counted_per_side_and_fails_the_run(self):
        before = [(0, result(100.0))] * 2
        after = [(0, result(120.0, failed=3)), (1, None)]
        status, doc = run_main(StubRunner(before, after), "--pairs", "2")
        self.assertEqual(status, 1)
        f = doc["workloads"]["sim-fig3"]["failures"]
        self.assertEqual(f["before"], {"runs": 2, "attempted": 1280, "failed": 0,
                                       "bad_runs": 0})
        self.assertEqual(f["after"], {"runs": 2, "attempted": 640, "failed": 3,
                                      "bad_runs": 2})
        runs = [r for r in doc["runs"] if r["side"] == "after"]
        self.assertEqual([r["exit"] for r in runs], [0, 1])
        self.assertFalse(runs[1]["correct"])
        # The pair whose after run printed no result has no metric pair.
        self.assertEqual(doc["workloads"]["sim-fig3"]["results"]["tx_per_s"]["pairs"], 1)

    def test_each_workload_gets_its_own_pairs_and_out_file(self):
        runner = StubRunner([(0, result(1.0))] * 4, [(0, result(2.0))] * 4)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "series.json")
            with contextlib.redirect_stderr(io.StringIO()):
                status = bench_pairs.main(
                    ["REF", "--workload", "sim-fig3", "--workload", "sim-wide",
                     "--pairs", "2", "--out", path],
                    runner=runner, worktree=stub_worktree)
            doc = json.loads(Path(path).read_text())
        self.assertEqual(status, 0)
        self.assertEqual(sorted(doc["workloads"]), ["sim-fig3", "sim-wide"])
        self.assertEqual([c[1] for c in runner.calls],
                         ["sim-fig3"] * 4 + ["sim-wide"] * 4)
        self.assertEqual(doc["ref"], "REF")


if __name__ == "__main__":
    unittest.main()
