#!/usr/bin/env python3
"""Offline tests of run.py's compare rules and result line.

Fixture records stand in for benchmark runs, so nothing is built or run:

  python3 benchmark/test_compare.py
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the module under test sits beside this file)

SPEC = {
    "end_to_end": [
        {"name": "latency_us", "unit": "us", "better": "lower", "bound": 0.1},
        {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [
        {"name": "index.probe_us", "unit": "us", "better": "lower"},
        {"name": "live.segments", "unit": "count", "better": "lower"},
    ],
}


def record(latency, qps=1000.0, correct=True):
    return {"workload": "w", "correct": correct, "attempted": 10,
            "failed": 0 if correct else 1,
            "end_to_end": {"latency_us": {"value": latency, "unit": "us"},
                           "qps": {"value": qps, "unit": "1/s"}},
            "per_layer": {"index.probe_us": {"value": 3.0, "unit": "us"}}}


def jitter(base, spread, n=10):
    """n values around `base`, alternating +-spread/2 with small steps."""
    return [base * (1 + (spread / 2) * (1 if i % 2 else -1) * (1 + i / 100))
            for i in range(n)]


def verdicts(a_latency, b_latency, a_qps=None, b_qps=None):
    n = len(a_latency)
    a_qps = a_qps or [1000.0] * n
    b_qps = b_qps or [1000.0] * n
    runs_a = {"w": [record(x, q) for x, q in zip(a_latency, a_qps)]}
    runs_b = {"w": [record(x, q) for x, q in zip(b_latency, b_qps)]}
    rows, failures = run.compare_runs(runs_a, runs_b, SPEC)
    return {r["metric"]: r for r in rows}, failures


class CompareRules(unittest.TestCase):
    def test_same_runs_are_unchanged_and_exit_zero(self):
        values = jitter(100.0, 0.02)
        rows, failures = verdicts(values, list(values))
        self.assertEqual(rows["latency_us"]["verdict"], "unchanged")
        self.assertEqual(rows["latency_us"]["win_fraction"], 0.0)  # ties
        self.assertTrue(rows["latency_us"]["within_bound"])
        self.assertEqual(run.compare_exit_code(list(rows.values()), failures), 0)

    def test_consistent_gain(self):
        rows, failures = verdicts(jitter(100.0, 0.02), jitter(80.0, 0.02))
        self.assertEqual(rows["latency_us"]["verdict"], "gain")
        self.assertEqual(rows["latency_us"]["win_fraction"], 1.0)
        self.assertEqual(run.compare_exit_code(list(rows.values()), failures), 0)

    def test_gain_needs_nine_tenths_of_pairs(self):
        a = jitter(100.0, 0.02)
        b = [x * 0.85 for x in a]
        b[0] = b[1] = a[0] * 2  # B loses two pairs: wins 8 of 10
        rows, _ = verdicts(a, b)
        self.assertEqual(rows["latency_us"]["win_fraction"], 0.8)
        self.assertNotEqual(rows["latency_us"]["verdict"], "gain")

    def test_regression_beyond_bound_exits_one(self):
        rows, failures = verdicts(jitter(100.0, 0.02), jitter(120.0, 0.02))
        self.assertEqual(rows["latency_us"]["verdict"], "regression")
        self.assertFalse(rows["latency_us"]["within_bound"])
        self.assertEqual(run.compare_exit_code(list(rows.values()), failures), 1)

    def test_worse_within_bound_is_unchanged(self):
        rows, _ = verdicts(jitter(100.0, 0.02), jitter(105.0, 0.02))
        self.assertEqual(rows["latency_us"]["verdict"], "unchanged")
        self.assertTrue(rows["latency_us"]["within_bound"])

    def test_higher_is_better_direction(self):
        n = 10
        rows, _ = verdicts([100.0] * n, [100.0] * n, jitter(1000.0, 0.02),
                           jitter(800.0, 0.02))
        self.assertEqual(rows["qps"]["verdict"], "regression")
        rows, _ = verdicts([100.0] * n, [100.0] * n, jitter(1000.0, 0.02),
                           jitter(1200.0, 0.02))
        self.assertEqual(rows["qps"]["verdict"], "gain")

    def test_spread_wider_than_bound_is_unresolved_exit_three(self):
        rows, failures = verdicts(jitter(100.0, 0.4), jitter(104.0, 0.4))
        self.assertGreater(rows["latency_us"]["spread"], 0.1)
        self.assertEqual(rows["latency_us"]["verdict"], "unresolved")
        self.assertEqual(run.compare_exit_code(list(rows.values()), failures), 3)

    def test_noisy_regression_larger_than_spread_is_regression(self):
        rows, failures = verdicts(jitter(100.0, 0.4), jitter(200.0, 0.4))
        self.assertGreater(rows["latency_us"]["spread"], 0.1)
        self.assertEqual(rows["latency_us"]["verdict"], "regression")
        self.assertEqual(run.compare_exit_code(list(rows.values()), failures), 1)

    def test_noisy_shift_beyond_bound_but_within_spread_is_unresolved(self):
        rows, failures = verdicts(jitter(100.0, 0.4), jitter(115.0, 0.4))
        self.assertGreater(rows["latency_us"]["worse"], 0.1)
        self.assertLess(rows["latency_us"]["worse"],
                        rows["latency_us"]["spread"])
        self.assertEqual(rows["latency_us"]["verdict"], "unresolved")
        self.assertEqual(run.compare_exit_code(list(rows.values()), failures), 3)

    def test_every_run_worse_is_regression_even_when_b_is_noisier(self):
        a = [60.0 + 10.0 * i for i in range(10)]
        b = [151.0, 152.0, 153.0, 154.0, 155.0, 300.0, 400.0, 500.0, 600.0,
             700.0]  # every run above all of A, spread wider than the shift
        rows, _ = verdicts(a, b)
        self.assertGreater(rows["latency_us"]["spread"],
                           rows["latency_us"]["worse"])
        self.assertEqual(rows["latency_us"]["verdict"], "regression")

    def test_noisy_but_every_run_better_is_resolved(self):
        a = [200.0 + 40.0 * i for i in range(10)]  # wide spread
        b = [100.0 + 5.0 * i for i in range(10)]   # every run below all of A
        rows, _ = verdicts(a, b)
        self.assertNotEqual(rows["latency_us"]["verdict"], "unresolved")

    def test_regression_wins_over_unresolved_in_exit_code(self):
        rows = [{"verdict": "unresolved"}, {"verdict": "regression"}]
        self.assertEqual(run.compare_exit_code(rows, []), 1)

    def test_failed_run_is_reported_and_excluded(self):
        runs_a = {"w": [record(100.0), record(100.0)]}
        runs_b = {"w": [record(100.0, correct=False), None]}
        rows, failures = run.compare_runs(runs_a, runs_b, SPEC)
        self.assertEqual(rows, [])
        self.assertEqual(len(failures), 2)
        self.assertEqual(run.compare_exit_code(rows, failures), 1)

    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(run.quartiles(values), (1.5, 3.0, 4.5))
        self.assertEqual(run.quartiles([7.0]), (7.0, 7.0, 7.0))


class ResultLine(unittest.TestCase):
    def test_untraced_line_has_every_end_to_end_metric(self):
        line = run.contract_line(record(100.0), SPEC, trace=False)
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(line["metrics"]), {"latency_us", "qps"})
        self.assertEqual(line["metrics"]["qps"], {"value": 1000.0, "unit": "1/s"})

    def test_traced_line_fills_unexercised_layers_with_zero(self):
        line = run.contract_line(record(100.0), SPEC, trace=True)
        self.assertEqual(line["metrics"]["index.probe_us"]["value"], 3.0)
        self.assertEqual(line["metrics"]["live.segments"]["value"], 0.0)

    def test_unknown_layer_or_zero_end_to_end_is_an_error(self):
        r = record(100.0)
        r["per_layer"]["index.typo_us"] = {"value": 1.0, "unit": "us"}
        with self.assertRaises(run.BenchError):
            run.contract_line(r, SPEC, trace=True)
        with self.assertRaises(run.BenchError):
            run.contract_line(record(0.0), SPEC, trace=False)


class CommandLine(unittest.TestCase):
    def test_bad_compare_usage_exits_two(self):
        for argv in (["compare", "only-one-root"],
                     ["compare", "a", "b", "--pairs", "0"]):
            with self.assertRaises(SystemExit) as raised:
                run.main(argv)
            self.assertEqual(raised.exception.code, 2)

    def test_tree_without_sources_exits_two(self):
        with self.assertRaises(run.BenchError) as raised:
            run.build(Path(__file__).resolve().parent, "/nonexistent")
        self.assertEqual(raised.exception.code, 2)


if __name__ == "__main__":
    unittest.main()
