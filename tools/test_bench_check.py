#!/usr/bin/env python3
"""Unit tests for tools/bench_check.py (run by the CI workflow).

Exercises the documented exit-code contract end to end through real
subprocess invocations: 0 ok, 1 enforced regression / violated gate /
missing required row, 2 usage or schema error — and in particular the
missing-baseline-row path, which must produce a clear diagnostic and a
nonzero exit rather than a bare KeyError traceback.

Usage: python3 tools/test_bench_check.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "bench_check.py")


def bench_file(rows, bench="live_ingest"):
    return {"bench": bench, "rows": rows}


def row(docs, us_per_query, **extra):
    merged = {"docs": docs, "mode": "scan", "us_per_query": us_per_query}
    merged.update(extra)
    return merged


class BenchCheckTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, payload):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as handle:
            if isinstance(payload, str):
                handle.write(payload)
            else:
                json.dump(payload, handle)
        return path

    def run_check(self, fresh, baseline, *flags):
        return subprocess.run(
            [sys.executable, CHECK, fresh, baseline, *flags],
            capture_output=True, text=True)

    def test_identical_files_pass(self):
        path = self.write("fresh.json", bench_file([row(100000, 10.0)]))
        result = self.run_check(path, path)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("[ok]", result.stdout)

    def test_enforced_regression_fails(self):
        base = self.write("base.json", bench_file([row(100000, 10.0)]))
        fresh = self.write("fresh.json", bench_file([row(100000, 20.0)]))
        result = self.run_check(fresh, base)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("REGRESSION", result.stdout)

    def test_small_row_regression_not_enforced(self):
        base = self.write("base.json", bench_file([row(1000, 10.0)]))
        fresh = self.write("fresh.json", bench_file([row(1000, 20.0)]))
        result = self.run_check(fresh, base)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("not enforced", result.stdout)

    def test_missing_baseline_row_warns_by_default(self):
        # A truncated smoke ladder must stay a warning, not a crash and not
        # a failure.
        base = self.write("base.json", bench_file(
            [row(10000, 10.0), row(100000, 12.0)]))
        fresh = self.write("fresh.json", bench_file([row(10000, 10.0)]))
        result = self.run_check(fresh, base)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("[missing]", result.stdout)
        self.assertNotIn("KeyError", result.stderr)

    def test_missing_baseline_row_fails_under_require_rows(self):
        # The bugfix under test: a clear "missing baseline row" diagnostic
        # plus nonzero exit — never a bare KeyError traceback.
        base = self.write("base.json", bench_file(
            [row(10000, 10.0), row(100000, 12.0)]))
        fresh = self.write("fresh.json", bench_file([row(10000, 10.0)]))
        result = self.run_check(fresh, base, "--require-rows")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("missing baseline row", result.stderr)
        self.assertIn("docs=100000", result.stderr)
        self.assertNotIn("KeyError", result.stderr)
        self.assertNotIn("Traceback", result.stderr)

    def test_new_fresh_row_is_reported_not_failed(self):
        base = self.write("base.json", bench_file([row(10000, 10.0)]))
        fresh = self.write("fresh.json", bench_file(
            [row(10000, 10.0), row(100000, 12.0)]))
        result = self.run_check(fresh, base)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("[new]", result.stdout)

    def test_bench_name_mismatch_is_usage_error(self):
        base = self.write("base.json", bench_file([row(10000, 10.0)], "a"))
        fresh = self.write("fresh.json", bench_file([row(10000, 10.0)], "b"))
        result = self.run_check(fresh, base)
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)
        self.assertIn("mismatch", result.stderr)

    def test_unreadable_file_is_usage_error(self):
        path = self.write("fresh.json", bench_file([row(10000, 10.0)]))
        result = self.run_check(path, os.path.join(self.tmp.name, "no.json"))
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)
        self.assertIn("cannot read", result.stderr)

    def test_schema_error_is_usage_error(self):
        good = self.write("fresh.json", bench_file([row(10000, 10.0)]))
        bad = self.write("bad.json", "[1, 2, 3]")
        result = self.run_check(good, bad)
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)
        self.assertIn("not an emit_json file", result.stderr)

    def test_p99_ratio_ceiling_gates_fresh_rows(self):
        rows = [row(100000, 10.0, us_p99=50.0, p99_vs_idle=1.4,
                    sigs_per_sec=80000.0)]
        base = self.write("base.json", bench_file(rows))
        fresh = self.write("fresh.json", bench_file(rows))
        ok = self.run_check(fresh, base, "--p99-ratio-ceiling", "2.0")
        self.assertEqual(ok.returncode, 0, ok.stdout + ok.stderr)
        bad = self.run_check(fresh, base, "--p99-ratio-ceiling", "1.2")
        self.assertEqual(bad.returncode, 1, bad.stdout + bad.stderr)
        self.assertIn("p99_vs_idle", bad.stdout)
        self.assertIn("[CEILING]", bad.stdout)

    def test_p99_ratio_not_enforced_below_min_docs(self):
        rows = [row(1000, 10.0, p99_vs_idle=5.0)]
        base = self.write("base.json", bench_file(rows))
        fresh = self.write("fresh.json", bench_file(rows))
        result = self.run_check(fresh, base, "--p99-ratio-ceiling", "1.2")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_measured_fields_do_not_split_row_identity(self):
        # sigs_per_sec / p99_vs_idle etc. are measurements: two runs with
        # different values must still join on the same row.
        base = self.write("base.json", bench_file(
            [row(100000, 10.0, sigs_per_sec=80000.0, p99_vs_idle=1.3)]))
        fresh = self.write("fresh.json", bench_file(
            [row(100000, 10.5, sigs_per_sec=90000.0, p99_vs_idle=1.1)]))
        result = self.run_check(fresh, base)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("1 rows compared", result.stdout)
        self.assertNotIn("[new]", result.stdout)
        self.assertNotIn("[missing]", result.stdout)

    def test_host_change_prints_one_note_per_file(self):
        # cores/simd are host facts: they never split a row, and a change
        # is reported once for the file, not once per row.
        base = self.write("base.json", bench_file(
            [row(10000, 10.0, cores=8, simd="scalar"),
             row(100000, 12.0, cores=8, simd="scalar")]))
        fresh = self.write("fresh.json", bench_file(
            [row(10000, 9.0, cores=4, simd="avx512f"),
             row(100000, 11.0, cores=4, simd="avx512f")]))
        result = self.run_check(fresh, base)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("2 rows compared", result.stdout)
        self.assertEqual(result.stdout.count("[host]"), 1, result.stdout)
        self.assertIn("cores 8 -> 4", result.stdout)
        self.assertIn("simd scalar -> avx512f", result.stdout)
        same = self.run_check(base, base)
        self.assertNotIn("[host]", same.stdout)
        # A baseline that never recorded the kernel says so.
        old = self.write("old.json", bench_file([row(10000, 10.0, cores=4)]))
        newer = self.write("newer.json", bench_file(
            [row(10000, 10.0, cores=4, simd="avx512f")]))
        result = self.run_check(newer, old)
        self.assertIn("simd unrecorded -> avx512f", result.stdout)
        self.assertNotIn("cores", result.stdout.split("[host]")[1])

    def test_cpu_model_is_a_host_fact(self):
        # The CPU model never splits a row, even against a baseline that
        # predates it, and a change is one [host] note for the file.
        base = self.write("base.json", bench_file(
            [row(100000, 10.0, cores=4, simd="avx512f",
                 cpu_model="Intel(R) Xeon(R) Platinum 8375C"),
             row(10000, 9.0, cores=4)]))
        fresh = self.write("fresh.json", bench_file(
            [row(100000, 10.5, cores=4, simd="avx512f",
                 cpu_model="AMD EPYC 7R13 Processor"),
             row(10000, 9.5, cores=4, cpu_model="AMD EPYC 7R13 Processor")]))
        result = self.run_check(fresh, base)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("2 rows compared", result.stdout)
        self.assertNotIn("[new]", result.stdout)
        self.assertNotIn("[missing]", result.stdout)
        self.assertEqual(result.stdout.count("[host]"), 1, result.stdout)
        self.assertIn("cpu_model Intel(R) Xeon(R) Platinum 8375C -> "
                      "AMD EPYC 7R13 Processor", result.stdout)
        self.assertIn("cpu_model unrecorded -> AMD EPYC 7R13 Processor",
                      result.stdout)


if __name__ == "__main__":
    unittest.main()
