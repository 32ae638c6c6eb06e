#!/usr/bin/env python3
"""Unit tests for tools/prom_check.py (run by the CI workflow).

Feeds hand-written Prometheus text exposition through real subprocess
invocations and checks the exit-code contract: 0 for a well-formed scrape
carrying every required metric, 1 for any validation failure — a
malformed line, an empty HELP text, a histogram whose buckets do not end
at +Inf or disagree with _count, or a missing required metric.

Usage: python3 tools/test_prom_check.py
"""

import os
import subprocess
import sys
import unittest

CHECK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "prom_check.py")

GOOD = """\
# HELP fmeter_index_documents Signatures stored in the sharded index
# TYPE fmeter_index_documents gauge
fmeter_index_documents 42
# HELP fmeter_stage_refreeze_ns Time of one fold
# TYPE fmeter_stage_refreeze_ns histogram
fmeter_stage_refreeze_ns_bucket{le="1000"} 1
fmeter_stage_refreeze_ns_bucket{le="+Inf"} 2
fmeter_stage_refreeze_ns_sum 3500
fmeter_stage_refreeze_ns_count 2
"""


def run(text, *args):
    proc = subprocess.run([sys.executable, CHECK, *args], input=text,
                          capture_output=True, text=True)
    return proc.returncode, proc.stderr


class PromCheckTest(unittest.TestCase):
    def test_well_formed_scrape_passes(self):
        code, err = run(GOOD, "--require", "fmeter_index_documents",
                        "--require", "fmeter_stage_refreeze_ns")
        self.assertEqual(code, 0, err)

    def test_empty_help_text_fails(self):
        for line in ("# HELP fmeter_stage_refreeze_ns ",
                     "# HELP fmeter_stage_refreeze_ns",
                     "# HELP fmeter_stage_refreeze_ns    "):
            text = GOOD.replace(
                "# HELP fmeter_stage_refreeze_ns Time of one fold", line)
            code, err = run(text)
            self.assertEqual(code, 1, repr(line))
            self.assertIn("empty HELP text", err)

    def test_missing_required_metric_fails(self):
        code, err = run(GOOD, "--require", "fmeter_absent_total")
        self.assertEqual(code, 1)
        self.assertIn("required metric missing: fmeter_absent_total", err)

    def test_malformed_sample_fails(self):
        code, err = run(GOOD + "fmeter_index_documents forty-two\n")
        self.assertEqual(code, 1)
        self.assertIn("malformed sample", err)

    def test_histogram_inf_bucket_must_match_count(self):
        code, err = run(GOOD.replace("_count 2", "_count 3"))
        self.assertEqual(code, 1)
        self.assertIn("+Inf bucket", err)

    def test_histogram_must_end_at_inf(self):
        text = GOOD.replace('fmeter_stage_refreeze_ns_bucket{le="+Inf"} 2\n',
                            "")
        code, err = run(text)
        self.assertEqual(code, 1)
        self.assertIn('does not end with le="+Inf"', err)


if __name__ == "__main__":
    unittest.main()
