#!/usr/bin/env python3
"""Unit tests for the bench_diff.py regression gate.

The key asymmetry under test: a fresh run with no baseline entry is
informational (a new bench was added; --update will pick it up), but a
baseline entry with no fresh run is a hard failure (the gate silently
stopped checking something). Run directly or via ctest:

    python3 tools/test_bench_diff.py
"""
import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_diff  # noqa: E402


def report(bench, records):
    return {
        "schema_version": 1,
        "bench": bench,
        "records": [
            {
                "query": q,
                "profile": p,
                "failed": failed,
                "sim": {"total_s": total},
            }
            for (q, p, total, failed) in records
        ],
    }


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def path(self, name, doc):
        p = os.path.join(self.dir.name, name)
        with open(p, "w") as f:
            json.dump(doc, f)
        return p

    def run_diff(self, baseline_entries, fresh_reports, tolerance=0.05):
        """tolerance=None runs the gate at its default tolerance."""
        baseline = self.path(
            "baseline.json", bench_diff.entries_to_baseline(baseline_entries)
        )
        argv = ["bench_diff.py", "--baseline", baseline]
        if tolerance is not None:
            argv += ["--tolerance", str(tolerance)]
        return bench_diff.main(argv + fresh_reports)

    @staticmethod
    def entry(total, failed=False):
        return {"sim_total_s": total, "failed": failed}

    def test_identical_reports_pass(self):
        base = {("b", "q1", "ysmart"): self.entry(10.0)}
        fresh = self.path("fresh.json", report("b", [("q1", "ysmart", 10.0, False)]))
        self.assertEqual(self.run_diff(base, [fresh]), 0)

    def test_regression_fails(self):
        base = {("b", "q1", "ysmart"): self.entry(10.0)}
        fresh = self.path("fresh.json", report("b", [("q1", "ysmart", 12.0, False)]))
        self.assertEqual(self.run_diff(base, [fresh]), 1)

    def test_default_gate_is_exact_for_a_slower_run(self):
        base = {("b", "q1", "ysmart"): self.entry(246.819241691436)}
        # +1e-7 relative: far below any printed figure, far above 1e-9.
        slower = self.path(
            "fresh.json",
            report("b", [("q1", "ysmart", 246.819241691436 * (1 + 1e-7), False)]),
        )
        self.assertEqual(self.run_diff(base, [slower], tolerance=None), 1)

    def test_default_gate_fails_an_unblessed_improvement(self):
        # Faster is drift too: the baseline must be refreshed with it.
        base = {("b", "q1", "ysmart"): self.entry(246.819241691436)}
        faster = self.path(
            "fresh.json",
            report("b", [("q1", "ysmart", 246.819241691436 * (1 - 1e-7), False)]),
        )
        self.assertEqual(self.run_diff(base, [faster], tolerance=None), 1)

    def test_default_gate_passes_within_relative_1e9(self):
        base = {("b", "q1", "ysmart"): self.entry(1000.0)}
        fresh = self.path(
            "fresh.json",
            report("b", [("q1", "ysmart", 1000.0 * (1 + 1e-12), False)]),
        )
        self.assertEqual(self.run_diff(base, [fresh], tolerance=None), 0)

    def test_improvement_beyond_explicit_tolerance_fails(self):
        base = {("b", "q1", "ysmart"): self.entry(10.0)}
        fresh = self.path("fresh.json", report("b", [("q1", "ysmart", 8.0, False)]))
        self.assertEqual(self.run_diff(base, [fresh]), 1)

    def test_summary_names_the_relative_tolerance(self):
        base = {("b", "q1", "ysmart"): self.entry(10.0)}
        fresh = self.path("fresh.json", report("b", [("q1", "ysmart", 10.0, False)]))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(self.run_diff(base, [fresh], tolerance=None), 0)
        self.assertIn("(relative tolerance 1e-09)", out.getvalue())

    def test_new_run_is_informational(self):
        base = {("b", "q1", "ysmart"): self.entry(10.0)}
        fresh = self.path(
            "fresh.json",
            report("b", [("q1", "ysmart", 10.0, False),
                         ("q2", "ysmart", 99.0, False)]),
        )
        self.assertEqual(self.run_diff(base, [fresh]), 0)

    def test_lost_baseline_run_is_hard_failure(self):
        base = {
            ("b", "q1", "ysmart"): self.entry(10.0),
            ("b", "q2", "ysmart"): self.entry(20.0),
        }
        fresh = self.path("fresh.json", report("b", [("q1", "ysmart", 10.0, False)]))
        self.assertEqual(self.run_diff(base, [fresh]), 1)

    def test_new_failure_fails(self):
        base = {("b", "q1", "ysmart"): self.entry(10.0)}
        fresh = self.path("fresh.json", report("b", [("q1", "ysmart", 10.0, True)]))
        self.assertEqual(self.run_diff(base, [fresh]), 1)

    def test_baseline_failure_stays_allowed(self):
        base = {("b", "q1", "ysmart"): self.entry(10.0, failed=True)}
        fresh = self.path("fresh.json", report("b", [("q1", "ysmart", 10.0, True)]))
        self.assertEqual(self.run_diff(base, [fresh]), 0)

    def update_baseline(self, baseline_entries, fresh_reports, extra):
        baseline = self.path(
            "baseline.json", bench_diff.entries_to_baseline(baseline_entries)
        )
        argv = (["bench_diff.py", "--baseline", baseline, "--update"]
                + extra + fresh_reports)
        rc = bench_diff.main(argv)
        with open(baseline) as f:
            return rc, bench_diff.baseline_to_entries(json.load(f))

    def test_update_only_refreshes_one_run_keeps_others(self):
        base = {
            ("b", "q1", "ysmart"): self.entry(10.0),
            ("b", "q2", "ysmart"): self.entry(20.0),
        }
        # Fresh reports changed both runs, but only q1 is being blessed.
        fresh = self.path(
            "fresh.json",
            report("b", [("q1", "ysmart", 11.0, False),
                         ("q2", "ysmart", 99.0, False)]),
        )
        rc, updated = self.update_baseline(base, [fresh], ["--only", "b/q1"])
        self.assertEqual(rc, 0)
        self.assertEqual(updated[("b", "q1", "ysmart")]["sim_total_s"], 11.0)
        self.assertEqual(updated[("b", "q2", "ysmart")]["sim_total_s"], 20.0)

    def test_update_only_matches_component_prefix(self):
        base = {
            ("b", "q1", "ysmart"): self.entry(10.0),
            ("b", "q1", "hive"): self.entry(30.0),
            ("c", "q1", "ysmart"): self.entry(40.0),
        }
        fresh_b = self.path(
            "fresh_b.json",
            report("b", [("q1", "ysmart", 12.0, False),
                         ("q1", "hive", 33.0, False)]),
        )
        fresh_c = self.path(
            "fresh_c.json", report("c", [("q1", "ysmart", 44.0, False)])
        )
        rc, updated = self.update_baseline(
            base, [fresh_b, fresh_c], ["--only", "b"]
        )
        self.assertEqual(rc, 0)
        self.assertEqual(updated[("b", "q1", "ysmart")]["sim_total_s"], 12.0)
        self.assertEqual(updated[("b", "q1", "hive")]["sim_total_s"], 33.0)
        self.assertEqual(updated[("c", "q1", "ysmart")]["sim_total_s"], 40.0)
        # "b/q" must NOT prefix-match "b/q1": components only.
        rc, updated = self.update_baseline(
            updated, [fresh_b, fresh_c], ["--only", "b/q"]
        )
        self.assertEqual(rc, 2)

    def test_update_only_without_update_is_usage_error(self):
        fresh = self.path("fresh.json", report("b", [("q1", "ysmart", 1.0, False)]))
        rc = bench_diff.main(
            ["bench_diff.py", "--baseline",
             os.path.join(self.dir.name, "nope.json"),
             "--only", "b/q1", fresh]
        )
        self.assertEqual(rc, 2)

    def test_update_only_with_no_match_is_error(self):
        base = {("b", "q1", "ysmart"): self.entry(10.0)}
        fresh = self.path("fresh.json", report("b", [("q1", "ysmart", 11.0, False)]))
        rc, updated = self.update_baseline(base, [fresh], ["--only", "zzz"])
        self.assertEqual(rc, 2)
        self.assertEqual(updated[("b", "q1", "ysmart")]["sim_total_s"], 10.0)


if __name__ == "__main__":
    unittest.main()
