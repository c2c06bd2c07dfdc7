#!/usr/bin/env python3
"""Tests of scripts/bench_regression.py's comparison, on synthetic runs.

Run directly (stdlib only); CTest registers it as bench_regression_script.
"""

import contextlib
import copy
import io
import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import bench_regression  # noqa: E402


def row(name, wall, **exact):
    fields = {"cost": 80, "injections": 302, "dijkstra_pops": 305376}
    fields.update(exact)
    return {"name": name, "normalized_wall": wall, **fields}


BASELINE = {
    "schema": "htp-bench-regression-v2",
    "quick": True,
    "seed": 1997,
    "circuits": [row("c1355", 2.0), row("c2670", 4.0)],
    "multilevel": [row("rent10k", 1.5, fm_moves=610,
                       partition_hash="7e0550fd3d1c2798")],
    "eco": [row("eco10k_cold", 6.0), row("eco10k_warm", 40.0)],
}


def failures_of(current, baseline=BASELINE):
    with contextlib.redirect_stdout(io.StringIO()):
        return bench_regression.compare(baseline, current)


def edited(edit):
    current = copy.deepcopy(BASELINE)
    edit(current)
    return current


class CompareTest(unittest.TestCase):
    def test_identical_run_passes(self):
        self.assertEqual(failures_of(copy.deepcopy(BASELINE)), [])

    def test_faster_rows_pass(self):
        def faster(doc):
            for rows in bench_regression.sections(doc).values():
                for r in rows:
                    r["normalized_wall"] *= 0.5
        self.assertEqual(failures_of(edited(faster)), [])

    def test_slowdown_within_tolerance_passes(self):
        current = edited(lambda d: d["eco"][1].update(normalized_wall=53.9))
        self.assertEqual(failures_of(current), [])

    def test_row_over_tolerance_fails(self):
        for section, index in (("circuits", 0), ("multilevel", 0), ("eco", 1)):
            with self.subTest(section=section):
                current = copy.deepcopy(BASELINE)
                r = current[section][index]
                r["normalized_wall"] *= 1.0 + bench_regression.TOLERANCE + 0.01
                failures = failures_of(current)
                self.assertEqual(len(failures), 1)
                self.assertIn("regressed", failures[0])

    def test_changed_exact_field_fails(self):
        for field, value in (("cost", 81), ("injections", 303),
                             ("dijkstra_pops", 305377), ("fm_moves", 611),
                             ("partition_hash", "0000000000000000")):
            with self.subTest(field=field):
                current = edited(lambda d: d["multilevel"][0].update(
                    {field: value}))
                failures = failures_of(current)
                self.assertEqual(len(failures), 1)
                self.assertIn(f"'{field}'", failures[0])

    def test_exact_field_gained_or_lost_fails(self):
        gained = edited(lambda d: d["circuits"][0].update(fm_moves=0))
        self.assertTrue(failures_of(gained))
        lost = edited(lambda d: d["multilevel"][0].pop("partition_hash"))
        self.assertTrue(failures_of(lost))

    def test_missing_section_fails(self):
        self.assertTrue(failures_of(edited(lambda d: d.pop("eco"))))

    def test_extra_section_fails(self):
        current = edited(lambda d: d.update(quality=[row("q1", 1.0)]))
        self.assertTrue(failures_of(current))

    def test_missing_row_fails(self):
        self.assertTrue(failures_of(edited(lambda d: d["eco"].pop())))

    def test_extra_row_fails(self):
        current = edited(lambda d: d["circuits"].append(row("c6288", 35.0)))
        self.assertTrue(failures_of(current))

    def test_quick_mismatch_fails(self):
        failures = failures_of(edited(lambda d: d.update(quick=False)))
        self.assertTrue(any("quick" in f for f in failures))

    def test_seed_mismatch_fails(self):
        failures = failures_of(edited(lambda d: d.update(seed=7)))
        self.assertTrue(any("seed" in f for f in failures))


class BlessTest(unittest.TestCase):
    def runs_with_walls(self, walls):
        runs = []
        for wall in walls:
            run = copy.deepcopy(BASELINE)
            run["circuits"][0]["normalized_wall"] = wall
            run["circuits"][0]["wall_seconds"] = wall / 100
            runs.append(run)
        return runs

    def test_rows_come_from_the_lower_median_run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            blessed = bench_regression.bless(
                self.runs_with_walls([3.0, 1.0, 4.0, 2.0]))
        self.assertEqual(blessed["circuits"][0]["normalized_wall"], 2.0)
        self.assertEqual(blessed["circuits"][0]["wall_seconds"], 0.02)
        self.assertEqual(blessed["eco"], BASELINE["eco"])

    def test_runs_that_disagree_on_an_exact_field_fail(self):
        runs = self.runs_with_walls([1.0, 2.0])
        runs[0]["eco"][0]["dijkstra_pops"] += 1
        with contextlib.redirect_stdout(io.StringIO()):
            with self.assertRaises(ValueError):
                bench_regression.bless(runs)


if __name__ == "__main__":
    unittest.main()
