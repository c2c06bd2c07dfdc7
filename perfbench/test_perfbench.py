#!/usr/bin/env python3
"""The benchmark's own tests (about a minute after the first build).

    python3 perfbench/test_perfbench.py

* The checker's negative cases: a corrupted partition, a wrong cost and a
  mismatched repeat are each counted as failures; untouched outputs pass.
* Smoke runs: one small job per workload, untraced and traced. Every metric
  BENCHMARK.json names prints exactly once, with its unit and a finite
  value, both as a summary line and in the final JSON line, and nothing
  else is in that JSON line.
* Without the repository's sources next to it, the benchmark fails
  without printing a result.
"""

import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], capture_output=True, text=True, cwd=cwd,
                          env=env, timeout=600)


class CheckerTest(unittest.TestCase):
    def test_negative_cases_count_as_failures(self):
        p = run("--workload", "selftest", "--seed", "5")
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertIn("selftest: ok", p.stdout)
        for case in ("wrong cost is a failure",
                     "over-capacity partition is a failure",
                     "truncated partition is a failure",
                     "mismatched repeat is a failure"):
            line = next(l for l in p.stdout.splitlines() if l.startswith(case))
            self.assertIn("ok -- checker:", line)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        p = run("--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--smoke")
        self.assertEqual(p.returncode, 0, p.stdout[-2000:] + p.stderr[-2000:])
        lines = p.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in expected))
        for m in expected:
            value = result["metrics"][m["name"]]
            self.assertEqual(value["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(value["value"]), m["name"])
            summary = [l for l in lines[:-1]
                       if l.split()[:2] == ["metric", m["name"]]]
            self.assertEqual(len(summary), 1, m["name"])
            self.assertIn(" " + m["unit"] + " ", summary[0] + " ")
        if not trace:
            self.assertEqual(
                len([l for l in lines
                     if l.split()[:2] == ["metric", "failed_share"]]), 1)

    def test_flat_iscas(self):
        self.check("flat_iscas", 0)
        self.check("flat_iscas", 1)

    def test_multilevel_rent(self):
        self.check("multilevel_rent", 0)
        self.check("multilevel_rent", 1)

    def test_serve_eco(self):
        self.check("serve_eco", 0)
        self.check("serve_eco", 1)


class IsolationTest(unittest.TestCase):
    def test_fails_without_the_repository_sources(self):
        lone = ROOT / ".bench_build" / "perfbench-isolated"
        shutil.rmtree(lone, ignore_errors=True)
        shutil.copytree(HERE, lone / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", lone / "BENCHMARK.json")
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        try:
            p = run("--workload", "flat_iscas", "--seed", "1", "--seconds",
                    "1", "--trace", "0", cwd=lone, env=env)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(lone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
