#!/usr/bin/env python3
"""Run bench/regression_suite and compare against the committed baseline.

The baseline (BENCH_htp.json at the repo root) records, per circuit, the
deterministic work fields of a quick-mode FLOW run — cost, injections,
dijkstra_pops — plus wall-clock seconds normalized by a fixed calibration
kernel timed inside the same process. Comparison rules:

* deterministic fields must match the baseline EXACTLY: these are covered
  by the library's determinism contract (bit-identical for every
  threads x metric-threads combination), so any drift is a real behavior
  change, not noise. ``fm_moves`` (FM moves applied, emitted by
  bench/multilevel_scale) is compared exactly wherever the baseline row
  records it, which gates FM work by count rather than by wall time, and so
  is ``partition_hash`` (multilevel_scale's FNV-1a hash of the partition
  text after a whole-graph FM), which pins the partition itself;
* ``normalized_wall`` may regress by at most ``--tolerance`` (default 15%).
  Normalization by the calibration kernel makes the ratio transfer across
  hosts of different speeds; improvements never fail the check.

Usage (CI runs exactly this — see .github/workflows/ci.yml):

    python3 scripts/bench_regression.py --binary build-release/bench/regression_suite \\
        -- --quick --threads 2 --metric-threads 2

Pass ``--update`` to regenerate the baseline instead of checking (commit
the resulting BENCH_htp.json together with the change that moved the
numbers, e.g. after retuning the quick suite or intentionally changing
results). Stdlib only.

The baseline holds one row list per gated bench: ``circuits`` for
bench/regression_suite (the default) and ``multilevel`` for
bench/multilevel_scale. ``--section NAME`` selects which baseline list the
current run's rows are compared against (the suite binary always emits its
rows under ``circuits`` in its own output); ``--update --section NAME``
rewrites only that list, leaving the others untouched:

    python3 scripts/bench_regression.py \\
        --binary build-release/bench/multilevel_scale --section multilevel \\
        -- --quick --threads 2 --metric-threads 2
"""

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO / "BENCH_htp.json"
EXACT_FIELDS = ("cost", "injections", "dijkstra_pops")
# Exact as well, but only for baseline rows that record them.
OPTIONAL_EXACT_FIELDS = ("fm_moves", "partition_hash")


def run_suite(binary, extra_args):
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_path = pathlib.Path(tmp.name)
    cmd = [str(binary), "--json", str(out_path)] + list(extra_args)
    print("+ " + " ".join(cmd), flush=True)
    subprocess.run(cmd, check=True)
    with open(out_path) as f:
        result = json.load(f)
    out_path.unlink()
    return result


def compare(baseline_rows, current_rows, tolerance):
    failures = []
    base_by_name = {c["name"]: c for c in baseline_rows}
    cur_by_name = {c["name"]: c for c in current_rows}
    if sorted(base_by_name) != sorted(cur_by_name):
        failures.append(
            f"circuit sets differ: baseline {sorted(base_by_name)} vs "
            f"current {sorted(cur_by_name)}"
        )
        return failures
    for name, base in base_by_name.items():
        cur = cur_by_name[name]
        fields = EXACT_FIELDS + tuple(
            f for f in OPTIONAL_EXACT_FIELDS if f in base)
        for field in fields:
            if base[field] != cur.get(field):
                failures.append(
                    f"{name}: deterministic field '{field}' changed: "
                    f"baseline {base[field]} vs current {cur.get(field)} "
                    f"(exact match required; if intended, rerun with "
                    f"--update and commit BENCH_htp.json)"
                )
        ratio = cur["normalized_wall"] / base["normalized_wall"]
        status = "ok" if ratio <= 1.0 + tolerance else "REGRESSION"
        print(
            f"{name}: normalized wall {base['normalized_wall']:.3f} -> "
            f"{cur['normalized_wall']:.3f} ({ratio:.2f}x, {status})"
        )
        if ratio > 1.0 + tolerance:
            failures.append(
                f"{name}: normalized wall regressed {ratio:.2f}x "
                f"(> {1.0 + tolerance:.2f}x allowed)"
            )
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--binary",
        default=str(REPO / "build-release" / "bench" / "regression_suite"),
        help="path to the built regression_suite binary",
    )
    parser.add_argument(
        "--baseline",
        default=str(DEFAULT_BASELINE),
        help="committed baseline JSON (default: repo-root BENCH_htp.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed fractional normalized-wall regression (default 0.15)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="write the baseline from this run instead of checking",
    )
    parser.add_argument(
        "--section",
        default="circuits",
        help="baseline row list to compare/update (default 'circuits'; "
        "multilevel_scale rows live under 'multilevel')",
    )
    parser.add_argument(
        "suite_args",
        nargs="*",
        help="arguments forwarded to regression_suite (after --), "
        "e.g. --quick --threads 2 --metric-threads 2",
    )
    args = parser.parse_args()

    current = run_suite(args.binary, args.suite_args)
    if args.update:
        # Replace only the selected section; other gated benches' baselines
        # (and the shared knob fields, when untouched) survive the rewrite.
        baseline_path = pathlib.Path(args.baseline)
        baseline = {}
        if baseline_path.exists():
            with open(baseline_path) as f:
                baseline = json.load(f)
        for key, value in current.items():
            if key != "circuits":
                baseline[key] = value
        baseline[args.section] = current["circuits"]
        with open(baseline_path, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        print(f"baseline section '{args.section}' written to {args.baseline}")
        return 0

    with open(args.baseline) as f:
        baseline = json.load(f)
    for knob in ("quick", "seed"):
        if baseline.get(knob) != current.get(knob):
            print(
                f"error: baseline was recorded with {knob}="
                f"{baseline.get(knob)} but this run used {current.get(knob)}",
                file=sys.stderr,
            )
            return 1
    if args.section not in baseline:
        print(
            f"error: baseline has no '{args.section}' section; regenerate "
            f"with --update --section {args.section}",
            file=sys.stderr,
        )
        return 1
    failures = compare(baseline[args.section], current["circuits"],
                       args.tolerance)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("bench regression check passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
