#!/usr/bin/env python3
"""Run bench/regression_suite once and compare it against the committed baseline.

One run of the suite writes every gated section (circuits, multilevel,
eco; docs/benchmarks.md). The baseline (BENCH_htp.json at the repo root)
holds the same sections. Comparison rules, for every row of every
section:

* exact fields (``cost``, ``injections``, ``dijkstra_pops``, and
  ``fm_moves`` / ``partition_hash`` where a row records them) must match
  the baseline EXACTLY: the library's determinism contract makes them
  bit-identical for every threads x metric-threads combination, so any
  drift is a real behavior change, not noise;
* ``normalized_wall`` (the row's minimum-of-k wall seconds over the
  calibration kernel's, both timed in the same process) may regress by at
  most ``--tolerance`` (default 35%). Improvements never fail;
* the run must have the baseline's sections and rows, no more and no fewer,
  and its ``quick`` and ``seed`` knobs.

Usage (CI runs exactly this — see .github/workflows/ci.yml):

    python3 scripts/bench_regression.py -- --quick --threads 2 --metric-threads 2

Pass ``--update`` to re-bless the baseline instead of checking: the suite
runs 10 times, the exact fields must agree across the runs, and each row is
written from the run at its lower-median ``normalized_wall``. Commit the
resulting BENCH_htp.json together with the change that moved the numbers.
Stdlib only.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO / "BENCH_htp.json"
EXACT_FIELDS = ("cost", "injections", "dijkstra_pops", "fm_moves",
                "partition_hash")
KNOBS = ("quick", "seed")
TOLERANCE = 0.35
BLESS_RUNS = 10


def sections(doc):
    """The gated row lists of a suite document, by section name."""
    return {key: rows for key, rows in doc.items() if isinstance(rows, list)}


def compare(baseline, current, tolerance=TOLERANCE):
    """Returns the failures of `current` against `baseline`, printing one
    status line per row."""
    failures = [
        f"baseline was recorded with {knob}={baseline.get(knob)} but this "
        f"run used {current.get(knob)}"
        for knob in KNOBS if baseline.get(knob) != current.get(knob)
    ]
    base_sections, cur_sections = sections(baseline), sections(current)
    if sorted(base_sections) != sorted(cur_sections):
        failures.append(f"sections differ: baseline {sorted(base_sections)} "
                        f"vs current {sorted(cur_sections)}")
    for section, base_rows in base_sections.items():
        if section not in cur_sections:
            continue
        base_by_name = {row["name"]: row for row in base_rows}
        cur_by_name = {row["name"]: row for row in cur_sections[section]}
        if sorted(base_by_name) != sorted(cur_by_name):
            failures.append(f"{section}: rows differ: baseline "
                            f"{sorted(base_by_name)} vs current "
                            f"{sorted(cur_by_name)}")
            continue
        for name, base in base_by_name.items():
            cur = cur_by_name[name]
            for field in EXACT_FIELDS:
                if base.get(field) != cur.get(field):
                    failures.append(
                        f"{section}/{name}: exact field '{field}' changed: "
                        f"baseline {base.get(field)} vs current "
                        f"{cur.get(field)} (if intended, re-bless with "
                        f"--update and commit BENCH_htp.json)")
            ratio = cur["normalized_wall"] / base["normalized_wall"]
            regressed = ratio > 1.0 + tolerance
            print(f"{section}/{name}: normalized wall "
                  f"{base['normalized_wall']:.3f} -> "
                  f"{cur['normalized_wall']:.3f} ({ratio:.2f}x, "
                  f"{'REGRESSION' if regressed else 'ok'})")
            if regressed:
                failures.append(
                    f"{section}/{name}: normalized wall regressed "
                    f"{ratio:.2f}x (> {1.0 + tolerance:.2f}x allowed)")
    return failures


def bless(runs):
    """The baseline from repeated runs of one build: the last run's document
    with each row taken from the run at its lower-median normalized_wall.
    Raises ValueError when the runs disagree on anything but wall time."""
    for run in runs[:-1]:
        failures = compare(runs[-1], run, tolerance=float("inf"))
        if failures:
            raise ValueError("runs disagree: " + "; ".join(failures))
    blessed = runs[-1]
    for section, rows in sections(blessed).items():
        for i, row in enumerate(rows):
            samples = [next(r for r in sections(run)[section]
                            if r["name"] == row["name"]) for run in runs]
            median = statistics.median_low(r["normalized_wall"]
                                           for r in samples)
            rows[i] = next(r for r in samples if r["normalized_wall"] == median)
    return blessed


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
        default=TOLERANCE,
        help=f"allowed fractional normalized-wall regression (default "
        f"{TOLERANCE})",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help=f"re-bless the baseline from {BLESS_RUNS} runs instead of "
        f"checking",
    )
    parser.add_argument(
        "suite_args",
        nargs="*",
        help="arguments forwarded to regression_suite (after --), "
        "e.g. --quick --threads 2 --metric-threads 2",
    )
    args = parser.parse_args()

    if args.update:
        runs = [run_suite(args.binary, args.suite_args)
                for _ in range(BLESS_RUNS)]
        with open(args.baseline, "w") as f:
            json.dump(bless(runs), f, indent=2)
            f.write("\n")
        print(f"baseline written to {args.baseline}")
        return 0

    current = run_suite(args.binary, args.suite_args)
    with open(args.baseline) as f:
        baseline = json.load(f)
    failures = compare(baseline, current, args.tolerance)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("bench regression check passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
