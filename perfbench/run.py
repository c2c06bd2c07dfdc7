#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the perfbench program and the htp_serve daemon from this checkout's
sources with CMake (into $CARGO_TARGET_DIR, default .bench_build, under
perfbench/), then runs the program, whose last line of standard output is the
result JSON. NAME is one of the gated workloads flat_iscas, multilevel_rent
and serve_eco, or thread_sweep (informational) or selftest (the checker's
negative cases). --smoke runs one small job per workload.

Exit status: 0 when every output check passed; non-zero, with no result
line, when the build fails (for example outside a full checkout).
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures (once) and builds the two programs; output goes to a log."""
    log_path = out / "build.log"
    out.mkdir(parents=True, exist_ok=True)
    configure = ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(configure)
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "htp_serve", "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                # A failed configure must not be mistaken for a finished one.
                (out / "CMakeCache.txt").unlink(missing_ok=True)
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.stderr.write("perfbench: build failed (log: %s)\n" % log_path)
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        return 1
    work = out / "work"
    work.mkdir(exist_ok=True)
    # Relative paths keep the daemon's socket path short (sun_path limit).
    rel = lambda p: os.path.relpath(p, os.getcwd())
    command = [str(out / "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", rel(work),
               "--serve-binary", str(out / "htp" / "src" / "tools" / "htp_serve")]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
