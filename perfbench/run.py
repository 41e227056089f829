#!/usr/bin/env python3
"""Builds and runs the keyword-search benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dblp-fig5 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-check

The first run configures and builds perfbench/ (engine sources from src/)
into .bench_build/perfbench, or into $CARGO_TARGET_DIR/perfbench when that
is set; later runs only check that the build is current. Build output goes
to stderr. The benchmark binary prints one JSON result line, which this
script repeats as the last line of its standard output.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out_dir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if subprocess.run(["ninja", "--version"], capture_output=True,
                              check=False).returncode == 0:
                configure += ["-G", "Ninja"]
            subprocess.run(configure, stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", out_dir, "--target",
                        "grasp_perfbench", "-j", jobs],
                       stdout=sys.stderr, check=True)
    return os.path.join(out_dir, "grasp_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["dblp-fig5", "tap-explore", "lubm-http"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="test the benchmark's own checks and arithmetic")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (subprocess.CalledProcessError, FileNotFoundError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    work_dir = os.path.join(out_dir, "work")
    if args.self_check:
        command = [binary, "--self-check"]
    else:
        command = [binary, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--work-dir", work_dir]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
