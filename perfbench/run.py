#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload dc_fleet --seed 1 --seconds 10 --trace 0

Run from the repository root. The library and the benchmark program
(chaos_perfbench) are compiled into .bench_build/ (configured once,
rebuilt incrementally); build output goes to stderr, so the last line
of stdout is the program's JSON summary. The exit code is the
program's: non-zero when a correctness check failed or the build did
not succeed.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("dc_fleet", "rack_wire")
BUILD_DIR = ".bench_build"
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def build(here):
    """Configure (first time) and build the program; return its path."""
    binary = os.path.join(BUILD_DIR, "chaos_perfbench")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if _has("ninja") else []
        subprocess.run(
            ["cmake", "-S", here, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE] + generator,
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "chaos_perfbench",
         "--parallel", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    return binary


def _has(program):
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (self-test only)")
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    try:
        binary = build(here)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
