#!/usr/bin/env python3
"""Builds and runs the serving benchmark.

Usage (from the repository root):

    python3 servebench/run.py --workload wire_rows --seed 1 --seconds 20 --trace 0

The first run configures and builds servebench/ (a CMake project that
compiles the library from ../src) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later runs rebuild incrementally. The binary's standard
output is passed through, so its last line is the result JSON. Traced runs
write their spans under <build dir>/spans/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wire_rows", "approx_bounds", "publish_mix")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_root):
    build_dir = os.path.join(build_root, "servebench")
    log_path = os.path.join(build_root, "servebench-build.log")
    os.makedirs(build_root, exist_ok=True)
    steps = []
    # Configure until a generate step has succeeded; afterwards the build
    # re-runs CMake itself when a CMakeLists.txt changes.
    if not os.path.isfile(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-G", "Unix Makefiles",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "servebench",
                  "-j", str(max(1, min(4, os.cpu_count() or 1)))])
    with open(log_path, "a") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log_path)
            if done.returncode != 0:
                fail("build failed; see " + log_path)
    return os.path.join(build_dir, "servebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the library sources (src/) are missing next to servebench/")

    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(build_root)
    spans_dir = os.path.join(build_root, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--spans", spans]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
