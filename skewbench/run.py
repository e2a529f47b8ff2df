#!/usr/bin/env python3
"""Build and run the skewopt benchmark.

Usage (from the repository root):

    python3 skewbench/run.py --workload table5|delta \
        --seed N --seconds S --trace 0|1

Configures and builds the benchmark (and the optimizer library from src/)
with CMake into $CARGO_TARGET_DIR/skewbench (default .bench_build/skewbench),
then runs it. Build output goes to stderr; the benchmark's stdout, whose
last line is the JSON result, passes through unchanged. Exits non-zero
without a result when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "skewbench")


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "skewbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    out = build_dir()
    if not build(out):
        print("skewbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(out, "skewbench")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
