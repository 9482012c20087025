#!/usr/bin/env python3
"""smmbench: build and run the seeded smmkit benchmark.

    python3 smmbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 smmbench/run.py --describe     # workloads and the per-layer metric table
    python3 smmbench/run.py --selftest     # the benchmark's own tests

Run from the repository root. The first call configures and builds the
benchmark, and the library from src/, under .bench_build/ (or under
$CARGO_TARGET_DIR when set); later calls only rebuild what changed. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. Traced runs write their spans under .bench_out/.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_root():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(build_dir, target, tests):
    """Configure (once) and build `target`; returns False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DSMMBENCH_TESTS=" + ("ON" if tests else "OFF")])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", target])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"smmbench: build step failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print("smmbench: build failed", file=sys.stderr)
            return False
    return True


def run(cmd, timeout):
    """Run `cmd`, passing its stdout through; returns its exit code."""
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"smmbench: {cmd[0]} exceeded {timeout} s", file=sys.stderr)
        return 1


def main(argv):
    if argv == ["--selftest"]:
        build_dir = build_root() / "smmbench-tests"
        if not build(build_dir, "smmbench_tests", tests=True):
            return 1
        return run([str(build_dir / "smmbench_tests")], 600)
    build_dir = build_root() / "smmbench"
    if not build(build_dir, "smmbench", tests=False):
        return 1
    return run([str(build_dir / "smmbench"), *argv], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
