#!/usr/bin/env python3
"""Build the stack benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The library and the benchmark are
compiled with CMake into the build directory ($CARGO_TARGET_DIR when set,
else .bench_build); the first run builds, later runs only check that the
build is current. Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. Spans of traced runs are written to
<build dir>/spans/.
"""
import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "solver.cpp")):
        sys.exit("run.py: library sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(step)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    out_dir = build_dir()
    build(out_dir)

    if args.selftest:
        command = [os.path.join(out_dir, "stackbench_selftest"),
                   os.path.join(ROOT, "BENCHMARK.json")]
    else:
        if args.workload is None or args.seed is None:
            parser.error("--workload and --seed are required")
        span_dir = os.path.join(out_dir, "spans")
        os.makedirs(span_dir, exist_ok=True)
        command = [os.path.join(out_dir, "stackbench"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--span-dir", span_dir]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
