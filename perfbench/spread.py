#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload certified-session --seeds 1-10 [--trace 0]

For every metric it prints the median over the seeds and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound from BENCHMARK.json.
Results are also appended as JSON lines to --out when given. The wall
time of each run, build check included, goes to stderr.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    walls = []
    for seed in parse_seeds(args.seeds):
        start = time.monotonic()
        run = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        walls.append(time.monotonic() - start)
        if run.returncode != 0:
            sys.stderr.write(run.stderr)
            sys.exit(f"seed {seed}: exit code {run.returncode}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed,
                                    "result": result}) + "\n")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: ok in {walls[-1]:.1f} s", file=sys.stderr)

    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else "  <-- above bound/3"
        print(f"{name:32s} median {med:12.6g}  spread {spread:6.3f}"
              f"  bound {bound}{flag}")


if __name__ == "__main__":
    main()
