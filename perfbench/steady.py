"""Steadiness check: run one workload k times and show each metric's
spread next to its bound.

    python3 perfbench/steady.py --workload serve-object -k 10 \\
        [--first-seed 1]

Run from the root of a checkout. Each run gets its own seed and
BENCHMARK.json's ``run_seconds``, untraced, as the acceptance runs do.
For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``), the interquartile range and the max-min
range as shares of the median, and the bound from BENCHMARK.json; a
spread above a third of the bound is flagged, since two sets of runs
must agree within the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, check=False
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"run with seed {seed} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median if median else 0.0,
        "range_share": (max(values) - min(values)) / median
        if median else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("-k", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.k < 2:
        parser.error("-k must be at least 2 for quartiles")
    bench = load_benchmark()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = []
    for seed in range(args.first_seed, args.first_seed + args.k):
        start = time.monotonic()
        result = run_once(args.workload, seed, seconds)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"wall={time.monotonic() - start:.1f}s", flush=True)

    print(f"\n{args.workload}: {args.k} runs, --seconds {seconds}")
    print(f"{'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr%':>7s} {'range%':>7s} {'bound%':>7s}")
    for name, first in results[0]["metrics"].items():
        stats = spread([r["metrics"][name]["value"] for r in results])
        bound = bounds[name]
        flag = "  over bound/3" if stats["iqr_share"] > bound / 3 else ""
        print(f"{name:36s} {stats['median']:12.4f} {stats['q1']:12.4f} "
              f"{stats['q3']:12.4f} {stats['iqr_share'] * 100:7.2f} "
              f"{stats['range_share'] * 100:7.2f} {bound * 100:7.1f}"
              f" {first['unit']}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
