#!/usr/bin/env python3
"""Runs one workload on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload lubm-http --seeds 1-10 --seconds 20

For every metric it prints the median and the distance between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of the
median, plus the failed share of each run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    values = {}
    units = {}
    shares = []
    for seed in seeds_of(args.seeds):
        run = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            check=False)
        if run.returncode != 0:
            print(f"seed {seed}: exit {run.returncode}")
            continue
        result = json.loads(run.stdout.strip().splitlines()[-1])
        shares.append(result["failed"] / result["attempted"])
        print(f"seed {seed}: attempted {result['attempted']} "
              f"failed {result['failed']} " +
              " ".join(f"{k}={v['value']:.4g}"
                       for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    print(f"failed shares: {sorted(set(shares))}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:32s} median {median:12.5g} {units[name]:6s} "
              f"IQR/median {spread:7.2%}")


if __name__ == "__main__":
    main()
