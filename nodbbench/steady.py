#!/usr/bin/env python3
"""Steadiness helper: runs one workload once per seed and prints, for
every metric, the median, the quartiles and the spread (q3 - q1) / median
across the runs, next to the metric's bound in BENCHMARK.json.

    python3 nodbbench/steady.py --workload served_mix --seeds 1-10 --seconds 10

Quartiles are statistics.quantiles(values, n=4). A spread under a third
of the bound is steady enough for the bound to hold.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for item in text.split(","):
        low, _, high = item.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {}
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as spec:
            for metric in json.load(spec).get("end_to_end", []):
                bounds[metric["name"]] = metric["bound"]

    runs = []
    for seed in parse_seeds(args.seeds):
        result = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        last = result.stdout.rstrip("\n").split("\n")[-1]
        try:
            report = json.loads(last)
        except ValueError:
            sys.exit("seed %d: no result (exit %d)" % (seed, result.returncode))
        if result.returncode != 0 or not report["correct"]:
            sys.exit("seed %d: run failed: %s" % (seed, last))
        runs.append({"seed": seed, **report})
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in report["metrics"].items())),
            flush=True)

    print("\n%-28s %12s %12s %12s %8s %7s" % (
        "metric", "median", "q1", "q3", "spread", "bound"))
    unsteady = 0
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = median
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  <- over a third of the bound"
            unsteady += 1
        print("%-28s %12.5g %12.5g %12.5g %8.4f %7s %s%s" % (
            name, median, q1, q3, spread,
            "" if bound is None else "%.2f" % bound, first["unit"], flag))
    sys.exit(1 if unsteady else 0)


if __name__ == "__main__":
    main()
