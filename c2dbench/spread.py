#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 c2dbench/spread.py --workload display_tcp --seeds 1-10 [--seconds 20] [--trace 0]

For every metric it prints the median and the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the median,
plus the share of failed operations of every run. Run from a checkout root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            a, b = part.split("-")
            out.extend(range(int(a), int(b) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    if args.seconds is None:
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]

    values, failed_share = {}, []
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", args.trace],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True)
        result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        if not result["correct"]:
            print("seed %d: outputs incorrect" % seed, file=sys.stderr)
        failed_share.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, json.dumps(
            {k: round(v["value"], 3) for k, v in result["metrics"].items()})))

    print("%-34s %14s %10s" % ("metric", "median", "iqr/median"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        print("%-34s %14.4f %10.4f" % (name, med, spread))
    print("failed share per run: %s" % sorted(set(failed_share)))


if __name__ == "__main__":
    main()
