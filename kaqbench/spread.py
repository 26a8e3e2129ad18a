#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's end-to-end metrics.

Run from the root of a checkout:

    python3 kaqbench/spread.py --runs 10 [--workload NAME ...] [--first-seed S]
                               [--values] [--save SET.json]
    python3 kaqbench/spread.py --compare FIRST.json SECOND.json

For each workload, runs the BENCHMARK.json command `--runs` times with
consecutive seeds, then prints per metric the median and the spread: the
distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound. A spread above a third of the bound is flagged. Also
prints the median wall time of one run. `--save` keeps every value.

`--compare` reads two saved sets of the same code and prints, per metric,
both medians and by what share of the first the second is worse (in the
metric's `better` direction), flagging a change beyond the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, trace):
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit("run failed (%d): %s\n%s" % (proc.returncode, command,
                                              proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("incorrect result: %s seed %d: %s" % (workload, seed, result))
    return result, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median if median else float("inf")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--values", action="store_true",
                        help="also print every run's value")
    parser.add_argument("--save", help="write every value to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    if args.compare:
        return compare(metrics, *args.compare)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    flagged = 0
    saved = {}
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        walls = []
        for i in range(args.runs):
            result, wall = run_once(spec, workload, args.first_seed + i,
                                    args.trace)
            walls.append(wall)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        saved[workload] = values
        print("%s: %d runs, median wall %.1f s" %
              (workload, args.runs, statistics.median(walls)))
        for m in metrics:
            median, share = spread(values[m["name"]])
            bound = m.get("bound")
            mark = ""
            if bound is not None and share > bound / 3:
                mark = "  <-- above bound/3"
                if m["name"] != "setup_s":
                    flagged += 1
            print("  %-32s median %14.6g  spread %6.3f  bound %s%s" %
                  (m["name"], median, share, bound, mark))
            if args.values:
                print("      " + " ".join("%.6g" % v for v in values[m["name"]]))
        sys.stdout.flush()
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    return 1 if flagged else 0


def compare(metrics, first_path, second_path):
    with open(first_path) as f:
        first = json.load(f)
    with open(second_path) as f:
        second = json.load(f)
    flagged = 0
    for workload in first:
        print(workload)
        for m in metrics:
            if m.get("bound") is None:
                continue
            a = statistics.median(first[workload][m["name"]])
            b = statistics.median(second[workload][m["name"]])
            worse = (b - a) if m["better"] == "lower" else (a - b)
            share = worse / a if a else 0.0
            mark = ""
            if share > m["bound"]:
                mark = "  <-- worse beyond bound"
                flagged += 1
            print("  %-20s %14.6g %14.6g  worse by %7.3f  bound %s%s" %
                  (m["name"], a, b, share, m["bound"], mark))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
