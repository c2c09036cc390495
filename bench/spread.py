#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Runs bench/run.sh --runs times per workload, each with another seed, and
prints for every metric the median of the runs and the interquartile
distance as a share of that median (statistics.quantiles, n=4), next to the
metric's bound from BENCHMARK.json. With --compare it instead reads two
--json records of the same commit and prints, per workload and metric, how
much worse the second set's median is than the first's, against the bound.
Run it from the repository root:

    python3 bench/spread.py --runs 10 --first-seed 1 --json a.json
    python3 bench/spread.py --runs 10 --first-seed 11 --json b.json
    python3 bench/spread.py --compare a.json b.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "bench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(cmd)} reported a failure:\n{proc.stdout}")
    return result, wall


def median_spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def compare(decl, first_path, second_path):
    metrics = {m["name"]: m for m in decl["end_to_end"]}
    with open(first_path) as f:
        first = json.load(f)
    with open(second_path) as f:
        second = json.load(f)
    # "apart" is how much worse the worse of the two medians is than the
    # other: the set order is arbitrary, so either could be the parent.
    print(f"{'workload':16s} {'metric':16s} {'median 1':>11s} {'spread':>7s} "
          f"{'median 2':>11s} {'spread':>7s} {'2 / 1':>6s} {'apart':>6s} bound")
    over = 0
    for w, runs in first.items():
        for name, m in metrics.items():
            med1, sp1 = median_spread([r["metrics"][name]["value"] for r in runs])
            med2, sp2 = median_spread([r["metrics"][name]["value"] for r in second[w]])
            ratio = med2 / med1
            apart = max(ratio, 1 / ratio) - 1
            flag = ""
            if apart > m["bound"]:
                flag, over = "  <-- apart by more than the bound", over + 1
            print(f"{w:16s} {name:16s} {med1:11.4g} {sp1:7.3f} {med2:11.4g} {sp2:7.3f} "
                  f"{ratio:6.3f} {apart:6.3f} {m['bound']}{flag}")
    return over


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", help="workload (repeatable; default all)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="also write every run's metrics here")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                    help="compare two --json records of the same commit instead of running")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        decl = json.load(f)
    if args.compare:
        sys.exit(1 if compare(decl, *args.compare) else 0)
    bounds = {m["name"]: m.get("bound") for m in decl["end_to_end"] + decl["per_layer"]}
    workloads = args.workload or [w["name"] for w in decl["workloads"]]

    record = {}
    for w in workloads:
        runs = []
        for i in range(args.runs):
            res, wall = run_once(w, args.first_seed + i, decl["run_seconds"], args.trace)
            runs.append({"seed": args.first_seed + i, "wall_s": wall, "metrics": res["metrics"]})
            print(f"{w} seed {args.first_seed + i}: {wall:.1f} s", file=sys.stderr)
        record[w] = runs
        walls = [r["wall_s"] for r in runs]
        print(f"== {w}: {len(runs)} runs, wall median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        for name in runs[0]["metrics"]:
            med, spread = median_spread([r["metrics"][name]["value"] for r in runs])
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {name:30s} median {med:14.6g}  spread {spread:7.4f}  bound {bound}{flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
