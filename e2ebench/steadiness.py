#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly, each time with another
seed, and prints every end-to-end metric's spread against its bound.

    python3 e2ebench/steadiness.py [--runs 10] [--first-seed 1]
                                   [--out runs.json] [--compare earlier.json]

The spread of a metric is the distance between the first and third
quartiles of its values (statistics.quantiles, n=4) divided by their median.
Every metric must keep its spread within its bound; --compare also checks
that no median got worse than an earlier set's by more than the bound.  Run
from the repository root; exits 1 on any failure.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed ({proc.returncode})")
    print(f"  {workload} seed {seed}: done", file=sys.stderr, flush=True)
    # The record's diagnostics (wall times, dropped latencies, steal share)
    # go to --out beside the metrics, so their spreads can be read later.
    values = dict(json.loads(lines[-2])["info"])
    values.update((name, m["value"]) for name, m in result["metrics"].items())
    return values


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med, med


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)

    values, ok = {}, True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, args.first_seed + i, spec["run_seconds"])
                for i in range(args.runs)]
        values[workload] = {name: [r.get(name) for r in runs]
                            for name in runs[0]}
        print(f"\n{workload}: {args.runs} runs")
        print(f"  {'metric':<20} {'median':>12} {'spread':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            s, med = spread(values[workload][m["name"]])
            flag = ""
            if s > m["bound"]:
                flag, ok = "  SPREAD > BOUND", False
            elif s > m["bound"] / 3:
                flag = "  (above a third of the bound)"
            if workload in earlier:
                _, old = spread(earlier[workload][m["name"]])
                worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
                if worse > m["bound"]:
                    flag, ok = flag + f"  MEDIAN WORSE BY {worse:.3f}", False
            print(f"  {m['name']:<20} {med:>12.6g} {s:>8.4f} {m['bound']:>6}{flag}")
            print("      " + " ".join(f"{v:.6g}" for v in values[workload][m["name"]]))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
