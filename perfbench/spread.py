#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Usage (from the repository root):

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0]

Runs perfbench/run.py once per seed and workload with the run length
from BENCHMARK.json, then prints, per metric, the median of the runs
and the distance between the first and third quartile as a share of
that median (statistics.quantiles(n=4)), next to the metric's bound.
A spread above a third of the bound is flagged; setup_s is exempt.
Exits 1 if any run failed or any spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    ok = True
    for workload in names:
        values = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED "
                      f"(exit {proc.returncode})")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload} ({len(args.seeds)} seeds)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            rel = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                if rel > bound:
                    flag = "  OVER BOUND"
                    ok = False
                elif rel > bound / 3:
                    flag = "  above bound/3"
            print(f"  {name:<36} median {med:14.6g}  iqr/median "
                  f"{rel:7.4f}  bound {bound}{flag}")
            print("      " + " ".join(f"{v:.6g}" for v in vals))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
