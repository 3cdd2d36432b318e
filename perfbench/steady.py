#!/usr/bin/env python3
"""Steadiness check: run one workload k times, one seed each, and print
for every metric its median, quartiles and spread against its bound.

    python3 perfbench/steady.py --workload revalidate --runs 10

Run i uses seed i (1..k) and BENCHMARK.json's run length. Spread is
(q3 - q1) / median, with the quartiles of statistics.quantiles(values,
n=4). A metric passes when its spread is below the bound BENCHMARK.json
gives it; a spread above a third of the bound is marked "wide", as a
margin the metric lacks, but passes. The failed share must be identical
in every run. Exits 1 if a spread reaches its bound, the failed shares
differ, or a run fails or reports correct=false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    values = {m["name"]: [] for m in metrics}
    shares = set()
    ok = True
    seconds = spec["run_seconds"]
    for seed in range(1, args.runs + 1):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}")
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: correct=false")
            ok = False
        shares.add((result["failed"] / result["attempted"]))
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s, failed share(s) {sorted(shares)}")
    if len(shares) != 1:
        ok = False
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for m in metrics:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = m.get("bound")
        verdict = ""
        if bound is not None:
            ok = ok and spread < bound
            verdict = "NOT STEADY" if spread >= bound else "wide" if spread >= bound / 3 else "ok"
        print(f"{m['name']:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
