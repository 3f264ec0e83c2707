#!/usr/bin/env python3
"""Steadiness trials: runs the benchmark on several seeds for every workload
of BENCHMARK.json and summarizes every end-to-end metric as median,
quartiles and spread (the quartile distance as a share of the median, as
statistics.quantiles(n=4) gives it), checked against a third of the
metric's bound in BENCHMARK.json. With --traced it adds one traced run
per workload and records its per-layer metrics.

    python3 perfbench/trials.py --seeds 10 --first-seed 1000 \\
        --traced --out perfbench/trajectory/0001-seed-commit.json

Run it from the repository root; every run goes through perfbench/run.py
with the benchmark's own run_seconds. Runs are sequential: the host has to
be otherwise idle for the figures to mean anything.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Seeds are first_seed, first_seed + 77, ...: every trajectory point uses
# the same seeds, so points stay comparable.
SEED_STEP = 77


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True, timeout=900)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--label", default="")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = [args.first_seed + i * SEED_STEP for i in range(args.seeds)]

    point = {"label": args.label, "cpus": os.cpu_count(),
             "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for w in workloads:
        runs = []
        for s in seeds:
            r = run_once(w, s, seconds, 0)
            runs.append(r)
            print(f"{w} seed {s}: correct={r['correct']}", file=sys.stderr)
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "run_wall_s": [round(r["wall_s"], 1) for r in runs],
                 "end_to_end": {}}
        for name in runs[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            s["bound"] = bounds.get(name)
            s["within_third_of_bound"] = s["spread"] < s["bound"] / 3
            steady &= s["within_third_of_bound"]
            entry["end_to_end"][name] = s
            print(f"  {w} {name}: median {s['median']:.6g} "
                  f"spread {s['spread']:.4f} bound {s['bound']}",
                  file=sys.stderr)
        if args.traced:
            traced = run_once(w, seeds[0], seconds, 1)
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer_correct"] = traced["correct"]
            entry["per_layer"] = {k: v["value"]
                                  for k, v in traced["metrics"].items()}
        point["workloads"][w] = entry
    point["steady"] = steady

    with open(args.out, "w") as f:
        json.dump(point, f, indent=1, sort_keys=False)
        f.write("\n")
    print(f"wrote {args.out}; steady={steady}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
