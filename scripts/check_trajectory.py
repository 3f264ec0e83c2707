#!/usr/bin/env python3
"""Schema check for the performance trajectory, bench/trajectory.jsonl.

The file is append-only, one JSON object per line and one line per change
that touches performance:

  commit      the commit whose tree was measured: 7-40 hex digits. A row
              that lands with the change it measures names that change's
              parent followed by "+" (the change's own hash does not exist
              yet when the row is written).
  backfilled  true when the row was copied from an earlier report instead
              of measured when it landed.
  host        the machine and build the numbers come from.
  fleet       bench_fleet runs of the call-length sweep, each with `run`
              (the flags), `calls`, `parties`, `hubs`, `duration_s`,
              `realtime` (simulated seconds per wall second), and
              `peak_rss_mib`, `rss_mib_per_call`, `rss_mib_per_call_s`.
  perfbench   per BENCHMARK.json workload: `seeds`, `seconds` (the run
              length) and any of BENCHMARK.json's end-to-end metrics,
              each the median over the seeds.

Optional: `note` (a string). Usage:

  python3 scripts/check_trajectory.py [bench/trajectory.jsonl]

Prints one line per row and exits nonzero on the first schema error.
"""

import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMIT = re.compile(r"^[0-9a-f]{7,40}\+?$")
FLEET_NUMBERS = ("calls", "parties", "hubs", "duration_s", "realtime",
                 "peak_rss_mib", "rss_mib_per_call", "rss_mib_per_call_s")
KEYS = {"commit", "backfilled", "host", "fleet", "perfbench", "note"}


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_row(row, workloads, metrics):
    if not isinstance(row, dict):
        return "row is not an object"
    missing = {"commit", "backfilled", "host", "fleet", "perfbench"} - set(row)
    if missing:
        return f"missing keys {sorted(missing)}"
    if set(row) - KEYS:
        return f"unknown keys {sorted(set(row) - KEYS)}"
    if not isinstance(row["commit"], str) or not COMMIT.match(row["commit"]):
        return f"bad commit {row['commit']!r}"
    if not isinstance(row["backfilled"], bool):
        return "backfilled is not a boolean"
    if not isinstance(row["host"], str) or not row["host"]:
        return "host is not a non-empty string"
    if "note" in row and not isinstance(row["note"], str):
        return "note is not a string"
    if not isinstance(row["fleet"], list) or not row["fleet"]:
        return "fleet is not a non-empty list"
    for run in row["fleet"]:
        if not isinstance(run, dict) or set(run) != {"run", *FLEET_NUMBERS}:
            return f"fleet run {run!r} lacks or adds keys"
        if not isinstance(run["run"], str):
            return f"fleet run name {run['run']!r} is not a string"
        for key in FLEET_NUMBERS:
            if not is_number(run[key]) or run[key] <= 0:
                return f"fleet run {run['run']!r}: {key} is not positive"
    if not isinstance(row["perfbench"], dict) or not row["perfbench"]:
        return "perfbench is not a non-empty object"
    for workload, values in row["perfbench"].items():
        if workload not in workloads:
            return f"unknown workload {workload!r}"
        if not isinstance(values, dict):
            return f"{workload} is not an object"
        seeds = values.get("seeds")
        if (not isinstance(seeds, list) or not seeds or
                not all(isinstance(s, int) for s in seeds)):
            return f"{workload}: seeds is not a non-empty list of integers"
        if not is_number(values.get("seconds")) or values["seconds"] <= 0:
            return f"{workload}: seconds is not positive"
        measured = set(values) - {"seeds", "seconds"}
        if not measured:
            return f"{workload}: no metric"
        for metric in measured:
            if metric not in metrics:
                return f"{workload}: unknown end-to-end metric {metric!r}"
            if not is_number(values[metric]):
                return f"{workload}: {metric} is not a number"
    return None


def main(argv):
    path = argv[1] if len(argv) > 1 else os.path.join(
        ROOT, "bench", "trajectory.jsonl")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    workloads = {w["name"] for w in benchmark["workloads"]}
    metrics = {m["name"] for m in benchmark["end_to_end"]}
    commits = set()
    rows = 0
    with open(path) as f:
        for number, line in enumerate(f, 1):
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                print(f"{path}:{number}: not JSON: {e}", file=sys.stderr)
                return 1
            error = check_row(row, workloads, metrics)
            if error is None and row["commit"] in commits:
                error = f"commit {row['commit']} appears twice"
            if error is not None:
                print(f"{path}:{number}: {error}", file=sys.stderr)
                return 1
            commits.add(row["commit"])
            rows += 1
            print(f"{path}:{number}: {row['commit']} OK")
    if rows == 0:
        print(f"{path}: no rows", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
