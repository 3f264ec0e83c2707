#!/usr/bin/env python3
"""Peak-RSS gate for the fleet capacity smoke.

Compares the `peak_rss_kb` of each bench_fleet envelope against the
committed baseline for the same run shape (hubs, calls, parties, call
length, shards) and fails when any run exceeds its baseline by more than
the baseline file's tolerance. Peak RSS of a fixed single-shard fleet run
is steady to within about 1 MiB from run to run, so unlike wall-time gates
this one holds on shared CI runners.

Usage:
  python3 scripts/check_fleet_rss.py bench/fleet_rss_baseline.json \\
      BENCH_fleet_s1.json BENCH_fleet_h3.json

Prints one line per envelope with the measured value, the baseline and the
limit. Exit status is nonzero if any envelope is over its limit or has no
baseline entry. When a change lowers memory on purpose, re-measure and
commit the new baseline with it.
"""

import json
import sys

SHAPE = ("hubs", "calls", "parties", "duration_s", "shards")


def shape_of(entry):
    return tuple(entry[key] for key in SHAPE)


def describe(shape):
    return ", ".join(f"{k}={v}" for k, v in zip(SHAPE, shape))


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        baseline = json.load(f)
    tolerance = float(baseline["tolerance"])
    expected = {shape_of(run): run["peak_rss_kb"] for run in baseline["runs"]}

    failed = False
    for path in argv[2:]:
        with open(path) as f:
            envelope = json.load(f)
        shape = shape_of(envelope)
        measured = envelope["peak_rss_kb"]
        if shape not in expected:
            print(f"{path}: FAIL no baseline for {describe(shape)}")
            failed = True
            continue
        base = expected[shape]
        limit = base * (1.0 + tolerance)
        verdict = "ok" if measured <= limit else "FAIL"
        failed |= verdict == "FAIL"
        print(f"{path}: {verdict} peak_rss {measured / 1024:.0f} MiB "
              f"(baseline {base / 1024:.0f} MiB, limit {limit / 1024:.0f} "
              f"MiB, {100.0 * (measured / base - 1.0):+.1f}%) "
              f"[{describe(shape)}]")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
