#!/usr/bin/env python3
"""Builds the simulator and the benchmark driver from source, then runs one
benchmark run and relays its JSON result line.

    python3 perfbench/run.py --workload paper-driving --seed 1 \\
        --seconds 50 --trace 0

Run it from the repository root. The Release build lives in
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); traced runs
write their Chrome-trace JSON and per-layer table to $CARGO_TARGET_DIR/out.
Build output and progress go to stderr; the last stdout line is the result.
Exits non-zero without a result when the build or any run step fails, or
when the result's metrics differ from the list in BENCHMARK.json.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_root):
    """Configures and builds the benchmark; returns the binary path."""
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per build tree.
    with open(os.path.join(build_root, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                        "-j", jobs], check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def check_metrics(result_line, listed):
    """Returns why the result's metrics differ from BENCHMARK.json's list
    (names, order and units), or an empty string when they agree."""
    try:
        metrics = json.loads(result_line)["metrics"]
    except (ValueError, KeyError, TypeError) as err:
        return f"unreadable result line: {err}"
    got = [(name, m.get("unit")) for name, m in metrics.items()]
    want = [(m["name"], m["unit"]) for m in listed]
    return "" if got == want else f"metrics {got} differ from {want}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: simulator sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    try:
        binary = build(build_root)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(build_root, "out")
        os.makedirs(out_dir, exist_ok=True)
        command += ["--out-dir", out_dir]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark run timed out", file=sys.stderr)
        return 3
    if run.returncode != 0:
        print(f"run.py: benchmark exited with {run.returncode}",
              file=sys.stderr)
        return 3
    lines = run.stdout.strip().splitlines()
    mismatch = check_metrics(lines[-1] if lines else "",
                             bench["per_layer" if args.trace else "end_to_end"])
    if mismatch:
        print(f"run.py: {mismatch}", file=sys.stderr)
        return 3
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
