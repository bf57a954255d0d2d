#!/usr/bin/env python3
"""Builds the benchmark runner from this checkout and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0

The runner (perfbench_runner, see perfbench/CMakeLists.txt) is configured
and built under .bench_build/ on first use and rebuilt incrementally on
later runs; build output goes to stderr. Each run's environment record
and, for traced runs, its span dump are kept in .bench_build/records/.
The workload's result is the last line of stdout: one JSON object with
the keys correct, attempted, failed and metrics. The runner reports its
metrics as name -> value; this script gives them the units of
BENCHMARK.json (end_to_end with --trace 0, per_layer with --trace 1),
and a listed metric the workload does not measure reads 0. Any failure,
including a metric name BENCHMARK.json does not list, exits non-zero
without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
RUNNER = os.path.join(BUILD_DIR, "perfbench_runner")
WORKLOADS = ("search", "churn", "federated")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under src/ next to perfbench/")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    # Configuring every time is cheap once cached, and picks up a build
    # file that changed since the build directory was made.
    steps = [["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD_DIR, "--target", "perfbench_runner",
              "-j", jobs]]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build step failed: %s" % err)
        if done.returncode != 0:
            fail("build step failed: %s" % " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        fail("cannot read BENCHMARK.json: %s" % err)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    build()
    work_dir = os.path.join(ROOT, ".bench_build", "work-%d" % os.getpid())
    record_dir = os.path.join(ROOT, ".bench_build", "records")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(record_dir, exist_ok=True)
    try:
        done = subprocess.run(
            [RUNNER, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work_dir, "--record-dir", record_dir],
            stdout=subprocess.PIPE, stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
            check=False, cwd=ROOT, text=True)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail("runner failed: %s" % err)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("runner exited with code %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError as err:
        fail("runner printed no result: %s" % err)
    measured = result.get("metrics", {})
    unknown = sorted(set(measured) - set(units))
    if unknown:
        fail("metrics not in BENCHMARK.json: %s" % ", ".join(unknown))
    result["metrics"] = {name: {"value": measured.get(name, 0), "unit": unit}
                         for name, unit in units.items()}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
