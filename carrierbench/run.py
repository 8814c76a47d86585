#!/usr/bin/env python3
"""Carrier-mix benchmark entry point.

    python3 carrierbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds carrierbench/ (and the
SCIDIVE library from src/) in Release under .bench_build/, then repeats
rounds of the workload, each in a fresh process, until --seconds have
passed (at least MIN_ROUNDS rounds). Every round makes the same stream from
the seed and checks its outputs. The last line of standard output is one
JSON object: correct, attempted, failed and the medians over the rounds of
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
named in BENCHMARK.json. Build output and per-round lines go to stderr.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

MIN_ROUNDS = 3
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "carrierbench")


def fail(message):
    print(f"carrierbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(BENCH_DIR, os.pardir, "src", "CMakeLists.txt")):
        fail("no SCIDIVE sources next to the benchmark (expected src/CMakeLists.txt)")
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        # A cache left by a checkout at another path: start the tree afresh.
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "carrierbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_round(args):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"round failed with exit code {proc.returncode}")
    print(lines[-1], file=sys.stderr)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    rounds = []
    start = time.monotonic()
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start < args.seconds:
        rounds.append(run_round(args))

    metrics = {}
    for m in wanted:
        values = [r["metrics"][m["name"]] for r in rounds if m["name"] in r["metrics"]]
        if len(values) != len(rounds):
            fail(f"metric {m['name']} missing from a round")
        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    for r in rounds:
        for problem in r["problems"]:
            print(f"carrierbench: check failed: {problem}", file=sys.stderr)
    result = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
