#!/usr/bin/env python3
"""Steadiness check for the carrier-mix benchmark.

    python3 carrierbench/check_steady.py [--runs 10] [--workload NAME ...]

Run from the root of a source checkout. For each workload it makes two sets
of untraced runs of the same build (each run with another seed, as
BENCHMARK.json's command and run_seconds give them) and reports, for every
end-to-end metric:

  - each set's median and its spread: the distance between the first and
    third quartiles (statistics.quantiles, n=4) as a share of the median;
  - whether the second median is no worse than the first by more than the
    metric's bound, and whether each spread stays within the bound
    (setup_s is exempt from the spread test);
  - whether the share of failed operations is the same in both sets.

Exits 1 when any test fails.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_share(first, second, better):
    change = (second - first) / first
    return -change if better == "higher" else change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (one seed each)")
    parser.add_argument("--workload", action="append", help="workload to check (default: all)")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    ok = True
    for workload in workloads:
        sets = []
        for s in range(2):
            seeds = range(1000 * (s + 1), 1000 * (s + 1) + args.runs)
            sets.append([run(spec, workload, seed) for seed in seeds])
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        same_share = all(r["failed"] * sets[0][0]["attempted"] ==
                         sets[0][0]["failed"] * r["attempted"] for runs in sets for r in runs)
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"{workload}: failed share {shares[0]:.3g} / {shares[1]:.3g} "
              f"({'same in every run' if same_share else 'DIFFERS'}), "
              f"correct {'yes' if correct else 'NO'}")
        ok &= same_share and correct
        print(f"  {'metric':<16}{'median 1':>14}{'median 2':>14}{'spread 1':>10}"
              f"{'spread 2':>10}{'bound':>7}  verdict")
        for m in spec["end_to_end"]:
            values = [[r["metrics"][m["name"]]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            agree = worse_share(medians[0], medians[1], m["better"]) <= m["bound"]
            steady = m["name"] == "setup_s" or max(spreads) <= m["bound"]
            verdict = "ok" if agree and steady else "FAIL"
            if agree and steady and m["name"] != "setup_s" and max(spreads) > m["bound"] / 3:
                verdict = "ok (spread above a third of the bound)"
            ok &= agree and steady
            print(f"  {m['name']:<16}{medians[0]:>14.6g}{medians[1]:>14.6g}"
                  f"{spreads[0]:>10.3f}{spreads[1]:>10.3f}{m['bound']:>7.2f}  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
