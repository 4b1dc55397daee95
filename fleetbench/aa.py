#!/usr/bin/env python3
"""A/A check of fleetbench: two sets of runs of the same code must agree.

Run from the repository root:

    python3 fleetbench/aa.py [--runs 10] [--seed 20250622] [--held-out]

For every workload of BENCHMARK.json it runs the benchmark's command
`--runs` times per set, run i of either set with seed `--seed + i`, and
prints per end-to-end metric both medians, their relative difference in
the metric's "worse" direction, and each set's spread: the distance
between the first and third quartile of the set's values, as
`statistics.quantiles(values, n=4)` gives them, as a share of their
median. A row PASSes when both spreads (except that of `setup_s`) and
the difference stay within the metric's bound. This is the check the
acceptance driver makes; the table in README.md is this script's output.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--seed", type=int, default=20250622, help="seed of run 0")
    ap.add_argument("--held-out", action="store_true", help="start from the held-out seed 7919")
    ap.add_argument("--workload", action="append", help="only these workloads")
    args = ap.parse_args()
    seed0 = 7919 if args.held_out else args.seed

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    print(f"runs per set {args.runs}, seeds {seed0}..{seed0 + args.runs - 1}, "
          f"{bench['run_seconds']} s per run")
    print("| workload | metric | median A | median B | B vs A | spread A | spread B | bound | |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        sets = []
        for _ in range(2):
            runs = [run(bench["command"], workload, seed0 + i, bench["run_seconds"])
                    for i in range(args.runs)]
            sets.append(runs)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = ([r[name] for r in runs] for runs in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a
            if metric["better"] == "higher":
                worse = -worse
            spreads = (spread(a), spread(b))
            passed = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
            ok &= passed
            print(f"| {workload} | {name} | {med_a:.4f} | {med_b:.4f} | {worse:+.2%} worse | "
                  f"{spreads[0]:.2%} | {spreads[1]:.2%} | {bound:.0%} | "
                  f"{'PASS' if passed else 'FAIL'} |", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
