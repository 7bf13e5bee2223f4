#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread (its noise floor).

    python3 perfbench/steadiness.py [--first-seed 101]

Runs perfbench/run.py --trace 0 on ten seeds, from --first-seed on,
for each workload in BENCHMARK.json, each run as long as its
run_seconds. Prints, per end-to-end metric, the median and quartiles of
the runs' values and the spread (q3 - q1) / median, computed as
statistics.quantiles(values, n=4) gives them; plus the median of each
run's own iteration spread of job_s. Run from the repository root.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        capture_output=True, text=True, check=True).stdout.splitlines()
    result = json.loads(out[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: failed cells")
    iteration_spread = None
    for line in out:
        m = re.match(r"job_s: .*iqr/median=([0-9.]+)", line)
        if m:
            iteration_spread = float(m.group(1))
    return result["metrics"], iteration_spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=101)
    args = parser.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json"),
              encoding="utf-8") as f:
        spec = json.load(f)

    print("| workload | metric | unit | median | q1 | q3 | spread |")
    print("|---|---|---|---|---|---|---|")
    for workload in (w["name"] for w in spec["workloads"]):
        values, spreads = {}, []
        for i in range(RUNS):
            metrics, spread = run(workload, args.first_seed + i,
                                  spec["run_seconds"])
            spreads.append(spread)
            for name, m in metrics.items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        for name, (unit, v) in sorted(values.items()):
            q1, q2, q3 = statistics.quantiles(v, n=4)
            print(f"| {workload} | {name} | {unit} | {q2:.6g} | {q1:.6g} "
                  f"| {q3:.6g} | {(q3 - q1) / q2:.4f} |")
        print(f"| {workload} | job_s within-run iqr/median (median of "
              f"{len(spreads)} runs) | | {statistics.median(spreads):.4f} "
              f"| | | |", flush=True)
        runs = " ".join(f"{v:.4g}" for v in values["job_s"][1])
        print(f"<!-- {workload} job_s by run: {runs} -->", flush=True)


if __name__ == "__main__":
    main()
