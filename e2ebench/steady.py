#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly, one seed per run, and
print the median and quartiles of every end-to-end metric.

    python3 e2ebench/steady.py [--runs 10] [--first-seed 1]
                               [--workloads dock-dedup,tenant-seq,...]

Run from the repository root. Run length, workloads and bounds come from
BENCHMARK.json. For each metric the spread is (q3 - q1) / median, with
quartiles as statistics.quantiles(values, n=4) gives them; a metric is
flagged when its spread reaches a third of its bound (setup_s is only
reported: its bound guards the median, not the spread). Every run's
failed/attempted share is printed too, since it must not vary.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        shares = set()
        for k in range(args.runs):
            result = run_once(workload, args.first_seed + k, spec["run_seconds"])
            if not result["correct"]:
                steady = False
                print("%s seed %d: output check failed" %
                      (workload, args.first_seed + k))
            shares.add(result["failed"] / result["attempted"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print("%s: %d runs, failed shares %s" %
              (workload, args.runs, sorted(shares)))
        print("  %-16s %14s %14s %14s %8s %8s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if name != "setup_s" and spread >= bounds[name] / 3:
                flag = "  <-- spread >= bound/3"
                steady = False
            print("  %-16s %14.6g %14.6g %14.6g %8.4f %8.3f%s" %
                  (name, med, q1, q3, spread, bounds[name], flag))
        sys.stdout.flush()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
