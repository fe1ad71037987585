#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports how far each
end-to-end metric spreads.

    python3 perfbench/sweep.py --workloads fit_inmem,fit_spill,serve_mixed \
        --seeds 1-10 --out perfbench/results/seed-commit.jsonl

Each run is the command BENCHMARK.json gives, with --trace 0 and its
run_seconds. Every result line is appended to --out as one JSON object
({"workload", "seed", "wall_s", "result"}). For each workload and metric
the summary prints the median, the quartiles (statistics.quantiles with
n=4), the spread (Q3 - Q1) / median, and that spread as a share of the
metric's bound. With --summarize, the runs already in --out are
summarized and nothing is run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-3000:])
        raise SystemExit("%s seed %d failed with exit code %d"
                         % (workload, seed, proc.returncode))
    return wall, json.loads(lines[-1])


def summarize(bench, records):
    by_workload = {}
    for record in records:
        by_workload.setdefault(record["workload"], []).append(record)
    for workload, runs in by_workload.items():
        walls = [r["wall_s"] for r in runs]
        print("%s: %d runs, wall %.1f-%.1f s" % (workload, len(runs), min(walls),
                                                 max(walls)))
        print("  %-20s %14s %14s %14s %8s %9s" % (
            "metric", "median", "Q1", "Q3", "spread", "of bound"))
        for metric in bench["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            print("  %-20s %14.6g %14.6g %14.6g %8.4f %9.2f" % (
                metric["name"], median, q1, q3, spread, spread / metric["bound"]))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", required=True)
    parser.add_argument("--summarize", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    if not args.summarize:
        for workload in workloads:
            for seed in parse_seeds(args.seeds):
                wall, result = run_once(bench, workload, seed)
                if not result["correct"] or result["failed"]:
                    raise SystemExit("%s seed %d: output checks failed"
                                     % (workload, seed))
                with open(args.out, "a") as out:
                    out.write(json.dumps({"workload": workload, "seed": seed,
                                          "wall_s": round(wall, 1),
                                          "result": result}) + "\n")
                print("%s seed %d: %.1f s" % (workload, seed, wall), flush=True)
    with open(args.out) as f:
        records = [json.loads(line) for line in f if line.strip()]
    summarize(bench, [r for r in records if r["workload"] in workloads])


if __name__ == "__main__":
    main()
