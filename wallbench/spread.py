#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

    python3 wallbench/spread.py --workload uniform_farfield --seeds 1-10 \
        [--seconds 20] [--trace 0] [--out runs.jsonl]

For every metric it prints the median of the per-run values, the first
and third quartiles (statistics.quantiles(values, n=4)) and the
interquartile distance as a share of the median -- the figure compared
against each metric's `bound` in BENCHMARK.json. Use it to check that a
benchmark change keeps runs steady, and to measure a parent and a change
with identical settings before claiming a gain.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=int, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append each run's result line here")
    a = p.parse_args()
    seconds = a.seconds
    if seconds is None:
        seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    values = {}
    for seed in a.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", a.workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(a.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: run failed with code {out.returncode}")
        result = json.loads(out.stdout.rstrip("\n").split("\n")[-1])
        if a.out:
            with open(a.out, "a") as f:
                f.write(json.dumps({"workload": a.workload, "seed": seed,
                                    "result": result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"\n{a.workload}: {len(a.seeds)} runs, {seconds} s each")
    print(f"{'metric':<34}{'median':>14}{'q1':>14}{'q3':>14}{'iqr/med':>10}")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:<34}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{share:>10.4f}")


if __name__ == "__main__":
    main()
