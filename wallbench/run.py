#!/usr/bin/env python3
"""Builds and runs the pkifmm wall-clock benchmark.

    python3 wallbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark and the pkifmm libraries are
compiled from source (Release) into $CARGO_TARGET_DIR/wallbench, default
.bench_build/wallbench. Build output goes to stderr; stdout carries a
metadata line, the benchmark's per-metric lines and, last, one JSON
result object. Any error exits nonzero without a result line.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("uniform_farfield", "ellipsoid_nearfield", "timestep_churn")
BUILD_TYPE = "Release"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"wallbench: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seed < 0:
        p.error("--seed must be >= 0")
    if not 1 <= a.seconds <= 3600:
        p.error("--seconds must be in [1, 3600]")
    return a


def build():
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "wallbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(build_dir), "-j", "4",
                  "--target", "wallbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "wallbench"


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """sha256 over the program and benchmark sources (path + content)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for f in sorted(top.rglob("*")):
            if f.is_file():
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()[:16]


def run_timeout_s(seconds):
    """An untraced run ends within --seconds once its first three
    episodes have run (~35 s on the slowest workload); a traced run's
    set-up, serial evaluate and micro-calls add under 20 s."""
    return 2 * seconds + 60


def main():
    a = parse_args()
    exe = build()
    meta = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
            "trace": a.trace, "git_sha": git_sha(),
            "source_digest": source_digest(), "build_type": BUILD_TYPE,
            "nproc": os.cpu_count()}
    print("meta " + json.dumps(meta), flush=True)
    cmd = [str(exe), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    timeout = run_timeout_s(a.seconds)
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {timeout} s")
    lines = out.stdout.rstrip("\n").split("\n")
    if out.returncode != 0:
        print(out.stdout, end="")
        fail(f"benchmark exited with code {out.returncode}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no result line")
    if set(result) != RESULT_KEYS:
        fail("malformed result line")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
