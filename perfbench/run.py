#!/usr/bin/env python3
"""The repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload sweep|byz|deploy --seed N \
        --seconds S --trace 0|1 [--smoke] [--expect-digest HEX]

Builds perfbench/rbbench.cpp and the library from ../src in Release mode into
.bench_build/ at the root of the checkout (first run only), then runs one
workload. --trace 0 prints every end-to-end metric; --trace 1 runs the
separate traced pass, prints every per-layer metric, and keeps its spans in
.bench_build/spans/<workload>-seed<N>.jsonl. Human-readable lines
come first; the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.

setup_s is the median over three cold processes: two that only set up, and
the measuring process itself.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("sweep", "byz", "deploy")
SETUP_ONLY_RUNS = 2
DEADLINE_S = 170.0


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds rbbench; returns its path."""
    if not (BUILD / "Makefile").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "rbbench", "-j", "4"],
        check=True, stdout=sys.stderr)
    return BUILD / "rbbench"


def run_rbbench(cmd, deadline):
    """Runs one rbbench process; returns its JSON result (last stdout line)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("benchmark deadline passed before " + " ".join(cmd))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest size of every workload (the test)")
    ap.add_argument("--expect-digest", default="",
                    help="override the recorded warm-up digest")
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    binary = build()
    workdir = BUILD / "work" / f"{args.workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--digests", str(HERE / "digests.txt")]
    if args.trace == 1:
        (BUILD / "spans").mkdir(exist_ok=True)
        spans = BUILD / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        cmd += ["--spans", str(spans)]
    if args.smoke:
        cmd.append("--smoke")
    if args.expect_digest:
        cmd += ["--expect-digest", args.expect_digest]

    try:
        results = []
        if args.trace == 0:
            for _ in range(SETUP_ONLY_RUNS):
                results.append(run_rbbench(cmd + ["--setup-only"], deadline))
        main_result = run_rbbench(cmd, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results.append(main_result)

    metrics = dict(main_result["metrics"])
    if args.trace == 0:
        samples = [r["metrics"]["setup_s"]["value"] for r in results]
        metrics["setup_s"] = {"value": statistics.median(samples), "unit": "s"}
        main_result["info"]["setup_s_samples"] = " ".join(
            f"{s:.6f}" for s in samples)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for key, value in main_result["info"].items():
        print(f"{args.workload} info {key} = {value}")
    print(f"{args.workload} failed_share = {failed / attempted:.6g} "
          f"({failed} of {attempted} ops)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except Exception as e:  # no result line on any failure
        log(f"run.py: {type(e).__name__}: {e}")
        sys.exit(1)
