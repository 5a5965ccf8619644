#!/usr/bin/env python3
"""Runs one workload of the Exterminator benchmark and prints its result.

    python3 perfbench/run.py --workload fig7 --seed 1 --seconds 10 --trace 0

Run from the repository root.  Builds perfbench/ (and the library sources
it compiles) into $CARGO_TARGET_DIR, default .bench_build, then runs the
perfbench binary in a fresh private scratch directory under .bench_run/
that is removed afterwards.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Traced runs also leave
their spans in .bench_run/traces/<workload>-seed<N>.jsonl.

Exits non-zero without a result line when the build or the run fails, or
when the metrics printed differ from those BENCHMARK.json declares.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig7", "mt-churn", "correction-loop", "cumulative-loop")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds perfbench; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "-j", "4", "--target",
                  "perfbench"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log("build failed: " + " ".join(step))
            sys.stderr.write(done.stdout[-4000:])
            return None
    return os.path.join(build_dir, "perfbench")


def declared_metrics(traced):
    """The metric names BENCHMARK.json declares for this kind of run."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    key = "per_layer" if traced else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    declared = declared_metrics(args.trace == 1)
    binary = build(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if binary is None:
        return 1

    os.makedirs(os.path.join(".bench_run", "traces"), exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=".bench_run")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--run-dir", os.path.relpath(run_dir)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            ".bench_run", "traces", f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if done.returncode != 0:
        log(f"{args.workload} exited with {done.returncode}")
        return 1

    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    metrics = result.get("metrics", {})
    if {k: v.get("unit") for k, v in metrics.items()} != declared:
        log("metrics do not match BENCHMARK.json")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
