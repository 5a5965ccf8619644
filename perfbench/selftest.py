#!/usr/bin/env python3
"""Determinism self-check for the benchmark.

    python3 perfbench/selftest.py

Run from the repository root (it calls perfbench/run.py, which builds on
first use).  For every workload, two runs with the same seed must agree
exactly on ok_ratio and on the counts that depend only on the seed:
isolate.patched_items (correction-loop), cumulative.runs_to_patch and
cumulative.trials_per_summary (cumulative-loop).  exchange.wire_kb_per_item
must agree within 0.1%: heap images record slab addresses, which differ
from process to process, so the encoded size moves by a few bytes.  A run
with another seed must still pass every correctness check.  Exits
non-zero on the first disagreement.
"""

import json
import subprocess
import sys

SEED, OTHER_SEED = 7, 8
SECONDS = {"fig7": 3, "mt-churn": 3, "correction-loop": 6,
           "cumulative-loop": 12}
# Metric -> allowed relative difference between two runs of one seed.
COUNTS = {
    "correction-loop": {"isolate.patched_items": 0.0,
                        "exchange.wire_kb_per_item": 1e-3},
    "cumulative-loop": {"cumulative.runs_to_patch": 0.0,
                        "cumulative.trials_per_summary": 0.0},
}


def run(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS[workload]),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"FAIL {workload} seed {seed} trace {trace}: run failed")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"FAIL {workload} seed {seed} trace {trace}: "
                 f"{result['failed']} of {result['attempted']} checks failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    for workload in SECONDS:
        first, second = run(workload, SEED, 0), run(workload, SEED, 0)
        if first["ok_ratio"] != second["ok_ratio"]:
            sys.exit(f"FAIL {workload}: ok_ratio {first['ok_ratio']} vs "
                     f"{second['ok_ratio']} for one seed")
        run(workload, OTHER_SEED, 0)
        if workload in COUNTS:
            first, second = run(workload, SEED, 1), run(workload, SEED, 1)
            for name, tolerance in COUNTS[workload].items():
                if abs(first[name] - second[name]) > tolerance * abs(first[name]):
                    sys.exit(f"FAIL {workload}: {name} {first[name]} vs "
                             f"{second[name]} for one seed")
            run(workload, OTHER_SEED, 1)
        print(f"ok   {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
