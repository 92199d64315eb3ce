#!/usr/bin/env python3
"""The benchmark's own test: exact-count self-check.

Run from the repository root:

    python3 perfbench/selfcheck.py [--seed N] [--seconds S]

For every workload it runs the benchmark twice untraced and twice traced
with the same seed, and fails unless

  * every run reports correct with 0 failed operations,
  * every count that does not depend on thread interleaving is identical
    across the two runs (per-layer counts are per round, so they repeat
    whatever the run length), and
  * the workload spec the binary ran matches perfbench/workloads.json.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT_END_TO_END = ("retained_mib", "estimate_rel_err")
EXACT_PER_LAYER = ("io.fsyncs", "wal.bytes_written", "checkpoint.count",
                   "ship.puts", "estimators.em_sweeps",
                   "write_bytes_per_vote")


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} trace={trace} exited "
                           f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    spec = re.search(r"^spec: (\S+)$", proc.stdout, re.MULTILINE)
    return json.loads(lines[-1]), spec.group(1) if spec else None


def main():
    parser = argparse.ArgumentParser(description="perfbench exact-count self-check")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    with open(os.path.join(HERE, "workloads.json")) as f:
        documented = json.load(f)["workloads"]

    failures = []
    for workload, doc in documented.items():
        for trace, names in ((0, EXACT_END_TO_END), (1, EXACT_PER_LAYER)):
            (first, spec), (second, _) = (
                run(workload, args.seed, args.seconds, trace) for _ in range(2))
            for result in (first, second):
                if not result["correct"] or result["failed"] != 0:
                    failures.append(f"{workload} trace={trace}: correct="
                                    f"{result['correct']} failed={result['failed']}")
            if spec != doc["spec"]:
                failures.append(f"{workload}: ran spec {spec}, "
                                f"workloads.json says {doc['spec']}")
            for name in names:
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                status = "ok" if a == b else "DIFFERS"
                print(f"{workload:17s} {name:22s} {a!r:>24} {b!r:>24} {status}")
                if a != b:
                    failures.append(f"{workload} {name}: {a!r} != {b!r}")
    for failure in failures:
        print("FAIL:", failure)
    print("selfcheck", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
