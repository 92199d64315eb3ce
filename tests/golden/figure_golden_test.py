#!/usr/bin/env python3
"""Golden test for the paper's figure reproductions.

Runs every figure, section 3.2, ablation and aggregation bench and compares
its stdout, byte for byte, against tests/golden/<bench>.txt. The benches are
deterministic per seed, so any difference means an estimator, the replay
protocol or a table printer changed behaviour.

Each bench runs with DQM_BENCH_JSON_DIR pointing at a throwaway directory.
The `bench artifact: <path>` line (its path differs per run) and any
`warning: cannot write` line are dropped before the comparison.

Usage: figure_golden_test.py <bench-binary-dir>   (exits non-zero on any
mismatch and prints a unified diff per failing bench)

To re-record a golden after a deliberate behaviour change, run the bench and
keep its stdout minus the `bench artifact:` line.
"""

import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
BENCHES = [
    "bench_fig2_extrapolation",
    "bench_fig3_restaurant",
    "bench_fig4_product",
    "bench_fig5_address",
    "bench_fig6_sensitivity",
    "bench_fig7_robustness",
    "bench_fig8_prioritization",
    "bench_sec32_examples",
    "bench_ablation_shift",
    "bench_ablation_switch",
    "bench_ablation_assignment",
    "bench_ext_aggregation",
]
DROPPED_PREFIXES = ("bench artifact:", "warning: cannot write")


def run_bench(binary, json_dir):
    env = dict(os.environ, DQM_BENCH_JSON_DIR=json_dir)
    result = subprocess.run([str(binary)], env=env, capture_output=True,
                            text=True, check=False)
    if result.returncode != 0:
        raise RuntimeError(f"{binary.name} exited {result.returncode}:\n"
                           f"{result.stderr}")
    return [line for line in result.stdout.splitlines(keepends=True)
            if not line.startswith(DROPPED_PREFIXES)]


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bin_dir = Path(sys.argv[1])
    failures = 0
    with tempfile.TemporaryDirectory() as json_dir:
        for bench in BENCHES:
            golden = (GOLDEN_DIR / f"{bench}.txt").read_text().splitlines(
                keepends=True)
            try:
                actual = run_bench(bin_dir / bench, json_dir)
            except (OSError, RuntimeError) as error:
                print(f"FAIL {bench}: {error}", file=sys.stderr)
                failures += 1
                continue
            if actual == golden:
                print(f"ok   {bench}")
                continue
            failures += 1
            print(f"FAIL {bench}: stdout differs from the golden")
            sys.stdout.writelines(difflib.unified_diff(
                golden, actual, f"golden/{bench}.txt", f"{bench} stdout"))
    if failures:
        print(f"{failures} of {len(BENCHES)} benches differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
