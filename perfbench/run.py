#!/usr/bin/env python3
"""wavebound benchmark: run one workload in a fresh single-threaded process.

    python3 perfbench/run.py --workload train_c5_wave --seed 1 --seconds 20 --trace 0

Run it from the repository root.  The workload runs in a child Python
process whose OpenBLAS, OpenMP and MKL pools are pinned to one thread
before it imports numpy, with `src` on its path.  Its standard output is
passed through; the last line is the result object
{"correct", "attempted", "failed", "metrics"}.  With `--trace 0` the
metrics are the end-to-end ones, with `--trace 1` the per-layer ones.  The
exit code is 0 only when the child ended normally and printed a result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_c5_wave", "train_csv_plain", "oracle_c4")
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIMEOUT_S = 170  # a run must end within 180 s


def main() -> int:
    parser = argparse.ArgumentParser(description="wavebound benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    package = ROOT / "src" / "wavebound" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: {package} not found; run from a wavebound checkout", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({var: "1" for var in PINNED})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every run
    command = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    with subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as child:
        try:
            out, _ = child.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            print(f"perfbench: {args.workload} did not end within {TIMEOUT_S} s", file=sys.stderr)
            return 3
    lines = out.splitlines()
    if child.returncode != 0:
        sys.stdout.write(out)
        print(f"perfbench: {args.workload} exited with {child.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stdout.write(out)
        print("perfbench: the workload printed no result", file=sys.stderr)
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(f"perfbench: malformed result {lines[-1]}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
