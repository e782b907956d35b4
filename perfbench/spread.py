"""Run every workload on several seeds and report each metric's spread.

Run from the repository root::

    python3 perfbench/spread.py --seeds 10 [--first-seed 1] [--out FILE]

For each workload and end-to-end metric it prints the median of the runs,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.  ``--out`` also writes them as
JSON.  ``--trace`` runs the per-layer metrics instead (no bounds).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: output check failed\n"
                           f"{proc.stderr}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = {}
    for workload in workloads:
        runs = [one_run(workload, seed, spec["run_seconds"], args.trace)
                for seed in range(args.first_seed,
                                  args.first_seed + args.seeds)]
        report[workload] = {}
        print(f"\n{workload}: {len(runs)} seeds from {args.first_seed}")
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            entry = {"median": median, "q1": q1, "q3": q3,
                     "spread": spread, "values": values}
            bound = metric.get("bound")
            if bound is not None:
                entry["bound"] = bound
            report[workload][metric["name"]] = entry
            print(f"  {metric['name']:40s} {median:12.4f} {metric['unit']:6s}"
                  f" q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:6.3f}"
                  + (f" bound {bound}" if bound is not None else ""))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
