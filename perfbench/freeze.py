"""Regenerate ``pool.json``: what the program produces for each pool region.

Run from the repository root::

    python3 perfbench/freeze.py

The file is frozen with the benchmark.  Its costs are the ceiling the
output check holds every later commit to, and its wall times and
optimality flags decide which regions a seed draws, so rerunning this
script changes the benchmark's inputs: do it only when the benchmark
itself is redefined.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from family import POOL_FILE, POOL_SIZE, pool_region  # noqa: E402


def main() -> int:
    from repro import api

    rows = []
    for index in range(POOL_SIZE):
        region = pool_region(index)
        times = []
        for _ in range(2):
            start = time.perf_counter()
            result = api.induce(api.InductionRequest(region, model="maspar"))
            times.append((time.perf_counter() - start) * 1e3)
        ms = min(times)
        stats = result.search_stats[0]
        rows.append({
            "index": index, "threads": region.num_threads,
            "ops": region.num_ops, "cost": result.cost,
            "serial_cost": result.serial_cost, "optimal": result.optimal,
            "nodes": stats.nodes_expanded, "ms": round(ms, 3)})
    with open(POOL_FILE, "w", encoding="utf-8") as fh:
        json.dump({"model": "maspar", "config": "SearchConfig()",
                   "regions": rows}, fh, indent=0)
        fh.write("\n")
    hard = sum(not r["optimal"] for r in rows)
    print(f"wrote {POOL_FILE}: {len(rows)} regions, {hard} budget-exhausted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
