"""The region family: a frozen pool, a seeded stratified draw, renaming.

Every region comes from a fixed *pool*: region ``i`` is
``random_region`` with 4-6 threads of 6-12 ops, overlap in
{0.25, 0.5, 0.75} and vocab in {6, 12}, all drawn from ``i`` alone.
``pool.json`` freezes, for every pool region, what the program produced
for it when the benchmark was written: schedule cost, serial cost,
optimality, nodes expanded and in-process wall time.  The cost is the
expected-cost ceiling the output check enforces on every seed.

A seed picks a family of ``FAMILY_SIZE`` regions from the pool.  The
pool, sorted by frozen wall time, is cut into ``FAMILY_SIZE`` strata of
equal count, and the seed draws one region from the middle fifth of each
stratum.  Every seed thus gets the same spread of fast, middling and
budget-exhausting regions while the regions themselves differ.  A free
draw would not do: the budget-exhausting regions and the slowest proven
ones take most of a run's wall time, so the luck of how many of them a
seed got would swing throughput by far more than any change under test.

The family is sent once per *pass*; each pass renames every symbol with
a pass- and seed-specific prefix, so the program sees new fingerprints
(every cache starts cold) while the search, and so the cost, node count
and time of each region, is the same as in the frozen pool.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

POOL_FILE = Path(__file__).with_name("pool.json")
POOL_SIZE = 600
FAMILY_SIZE = 40


def pool_region(index: int):
    """Pool region ``index`` (deterministic; needs the program on the path)."""
    from repro.workloads.threads import RandomRegionSpec, random_region

    rng = random.Random(f"perfbench-pool-{index}")
    spec = RandomRegionSpec(
        num_threads=rng.randint(4, 6), min_len=6, max_len=12,
        vocab_size=rng.choice((6, 12)),
        overlap=rng.choice((0.25, 0.5, 0.75)))
    return random_region(spec, seed=rng.getrandbits(31))


def load_pool() -> list[dict]:
    with open(POOL_FILE, encoding="utf-8") as fh:
        return json.load(fh)["regions"]


def choose_family(seed: int, pool: list[dict]) -> list[int]:
    """Pool indices of the seed's family (see module docstring)."""
    rng = random.Random(seed)
    ranked = sorted(pool, key=lambda r: r["ms"])
    chosen = []
    for k in range(FAMILY_SIZE):
        stratum = ranked[k * len(ranked) // FAMILY_SIZE:
                         (k + 1) * len(ranked) // FAMILY_SIZE]
        fifth = len(stratum) // 5
        chosen.append(rng.choice(stratum[2 * fifth:len(stratum) - 2 * fifth])
                      ["index"])
    return chosen


def rename(region, prefix: str):
    """``region`` with every symbol renamed to ``prefix + symbol``."""
    from repro.core.ops import Operation, Region, ThreadCode

    return Region(tuple(
        ThreadCode(tc.thread, tuple(
            Operation(op.thread, op.index, op.opcode,
                      tuple(prefix + s for s in op.reads),
                      tuple(prefix + s for s in op.writes), op.imm)
            for op in tc.ops))
        for tc in region.threads))


@dataclass(frozen=True)
class Request:
    """One request of the stream: which family region, renamed how."""

    slot: int           # position of the region in the family
    pool_index: int
    first: bool         # first time this region is sent in its pass
    region: object      # the renamed Region the program receives


def stream(seed: int, family: list[int], pass_no: int,
           repeats: int) -> list[Request]:
    """One pass: every family region ``1 + repeats`` times, seeded order.

    The first occurrence of each region in the shuffled order is its cold
    request; the others are repeats.
    """
    rng = random.Random(f"{seed}-{pass_no}")
    order = [slot for slot in range(len(family)) for _ in range(1 + repeats)]
    rng.shuffle(order)
    regions = {}
    out = []
    for slot in order:
        first = slot not in regions
        if first:
            regions[slot] = rename(pool_region(family[slot]),
                                   f"s{seed}p{pass_no}r{slot}_")
        out.append(Request(slot, family[slot], first, regions[slot]))
    return out


def warmup_regions():
    """Small regions that warm lazy set-up without touching the family."""
    from repro.workloads.threads import RandomRegionSpec, random_region

    spec = RandomRegionSpec(num_threads=4, min_len=6, max_len=8)
    return [rename(random_region(spec, seed=k), f"warm{k}_")
            for k in range(6)]
