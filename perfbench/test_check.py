"""Self-test of the benchmark's schedule checker.

Run from the repository root::

    python3 -m pytest perfbench -q

Real replies from all four routes must pass; each kind of broken
schedule the checker exists to catch must fail for that reason.
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from check import check_result, check_schedule, schedule_slots  # noqa: E402
from family import load_pool, pool_region  # noqa: E402
from repro.core.costmodel import maspar_cost_model  # noqa: E402
from repro.core.ops import parse_region  # noqa: E402
from routes import ROUTES  # noqa: E402

MODEL = maspar_cost_model()
REGION = parse_region("""
thread 0:
    a = ld x
    b = mul a a
    st y b
thread 1:
    c = ld x
    d = add c c
    st y d
thread 2:
    e = ld z
    f = mul e e
    st w f
""")


@pytest.fixture(scope="module")
def replies(tmp_path_factory):
    """One real reply per route for REGION and for a frozen pool region."""
    pool = load_pool()
    out = {}
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("run"))
    try:
        for name, route_cls in ROUTES.items():
            route = route_cls()
            try:
                out[name] = (route.submit(REGION),
                             route.submit(pool_region(0)))
            finally:
                route.close()
    finally:
        os.chdir(cwd)
    return out, pool[0]["cost"]


def _valid_slots(replies):
    return schedule_slots(replies[0]["inproc_cold"][0].schedule)


@pytest.mark.parametrize("route", list(ROUTES))
def test_real_replies_pass(replies, route):
    by_route, frozen_cost = replies
    small, pooled = by_route[route]
    assert check_result(REGION, MODEL, small, None) == []
    assert check_result(pool_region(0), MODEL, pooled, frozen_cost) == []


def _problems(slots):
    cost = sum(MODEL.slot_cost(opclass) for opclass, _ in slots)
    return check_schedule(REGION, MODEL, slots, cost)


def test_dropped_op_is_rejected(replies):
    slots = _valid_slots(replies)
    opclass, picks = slots[0]
    slots[0] = (opclass, picks[1:])
    if not slots[0][1]:
        del slots[0]
    assert any("never runs" in p for p in _problems(slots))


def test_duplicated_op_is_rejected(replies):
    slots = _valid_slots(replies)
    opclass, picks = slots[-1]
    slots.append((opclass, picks[:1]))
    assert any("runs twice" in p for p in _problems(slots))


def test_slot_mixing_classes_is_rejected(replies):
    slots = _valid_slots(replies)
    # Thread 1's add never merges, so its slot holds only thread 1; fold it
    # into a slot of another class that thread 1 is not in.
    add = next(k for k, (opclass, _) in enumerate(slots) if opclass == "add")
    other = next(k for k, (opclass, picks) in enumerate(slots)
                 if opclass != "add" and 1 not in dict(picks))
    opclass, picks = slots[other]
    slots[other] = (opclass, sorted(picks + slots[add][1]))
    del slots[add]
    problems = _problems(slots)
    assert any("mixes merge keys" in p for p in problems)
    assert any("holds 'add'" in p for p in problems)


def test_dependence_inversion_is_rejected(replies):
    slots = _valid_slots(replies)
    # Thread 0: b = mul a a reads a, so it must follow a = ld x.
    load = next(k for k, (_, picks) in enumerate(slots) if (0, 0) in picks)
    mul = next(k for k, (_, picks) in enumerate(slots) if (0, 1) in picks)
    slots[load], slots[mul] = slots[mul], slots[load]
    assert any("T0:1 runs before T0:0" in p for p in _problems(slots))


def test_wrong_cost_is_rejected(replies):
    slots = _valid_slots(replies)
    cost = sum(MODEL.slot_cost(opclass) for opclass, _ in slots)
    assert any("reply cost" in p
               for p in check_schedule(REGION, MODEL, slots, cost - 1))
    assert any("exceeds the frozen" in p for p in check_schedule(
        REGION, MODEL, slots, cost, max_cost=cost - 1))
