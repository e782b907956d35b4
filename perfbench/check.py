"""The benchmark's own schedule checker.

It shares no code with the program's verifier or dependence analysis
(``repro.core.verify``, ``repro.core.dag``): it reads the region's ops and
the reply's slots and checks them from first principles.  Only the cost
model's opcode classes, merge keys and slot costs are taken from the
program, since they define what a slot costs.
"""

from __future__ import annotations

REL_TOL = 1e-9


def schedule_slots(schedule) -> list[tuple[str, list[tuple[int, int]]]]:
    """A schedule as ``[(opclass, [(thread, index), ...]), ...]``."""
    return [(slot.opclass, sorted(slot.picks.items())) for slot in schedule]


def _depends(a, b) -> bool:
    """True if op ``b`` (later in program order) must stay after op ``a``."""
    return bool(set(a.writes) & set(b.reads) or set(a.reads) & set(b.writes)
                or set(a.writes) & set(b.writes))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def check_schedule(region, model, slots, cost: float,
                   serial_cost: float | None = None,
                   max_cost: float | None = None) -> list[str]:
    """Every way ``slots`` fails to be a valid schedule of ``region``.

    ``slots`` is :func:`schedule_slots` form.  An empty list means the
    schedule runs each op exactly once, never puts two ops of one thread
    or two merge keys in one slot, keeps every read/write dependence of
    each thread in program order, and costs exactly ``cost`` under
    ``model`` (and at most ``max_cost`` when given).  ``serial_cost``,
    when given, must equal one slot per op.
    """
    problems: list[str] = []
    position: dict[tuple[int, int], int] = {}
    for k, (opclass, picks) in enumerate(slots):
        threads = [t for t, _ in picks]
        if len(set(threads)) != len(threads):
            problems.append(f"slot {k} holds two ops of one thread")
        keys = set()
        for t, i in picks:
            if not (0 <= t < region.num_threads and 0 <= i < len(region[t])):
                problems.append(f"slot {k} names unknown op T{t}:{i}")
                continue
            if (t, i) in position:
                problems.append(f"op T{t}:{i} runs twice")
            position[(t, i)] = k
            op = region[t].ops[i]
            keys.add(model.merge_key(op))
            if model.opcode_class(op.opcode) != opclass:
                problems.append(
                    f"slot {k} is {opclass!r} but holds {op.opcode!r}")
        if len(keys) > 1:
            problems.append(f"slot {k} mixes merge keys {sorted(map(str, keys))}")
    for tc in region.threads:
        for op in tc.ops:
            if (tc.thread, op.index) not in position:
                problems.append(f"op T{tc.thread}:{op.index} never runs")
        for j, later in enumerate(tc.ops):
            for earlier in tc.ops[:j]:
                a = position.get((tc.thread, earlier.index))
                b = position.get((tc.thread, later.index))
                if a is not None and b is not None and a >= b \
                        and _depends(earlier, later):
                    problems.append(
                        f"T{tc.thread}:{later.index} runs before "
                        f"T{tc.thread}:{earlier.index}, which it depends on")
    recomputed = sum(model.slot_cost(opclass) for opclass, _ in slots)
    if not _close(recomputed, cost):
        problems.append(f"reply cost {cost} but slots cost {recomputed}")
    if serial_cost is not None:
        serial = sum(model.slot_cost(model.opcode_class(op.opcode))
                     for op in region.all_ops())
        if not _close(serial, serial_cost):
            problems.append(f"reply serial cost {serial_cost}, expected {serial}")
    if max_cost is not None and cost > max_cost * (1 + REL_TOL):
        problems.append(f"cost {cost} exceeds the frozen {max_cost}")
    return problems


def check_result(region, model, result, max_cost: float | None) -> list[str]:
    """:func:`check_schedule` on a program result, plus its flags."""
    problems = check_schedule(region, model, schedule_slots(result.schedule),
                              result.cost, result.serial_cost, max_cost)
    if result.degraded:
        problems.append("result came back degraded")
    return problems
