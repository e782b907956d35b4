"""Content-addressed schedule cache for the induction service.

Repeated regions are the common case for interpreter workloads — the same
handler set is induced every time a program is loaded, and windowed traces
of SPMD code contain many identical windows.  Re-running the exponential
branch-and-bound for each of them is pure waste: a schedule is a pure
function of (region ops, cost-model parameters, search configuration), so
the triple is hashed into a stable *fingerprint* and finished schedules are
memoized under it.

Two tiers:

- an in-memory LRU (:class:`collections.OrderedDict`) bounded by
  ``capacity`` entries, always on;
- an optional on-disk JSON tier (``cache_dir``) that persists schedules
  across processes and runs — entries are one pretty-printed JSON file per
  fingerprint, written atomically (temp file + ``os.replace``) so parallel
  writers can never leave a torn file.

An entry (:class:`CacheEntry`) holds the schedule, its search stats and
the region's serial and lockstep baseline costs, so a request answered
from the cache reads every number of its reply from the entry instead of
rebuilding the baselines.  Writers that do not know the baselines (the
per-window entries of :mod:`repro.core.window`, disk files from older
code) store None for them, and a *request-level* lookup
(``get(..., baselines=True)``) counts such an entry as a miss: the caller
computes the answer afresh and stores a complete entry over it.

Hits return a *copy* of the stored stats so callers can't mutate cache
state; schedules are immutable and shared.  A hit deliberately skips
re-verification — trusting the cache is exactly the O(lookup) fast path —
while corrupt or unreadable disk entries degrade to a miss, never an error.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from time import perf_counter
from typing import Any, Mapping, NamedTuple

from repro.core.costmodel import CostModel
from repro.core.ops import Region
from repro.core.schedule import Schedule, Slot
from repro.core.search import SearchConfig, SearchStats
from repro.obs import Counters
from repro.obs.metrics import get_registry

__all__ = [
    "CacheEntry",
    "ScheduleCache",
    "entry_from_payload",
    "entry_to_payload",
    "region_fingerprint",
    "schedule_from_payload",
    "schedule_to_payload",
]

#: Bump when the fingerprint payload layout changes, so stale disk tiers
#: from older code can never alias new entries.
_FINGERPRINT_VERSION = 1


def _canon_imm(imm: int | float | None) -> list | None:
    """JSON-stable immediate encoding: ints and floats must not collide."""
    if imm is None:
        return None
    if isinstance(imm, float):
        return ["f", repr(imm)]
    return ["i", int(imm)]


def region_fingerprint(
    region: Region,
    model: CostModel,
    config: SearchConfig | None = None,
    method: str = "search",
) -> str:
    """SHA-256 hex fingerprint of everything the schedule depends on.

    Two calls agree iff they would produce the same schedule: same per-thread
    opcode/operand/immediate sequences, same cost-model parameters, same
    search configuration, same induction method.  Thread ids and op indices
    are positional, so re-parsed or re-generated copies of a region
    fingerprint identically.
    """
    config = config or SearchConfig()
    payload = {
        "v": _FINGERPRINT_VERSION,
        "method": method,
        "region": [
            [[op.opcode, list(op.reads), list(op.writes), _canon_imm(op.imm)]
             for op in tc.ops]
            for tc in region.threads
        ],
        "model": {
            "class_of": sorted(model.class_of.items()),
            "class_cost": sorted(
                (cls, repr(float(cost))) for cls, cost in model.class_cost.items()
            ),
            "mask_overhead": repr(float(model.mask_overhead)),
            "default_cost": repr(float(model.default_cost)),
            "require_equal_imm": model.require_equal_imm,
        },
        "config": dataclasses.asdict(config),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def schedule_to_payload(schedule: Schedule) -> list:
    """JSON-able form of a schedule (inverse of :func:`schedule_from_payload`)."""
    return [
        [slot.opclass, sorted([int(t), int(i)] for t, i in slot.picks.items())]
        for slot in schedule
    ]


def schedule_from_payload(payload: list) -> Schedule:
    """Rebuild a :class:`Schedule` from :func:`schedule_to_payload` output.

    Equal payloads give the same schedule object (schedules are immutable
    and shared), so a caller sent one cached schedule again and again
    holds one copy of it, not one per reply.
    """
    return _schedule_for(tuple(
        (opclass, tuple((int(t), int(i)) for t, i in picks))
        for opclass, picks in payload))


@functools.lru_cache(maxsize=256)
def _schedule_for(key: tuple) -> Schedule:
    return Schedule(tuple(Slot(opclass, dict(picks)) for opclass, picks in key))


class CacheEntry(NamedTuple):
    """One cached answer: the schedule plus what a reply reports with it.

    ``serial_cost``/``lockstep_cost`` are the baseline costs of the region
    the schedule was built for (post-vn when the request used vn; the key
    fixes that region and the model, so they are exactly what a fresh run
    computes).  None when the writer did not know them.
    """

    schedule: Schedule
    stats: SearchStats | None = None
    serial_cost: float | None = None
    lockstep_cost: float | None = None

    @property
    def has_baselines(self) -> bool:
        return self.serial_cost is not None and self.lockstep_cost is not None


def entry_to_payload(entry: CacheEntry) -> dict[str, Any]:
    """JSON-able form of an entry: the disk file body and peer payload."""
    return {
        "schedule": schedule_to_payload(entry.schedule),
        "stats": dataclasses.asdict(entry.stats) if entry.stats else None,
        "serial_cost": entry.serial_cost,
        "lockstep_cost": entry.lockstep_cost,
    }


def entry_from_payload(payload: Mapping[str, Any]) -> CacheEntry:
    """Inverse of :func:`entry_to_payload`; missing baselines stay None.

    Raises ``KeyError``/``TypeError``/``ValueError`` on a malformed payload.
    """
    raw_stats = payload.get("stats")

    def cost(key: str) -> float | None:
        value = payload.get(key)
        return None if value is None else float(value)

    return CacheEntry(
        schedule_from_payload(payload["schedule"]),
        SearchStats(**raw_stats) if raw_stats else None,
        cost("serial_cost"), cost("lockstep_cost"))


class ScheduleCache:
    """Two-tier (memory LRU + optional disk) schedule cache.

    Counter names: ``hits``, ``memory_hits``, ``disk_hits``, ``misses``,
    ``stores``, ``evictions``, ``disk_errors``.

    Thread-safe: the induction server's connection handlers and batcher
    share one cache, so the memory tier is guarded by an :class:`RLock`
    (the disk tier was already safe — atomic replace on write, torn reads
    degrade to a miss).
    """

    def __init__(self, capacity: int = 1024,
                 cache_dir: str | os.PathLike | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._memory: OrderedDict[str, CacheEntry] = OrderedDict()
        self._lock = threading.RLock()
        self.counters = Counters()

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    @property
    def hit_rate(self) -> float:
        looked_up = self.counters["hits"] + self.counters["misses"]
        return self.counters["hits"] / looked_up if looked_up else 0.0

    def get(self, fingerprint: str,
            baselines: bool = False) -> CacheEntry | None:
        """The entry stored under ``fingerprint``, or None on a miss.

        With ``baselines`` (a request-level lookup, whose reply reports the
        baseline costs) an entry stored without them is a miss.
        """
        start = perf_counter()
        with self._lock:
            entry = self._memory.get(fingerprint)
            if entry is not None:
                self._memory.move_to_end(fingerprint)
        tier = "memory_hits"
        if entry is None:
            entry = self._disk_get(fingerprint)
            if entry is not None:
                with self._lock:
                    self._remember(fingerprint, entry)
            tier = "disk_hits"
        if entry is None or (baselines and not entry.has_baselines):
            self.counters.bump("misses")
            get_registry().observe("cache_miss_seconds",
                                   perf_counter() - start)
            return None
        self.counters.bump("hits")
        self.counters.bump(tier)
        get_registry().observe("cache_hit_seconds", perf_counter() - start)
        return entry._replace(stats=self._copy_stats(entry.stats))

    def put(self, fingerprint: str, schedule: Schedule,
            stats: SearchStats | None = None,
            serial_cost: float | None = None,
            lockstep_cost: float | None = None) -> None:
        """Store a finished schedule (and its baselines) in both tiers."""
        entry = CacheEntry(schedule, self._copy_stats(stats),
                           serial_cost, lockstep_cost)
        with self._lock:
            self._remember(fingerprint, entry)
        self.counters.bump("stores")
        if self.cache_dir is not None:
            self._disk_put(fingerprint, entry)

    # -- memory tier ------------------------------------------------------

    def _remember(self, fingerprint: str, entry: CacheEntry) -> None:
        # Caller holds the lock.
        self._memory[fingerprint] = entry
        self._memory.move_to_end(fingerprint)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self.counters.bump("evictions")

    @staticmethod
    def _copy_stats(stats: SearchStats | None) -> SearchStats | None:
        return dataclasses.replace(stats) if stats is not None else None

    # -- disk tier --------------------------------------------------------

    def _disk_path(self, fingerprint: str) -> Path:
        return self.cache_dir / f"{fingerprint}.json"

    def _disk_get(self, fingerprint: str) -> CacheEntry | None:
        if self.cache_dir is None:
            return None
        path = self._disk_path(fingerprint)
        try:
            return entry_from_payload(
                json.loads(path.read_text(encoding="utf-8")))
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Torn, corrupt or incompatible entry: a miss, never an error.
            self.counters.bump("disk_errors")
            return None

    def _disk_put(self, fingerprint: str, entry: CacheEntry) -> None:
        data = {"fingerprint": fingerprint, **entry_to_payload(entry)}
        try:
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(data, fh, indent=1)
            os.replace(tmp, self._disk_path(fingerprint))
        except OSError:
            self.counters.bump("disk_errors")
