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
from dataclasses import dataclass
from pathlib import Path

from time import perf_counter

from repro.core.costmodel import CostModel
from repro.core.ops import Region
from repro.core.schedule import Schedule, Slot
from repro.core.search import SearchConfig, SearchStats
from repro.obs import Counters
from repro.obs.metrics import get_registry

__all__ = [
    "ScheduleCache",
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


@dataclass(frozen=True)
class _Entry:
    schedule: Schedule
    stats: SearchStats | None


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
        self._memory: OrderedDict[str, _Entry] = OrderedDict()
        self._lock = threading.RLock()
        self.counters = Counters()

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    @property
    def hit_rate(self) -> float:
        looked_up = self.counters["hits"] + self.counters["misses"]
        return self.counters["hits"] / looked_up if looked_up else 0.0

    def get(self, fingerprint: str) -> tuple[Schedule, SearchStats | None] | None:
        """Schedule + stats stored under ``fingerprint``, or None on miss."""
        start = perf_counter()
        with self._lock:
            entry = self._memory.get(fingerprint)
            if entry is not None:
                self._memory.move_to_end(fingerprint)
                self.counters.bump("hits")
                self.counters.bump("memory_hits")
                get_registry().observe("cache_hit_seconds",
                                       perf_counter() - start)
                return entry.schedule, self._copy_stats(entry.stats)
        entry = self._disk_get(fingerprint)
        if entry is not None:
            with self._lock:
                self._remember(fingerprint, entry)
            self.counters.bump("hits")
            self.counters.bump("disk_hits")
            get_registry().observe("cache_hit_seconds", perf_counter() - start)
            return entry.schedule, self._copy_stats(entry.stats)
        self.counters.bump("misses")
        get_registry().observe("cache_miss_seconds", perf_counter() - start)
        return None

    def put(self, fingerprint: str, schedule: Schedule,
            stats: SearchStats | None = None) -> None:
        """Store a finished schedule in both tiers."""
        entry = _Entry(schedule, self._copy_stats(stats))
        with self._lock:
            self._remember(fingerprint, entry)
        self.counters.bump("stores")
        if self.cache_dir is not None:
            self._disk_put(fingerprint, entry)

    # -- memory tier ------------------------------------------------------

    def _remember(self, fingerprint: str, entry: _Entry) -> None:
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

    def _disk_get(self, fingerprint: str) -> _Entry | None:
        if self.cache_dir is None:
            return None
        path = self._disk_path(fingerprint)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            schedule = schedule_from_payload(data["schedule"])
            raw_stats = data.get("stats")
            stats = SearchStats(**raw_stats) if raw_stats is not None else None
            return _Entry(schedule, stats)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Torn, corrupt or incompatible entry: a miss, never an error.
            self.counters.bump("disk_errors")
            return None

    def _disk_put(self, fingerprint: str, entry: _Entry) -> None:
        data = {
            "fingerprint": fingerprint,
            "schedule": schedule_to_payload(entry.schedule),
            "stats": dataclasses.asdict(entry.stats) if entry.stats else None,
        }
        try:
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(data, fh, indent=1)
            os.replace(tmp, self._disk_path(fingerprint))
        except OSError:
            self.counters.bump("disk_errors")
