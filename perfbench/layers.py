"""Per-layer timing from outside the program: wrappers and the report.

:func:`install` replaces the public functions of each layer, at the
module attributes the program calls them through, with wrappers that
open a ``repro.obs`` span around the call.  A wrapper records only inside
a traced request (a span context is current); elsewhere it calls straight
through.  Wrapper spans go to :data:`STATE.sink`; inside a worker process
the wrapper around ``_execute_wire`` collects them per task and ships
them back with the worker's own spans, so the parent stitches one trace
per request from client, router, node, worker and wrappers alike.

Installing happens only for the traced run, before the route boots, so
forked workers inherit the wrappers.  The timed run never has them.

:func:`layer_metrics` turns the stitched traces (``repro.obs.tracetree``)
plus the results into the per-layer metrics, and :func:`self_time_table`
into the per-layer self-time report.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import defaultdict
from time import perf_counter
from types import SimpleNamespace

from repro.obs import MemoryTracer, build_traces, current_context, span

ROOT = "bench.request"



class Sink(MemoryTracer):
    """A :class:`MemoryTracer` that also takes a ``kind`` keyword field.

    ``run_local_with_deadline`` emits ``deadline_run`` with the fields of
    ``result.as_dict()``, which include ``kind``; with the program's own
    tracers that call raises ``TypeError`` and the request fails.  The
    colliding field is kept as ``result_kind``.
    """

    def emit(self, *args, **fields) -> None:
        if "kind" in fields:
            fields["result_kind"] = fields.pop("kind")
        super().emit(*args, **fields)


#: ``sink`` receives the request spans; ``outside`` accumulates
#: ``[calls, seconds]`` per name for the calls that run outside any span
#: (the server and router fingerprint a request before opening theirs).
STATE = SimpleNamespace(sink=Sink(), outside=defaultdict(lambda: [0, 0.0]))
#: Slack for span-interval containment: span times are rounded to 1 us.
_EPS = 2e-6


def _wrap(fn, name, attrs=None, outside=False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if current_context() is None:
            if not outside:
                return fn(*args, **kwargs)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals = STATE.outside[name]
                totals[0] += 1
                totals[1] += perf_counter() - started
        with span(name, STATE.sink) as live:
            out = fn(*args, **kwargs)
            if attrs is not None:
                live.set(**attrs(args, out))
            return out
    return wrapper


def _wrap_execute_wire(fn):
    @functools.wraps(fn)
    def wrapper(wire):
        outer, STATE.sink = STATE.sink, MemoryTracer()
        try:
            payload = fn(wire)
        finally:
            recorded, STATE.sink = STATE.sink.events, outer
        payload["obs"]["spans"].extend(recorded)
        return payload
    return wrapper


def install() -> None:
    """Wrap every measured layer (see module docstring)."""
    import repro.core.greedy as greedy
    import repro.core.pipeline as pipeline
    import repro.core.search as search
    import repro.core.verify as verify
    import repro.service.protocol as protocol
    import repro.service.workers as workers
    from repro.api import InductionRequest
    from repro.core.cache import ScheduleCache
    from repro.service.client import ServiceClient
    from repro.service.endpoint import Endpoint

    def patch(owner, attr, name, attrs=None):
        setattr(owner, attr, _wrap(getattr(owner, attr), name, attrs))

    for module in (pipeline, search, greedy, verify):
        patch(module, "build_dags", "core.dag")
    for module in (pipeline, search):
        patch(module, "verify_schedule", "core.verify")
        patch(module, "greedy_schedule", "core.greedy")
    for module in (pipeline, workers):
        patch(module, "serial_schedule", "core.serial")
        patch(module, "lockstep_schedule", "core.serial")
    patch(pipeline, "branch_and_bound", "core.engines")
    setattr(InductionRequest, "fingerprint",
            _wrap(InductionRequest.fingerprint, "api.fingerprint",
                  outside=True))
    patch(ScheduleCache, "get", "core.cache.get",
          lambda args, out: {"hit": out is not None})
    patch(Endpoint, "connect", "service.client.connect")
    patch(ServiceClient, "cache_get", "cluster.remotecache.peer_get")
    patch(ServiceClient, "cache_put", "cluster.remotecache.peer_put")
    patch(workers.WorkerPool, "__init__", "service.workers.spawn")
    patch(workers.WorkerPool, "run", "service.workers.run")
    patch(workers.WorkerPool, "close", "service.workers.close")
    protocol.json = SimpleNamespace(
        dumps=_wrap(json.dumps, "service.protocol.encode",
                    lambda args, out: {"bytes": len(out)}),
        loads=_wrap(json.loads, "service.protocol.decode",
                    lambda args, out: {"bytes": len(args[0])}),
        JSONDecodeError=json.JSONDecodeError)
    workers._execute_wire = _wrap_execute_wire(workers._execute_wire)


# -- report ------------------------------------------------------------------


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)


def _contains(outer, inner) -> bool:
    return (outer.start_s <= inner.start_s + _EPS and
            inner.start_s + inner.wall_s <= outer.start_s + outer.wall_s + _EPS)


def _place(parent, node) -> None:
    for sibling in reversed(parent.children):
        if _contains(sibling, node):
            _place(sibling, node)
            return
    parent.children.append(node)


def _nest(node) -> None:
    """Move each span under the latest sibling whose interval holds it.

    A span's recorded parent is the context current when it opened, and
    contexts that cross the wire are captured before the call that ships
    them: the worker's ``worker.execute`` names ``service.dispatch`` as
    parent although it runs inside the wrapper span around
    ``WorkerPool.run``.  Nesting by time puts it where self time needs it.
    """
    children = sorted(node.children, key=lambda c: (c.start_s, -c.wall_s))
    node.children = []
    for child in children:
        _place(node, child)
    for child in node.children:
        _nest(child)


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


class _Request:
    """The spans of one traced request, indexed by name."""

    def __init__(self, root) -> None:
        _nest(root)
        self.root = root
        self.spans = defaultdict(list)
        for node in _walk(root):
            self.spans[node.name].append(node)
        self.parent = {}
        for node in _walk(root):
            for child in node.children:
                self.parent[child.span_id] = node

    def total(self, name: str, attr: str = "self_s") -> float:
        return sum(getattr(node, attr) for node in self.spans[name])

    def under(self, name: str, parent: str) -> list:
        return [node for node in self.spans[name]
                if self.parent.get(node.span_id) is not None
                and self.parent[node.span_id].name == parent]


def requests_from(events) -> list[_Request]:
    """One :class:`_Request` per traced request, in send order."""
    spans = [e for e in events if e.get("kind") == "span"]
    roots = []
    for tree in build_traces(spans):
        roots.extend(root for root in tree.roots if root.name == ROOT)
    roots.sort(key=lambda root: root.start_s)
    return [_Request(root) for root in roots]


def self_time_table(requests: list[_Request]) -> str:
    """Calls and self time per request of every span name, by share."""
    n = max(1, len(requests))
    wall = sum(r.root.wall_s for r in requests) or 1e-12
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for r in requests:
        for name, nodes in r.spans.items():
            calls[name] += len(nodes)
            self_s[name] += sum(node.self_s for node in nodes)
    lines = [f"{'span':34s} {'calls/req':>9s} {'self ms/req':>11s} "
             f"{'share':>7s}"]
    for name in sorted(self_s, key=self_s.get, reverse=True):
        if calls[name]:
            lines.append(f"{name:34s} {calls[name] / n:9.2f} "
                         f"{self_s[name] / n * 1e3:11.3f} "
                         f"{self_s[name] / wall:7.1%}")
    for name, (count, seconds) in sorted(STATE.outside.items()):
        lines.append(f"{name + ' (outside spans)':34s} {count / n:9.2f} "
                     f"{seconds / n * 1e3:11.3f}")
    return "\n".join(lines)


def layer_metrics(requests: list[_Request], results: list, passes: int,
                  traced_p50_ms: float, untraced_p50_ms: float) -> dict:
    """Every per-layer metric (see ``perfbench/README.md``).

    ``results`` holds the program's result for each traced request (None
    for a failed one), in the order of ``requests``.
    """
    n = max(1, len(requests))
    ms = 1e3

    def per_req(name, attr="self_s"):
        return sum(r.total(name, attr) for r in requests) / n

    def count(name):
        return sum(len(r.spans[name]) for r in requests)

    computed = [res for res in results
                if res is not None and not _answered_by_cache(res)]
    stats = [s for res in computed for s in res.search_stats]
    nodes = sum(s.nodes_expanded for s in stats)
    generated = sum(s.children_generated for s in stats)
    engine_s = sum(r.total("core.engines") for r in requests)

    cache_gets = [node for r in requests for node in r.spans["core.cache.get"]]
    misses = sum(1 for node in cache_gets if not node.attrs.get("hit"))
    client_connects = [node for r in requests
                       for node in r.under("service.client.connect",
                                           "client.submit")]
    replies = [node for r in requests
               for node in r.under("service.protocol.decode", "client.submit")]
    from_node = [res for res in results
                 if res is not None and "server_wall_s" in _extras(res)
                 and not _extras(res).get("router_cache")]
    routes = [node for r in requests for node in r.spans["cluster.route"]]
    cached_routes = [node for node in routes if node.attrs.get("cached")]

    def per_request_sum(name):
        return [r.total(name, "wall_s") for r in requests if r.spans[name]]

    ipc = [r.total("service.workers.run", "wall_s")
           - r.total("worker.execute", "wall_s")
           for r in requests
           if r.spans["service.workers.run"] and r.spans["worker.execute"]]
    overhead = [r.total("cluster.route", "wall_s")
                - r.total("service.request", "wall_s")
                for r in requests
                if r.spans["cluster.route"] and r.spans["service.request"]]
    pipeline = [r.total("induce") + r.total("induce.build")
                + r.total("induce.verify")
                for r in requests if r.spans["induce"]]
    wall = sum(r.root.wall_s for r in requests)

    return {
        "core.dag.calls_per_req": count("core.dag") / n,
        "core.dag.ms_per_req": per_req("core.dag") * ms,
        "core.verify.calls_per_req": count("core.verify") / n,
        "core.verify.ms_per_req": per_req("core.verify") * ms,
        "core.greedy.ms_per_req": per_req("core.greedy") * ms,
        "core.serial.calls_per_req": count("core.serial") / n,
        "core.serial.ms_per_req": per_req("core.serial") * ms,
        "core.engines.ms_per_req": per_req("core.engines") * ms,
        "core.engines.nodes": nodes / max(1, passes),
        "core.engines.nodes_per_s": nodes / engine_s if engine_s else 0.0,
        "core.engines.expand_frac": nodes / generated if generated else 0.0,
        "core.engines.budget_exhausted_frac":
            sum(s.budget_exhausted for s in stats) / len(stats)
            if stats else 0.0,
        "core.pipeline.self_ms_p50": _p50(pipeline) * ms,
        "api.fingerprint_ms_per_req":
            (sum(r.total("api.fingerprint", "wall_s") for r in requests)
             + STATE.outside.get("api.fingerprint", (0, 0.0))[1]) / n * ms,
        "core.cache.get_ms_p50": _p50([x.wall_s for x in cache_gets]) * ms,
        "core.cache.hit_frac":
            1 - misses / len(cache_gets) if cache_gets else 0.0,
        "service.client.connects_per_req": len(client_connects) / n,
        "service.client.connect_ms_p50":
            _p50([x.wall_s for x in client_connects]) * ms,
        "service.protocol.encode_ms_p50":
            _p50(per_request_sum("service.protocol.encode")) * ms,
        "service.protocol.decode_ms_p50":
            _p50(per_request_sum("service.protocol.decode")) * ms,
        "service.protocol.reply_kb_p50":
            _p50([x.attrs.get("bytes", 0) for x in replies]) / 1024,
        "service.server.queue_wait_ms_p50":
            _p50([res.extras["queue_wait_s"] for res in from_node]) * ms,
        "service.server.wall_ms_p50":
            _p50([res.extras["server_wall_s"] for res in from_node]) * ms,
        "service.server.batch_mean":
            statistics.fmean([res.extras["batch"] for res in from_node])
            if from_node else 0.0,
        "service.server.hit_dispatch_ms_p50":
            _p50([x.wall_s for r in requests
                  for x in r.spans["service.dispatch"]
                  if x.attrs.get("disposition") == "cache"]) * ms,
        "service.workers.execute_ms_p50":
            _p50([x.wall_s for r in requests
                  for x in r.spans["worker.execute"]]) * ms,
        "service.workers.ipc_ms_p50": _p50(ipc) * ms,
        "service.workers.spawn_ms_p50":
            _p50([x.wall_s for r in requests
                  for x in r.spans["service.workers.spawn"]]) * ms,
        "service.workers.spawns_per_req": count("service.workers.spawn") / n,
        "cluster.router.overhead_ms_p50": _p50(overhead) * ms,
        "cluster.router.attempts_per_req": count("cluster.attempt") / n,
        "cluster.router.cache_hit_frac":
            len(cached_routes) / len(routes) if routes else 0.0,
        "cluster.router.hit_ms_p50":
            _p50([x.wall_s for x in cached_routes]) * ms,
        "cluster.remotecache.peer_gets_per_miss":
            count("cluster.remotecache.peer_get") / misses if misses else 0.0,
        "obs.trace_overhead_frac":
            traced_p50_ms / untraced_p50_ms - 1 if untraced_p50_ms else 0.0,
        "obs.unattributed_frac":
            sum(r.root.self_s for r in requests) / wall if wall else 0.0,
    }


def _extras(result) -> dict:
    return getattr(result, "extras", None) or {}


def _answered_by_cache(result) -> bool:
    return bool(result.cache_hit or _extras(result).get("router_cache"))
