"""End-to-end tests for the induction service's robustness contract.

Fault injection uses the wire-level ``chaos`` object (honoured because the
test servers set ``allow_chaos=True``): ``sleep_s`` stalls a worker to make
deadlines and queue pressure deterministic, ``crash_attempts`` kills the
worker mid-task to exercise retry-with-backoff.
"""

import sys
import threading
import time

import pytest

from repro.api import InductionRequest
from repro.core import maspar_cost_model, parse_region, verify_schedule
from repro.service import (
    InductionServer, ServerConfig, ServiceBusy, ServiceClient, ServiceError,
)

REGION = """
thread 0:
    a = ld x
    b = mul a a
    c = add b a
thread 1:
    d = ld x
    e = mul d d
    f = add e d
"""

def make_server(tmp_path, **overrides):
    defaults = dict(address=str(tmp_path / "svc.sock"), workers=1,
                    queue_size=8, batch_max=4, backoff_s=0.01,
                    allow_chaos=True)
    defaults.update(overrides)
    return InductionServer(ServerConfig(**defaults))


@pytest.fixture
def request_():
    return InductionRequest(region=REGION, budget=10_000)


def test_submit_returns_verified_schedule(tmp_path, request_):
    server = make_server(tmp_path)
    try:
        with ServiceClient(server.address) as client:
            result = client.submit(request_)
        assert not result.degraded
        assert result.cost > 0
        verify_schedule(result.schedule, parse_region(REGION),
                        maspar_cost_model())
    finally:
        server.shutdown()


def test_ping_and_stats(tmp_path, request_):
    server = make_server(tmp_path)
    try:
        client = ServiceClient(server.address)
        assert client.ping()
        client.submit(request_)
        stats = client.stats()
        assert stats["requests"] == 1
        assert stats["ok"] == 1
        assert stats["workers"] == 1
    finally:
        server.shutdown()


def test_concurrent_duplicates_are_deduplicated(tmp_path, request_):
    server = make_server(tmp_path, workers=2)
    try:
        client = ServiceClient(server.address)
        results = [None] * 6
        # A stalled first submit holds the group in-flight so the
        # duplicates have something to join.
        def go(i, chaos=None):
            results[i] = client.submit(request_, chaos=chaos)
        threads = [threading.Thread(
            target=go, args=(0, {"sleep_s": 0.3}))]
        threads[0].start()
        time.sleep(0.1)
        threads += [threading.Thread(target=go, args=(i,)) for i in range(1, 6)]
        for t in threads[1:]:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert all(r is not None for r in results)
        assert len({r.cost for r in results}) == 1
        stats = client.stats()
        assert stats["dedup_hits"] + stats.get("cache_hits", 0) >= 1
    finally:
        server.shutdown()


def test_killed_worker_is_retried_and_completes(tmp_path, request_):
    server = make_server(tmp_path, max_retries=2)
    try:
        client = ServiceClient(server.address)
        result = client.submit(request_, chaos={"crash_attempts": 1})
        assert not result.degraded
        assert result.cost > 0
        assert result.extras.get("retries", 0) >= 1
        stats = client.stats()
        assert stats["worker_deaths"] >= 1
        assert stats["retries"] >= 1
        verify_schedule(result.schedule, parse_region(REGION),
                        maspar_cost_model())
    finally:
        server.shutdown()


def test_retries_exhausted_degrades_not_errors(tmp_path, request_):
    server = make_server(tmp_path, max_retries=1)
    try:
        client = ServiceClient(server.address)
        result = client.submit(request_, chaos={"crash_attempts": 5})
        assert result.degraded
        assert result.optimal is False
        verify_schedule(result.schedule, parse_region(REGION),
                        maspar_cost_model())
        assert client.stats()["degraded_retries"] == 1
    finally:
        server.shutdown()


def test_deadline_expiry_degrades_to_verified_greedy(tmp_path, request_):
    server = make_server(tmp_path)
    try:
        client = ServiceClient(server.address)
        start = time.monotonic()
        result = client.submit(request_.replace(deadline_s=0.2),
                               chaos={"sleep_s": 5.0})
        elapsed = time.monotonic() - start
        assert result.degraded
        assert elapsed < 4.0  # did not wait out the stall
        verify_schedule(result.schedule, parse_region(REGION),
                        maspar_cost_model())
        assert client.stats()["degraded_deadline"] == 1
    finally:
        server.shutdown()


def test_queue_overflow_sheds_with_busy(tmp_path, request_):
    server = make_server(tmp_path, workers=1, queue_size=1, batch_max=1)
    try:
        client = ServiceClient(server.address)
        background = []
        # Occupy the single worker, then the batcher, then the queue —
        # each with a distinct fingerprint so nothing deduplicates.
        def go(budget):
            background.append(client.submit(
                request_.replace(budget=budget), chaos={"sleep_s": 0.6}))
        threads = []
        for i, budget in enumerate((11_111, 22_222, 33_333)):
            t = threading.Thread(target=go, args=(budget,))
            t.start()
            threads.append(t)
            time.sleep(0.15)
        with pytest.raises(ServiceBusy, match="queue full"):
            client.submit(request_.replace(budget=44_444))
        assert client.stats()["shed"] == 1
        for t in threads:
            t.join(timeout=30)
        assert len(background) == 3  # the occupants all completed fine
    finally:
        server.shutdown()


def test_shutdown_drains_in_flight(tmp_path, request_):
    server = make_server(tmp_path)
    client = ServiceClient(server.address)
    box = {}

    def go():
        box["result"] = client.submit(request_, chaos={"sleep_s": 0.5})

    t = threading.Thread(target=go)
    t.start()
    time.sleep(0.15)  # let it reach a worker
    server.shutdown(drain=True)
    t.join(timeout=30)
    assert not box["result"].degraded
    assert box["result"].cost > 0
    assert server.wait_stopped(0.0)


def test_requests_after_shutdown_get_busy(tmp_path, request_):
    server = make_server(tmp_path)
    address = server.address
    client = ServiceClient(address)
    # TCP keeps the port logic exercised too, but unix is the default here:
    # after shutdown the socket file is unlinked, so the client sees
    # "unreachable" rather than busy; test the stopping window instead.
    server._stopping = True
    with pytest.raises(ServiceBusy, match="shutdown"):
        client.submit(request_)
    server.shutdown()


def test_tcp_transport(tmp_path, request_):
    server = make_server(tmp_path, address="127.0.0.1:0")
    try:
        assert ":" in server.address
        with ServiceClient(server.address) as client:
            result = client.submit(request_)
        assert result.cost > 0
    finally:
        server.shutdown()


def test_windowed_request_over_service(tmp_path):
    server = make_server(tmp_path)
    try:
        request = InductionRequest(region=REGION, window=2, budget=10_000)
        with ServiceClient(server.address) as client:
            result = client.submit(request)
        assert not result.degraded
        verify_schedule(result.schedule, parse_region(REGION),
                        maspar_cost_model())
    finally:
        server.shutdown()


def make_cached_server(tmp_path, tracer=None, **overrides):
    from repro.core import ScheduleCache

    defaults = dict(address=str(tmp_path / "svc.sock"), workers=1,
                    backoff_s=0.01, allow_chaos=True)
    defaults.update(overrides)
    return InductionServer(ServerConfig(**defaults), cache=ScheduleCache(),
                           tracer=tracer)


def test_cache_hit_disposition(tmp_path, request_):
    from repro.obs import MemoryTracer, build_traces

    tracer = MemoryTracer()
    server = make_cached_server(tmp_path, tracer=tracer)
    try:
        client = ServiceClient(server.address)
        first = client.submit(request_)
        second = client.submit(request_)
        assert first.extras["disposition"] == "miss"
        assert second.extras["disposition"] == "cache"
        assert second.cache_hit
        assert second.cost == first.cost
        # Answered at admission: no queue, no batch company.
        assert second.extras["queue_wait_s"] == 0.0
        assert second.extras["batch"] == 1
        assert not second.extras["deduped"]
        assert client.stats()["cache_hits"] == 1
    finally:
        server.shutdown()

    spans = [e for e in tracer.events if e["kind"] == "span"]
    trees = sorted(build_traces(spans), key=lambda t: t.roots[0].start_s)
    assert len(trees) == 2
    (root,) = trees[1].roots
    assert root.name == "service.request"
    (dispatch,) = root.children
    assert dispatch.name == "service.dispatch"
    assert dispatch.attrs["disposition"] == "cache"
    assert "worker.execute" not in {n.name for n in trees[1]._walk()}


def test_draining_node_sheds_a_cached_fingerprint(tmp_path, request_):
    server = make_cached_server(tmp_path)
    try:
        client = ServiceClient(server.address)
        client.submit(request_)
        client.drain()
        with pytest.raises(ServiceBusy, match="draining"):
            client.submit(request_)
        stats = client.stats()
        assert stats["shed"] == 1
        assert stats.get("cache_hits", 0) == 0
    finally:
        server.shutdown()


def test_cache_hit_is_not_blocked_by_a_stalled_worker(tmp_path, request_):
    server = make_cached_server(tmp_path)
    try:
        client = ServiceClient(server.address)
        client.submit(request_)                    # now cached
        box = {}

        def stalled():
            box["result"] = client.submit(request_.replace(budget=12_345),
                                          chaos={"sleep_s": 2.0})

        t = threading.Thread(target=stalled)
        t.start()
        time.sleep(0.3)  # the miss now holds the only worker
        hit = client.submit(request_)
        assert t.is_alive(), "the hit waited for the stalled miss"
        assert hit.extras["disposition"] == "cache"
        assert hit.extras["queue_wait_s"] == 0.0
        t.join(timeout=30)
        assert box["result"].extras["disposition"] == "miss"
        assert not box["result"].degraded
    finally:
        server.shutdown()


def test_concurrent_submits_run_one_search_per_fingerprint(tmp_path,
                                                          request_):
    # Admission lookups, in-flight joins and the dispatcher's re-check
    # race each other here; whichever wins, each fingerprint is searched
    # exactly once.  More workers than cores and a short switch interval
    # make the interleavings dense.
    server = make_cached_server(tmp_path, workers=3)
    client = ServiceClient(server.address)
    requests = [request_.replace(budget=30_000 + i) for i in range(3)]
    results = {i: [] for i in range(len(requests))}
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(
            target=lambda i=i: results[i].append(client.submit(requests[i])))
            for i in range(len(requests)) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(previous)
        stats = server.stats()
        server.shutdown()
    assert all(len(r) == 8 and len({x.cost for x in r}) == 1
               for r in results.values())
    searches = stats["requests"] - stats.get("dedup_hits", 0) \
        - stats.get("cache_hits", 0)
    assert searches == len(requests)


def test_drain_during_hits_and_misses_loses_none(tmp_path, request_):
    server = make_cached_server(tmp_path, workers=2)
    client = ServiceClient(server.address)
    warm = [request_.replace(budget=10_000 + i) for i in range(3)]
    for req in warm:
        client.submit(req)
    misses, hits, refused, errors = [], [], [], []
    stop = threading.Event()

    def miss(i):
        try:
            misses.append(client.submit(request_.replace(budget=20_000 + i),
                                        chaos={"sleep_s": 0.4}))
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    def hit(i):
        while not stop.is_set():
            try:
                hits.append(client.submit(warm[i % len(warm)]))
            except ServiceBusy:
                refused.append(i)
                return
            except Exception:  # noqa: BLE001 - listener gone: not admitted
                refused.append(i)
                return

    miss_threads = [threading.Thread(target=miss, args=(i,))
                    for i in range(3)]
    hit_threads = [threading.Thread(target=hit, args=(i,)) for i in range(3)]
    for t in miss_threads + hit_threads:
        t.start()
    deadline = time.monotonic() + 10.0
    while server.stats()["requests"] < len(warm) + 3 + 3 and \
            time.monotonic() < deadline:
        time.sleep(0.01)
    server.shutdown(drain=True)
    stop.set()
    for t in miss_threads + hit_threads:
        t.join(timeout=30)
    assert not errors
    assert len(misses) == 3
    assert all(not r.degraded and r.extras["disposition"] == "miss"
               for r in misses)
    assert hits and all(r.extras["disposition"] == "cache" for r in hits)
    stats = server.stats()
    # Every admitted request was answered: ok or shed, nothing lost.
    assert stats["open_tickets"] == 0
    assert stats["requests"] == stats["ok"] + stats.get("shed", 0)
    assert stats["ok"] == len(warm) + len(misses) + len(hits)


def test_malformed_region_is_an_error_not_a_crash(tmp_path, request_):
    from repro.service import protocol

    server = make_server(tmp_path)
    try:
        client = ServiceClient(server.address)
        wire = protocol.request_to_wire(request_)
        wire["method"] = "magic"
        with protocol.connect(server.address, timeout=10.0) as sock:
            protocol.send_message(sock, wire)
            reply = protocol.recv_message(sock)
        assert reply["status"] == "error"
        # The server survives and still answers.
        assert client.ping()
    finally:
        server.shutdown()


def test_stats_gauges_and_percentiles(tmp_path, request_):
    server = make_server(tmp_path)
    try:
        client = ServiceClient(server.address)
        client.submit(request_)
        stats = client.stats()
        assert stats["uptime_s"] > 0
        assert stats["open_tickets"] == 0
        assert stats["trace_events"] == 0          # no tracer configured
        assert stats["service_request_seconds_p99"] > 0
        assert stats["service_queue_wait_seconds_p50"] >= 0
    finally:
        server.shutdown()


def test_metrics_op_returns_prometheus_text(tmp_path, request_):
    server = make_server(tmp_path)
    try:
        client = ServiceClient(server.address)
        client.submit(request_)
        client.submit(request_)
        text = client.metrics()
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 2" in text
        assert "# TYPE repro_service_request_seconds histogram" in text
        assert 'repro_service_request_seconds_bucket{le="+Inf"} 2' in text
        p99 = [line for line in text.splitlines()
               if line.startswith("repro_service_request_seconds_p99 ")]
        assert p99 and float(p99[0].split()[1]) > 0
        # Every line is "# ..." or "name value", optionally followed by an
        # OpenMetrics exemplar — the scrapable contract.
        for line in text.strip().splitlines():
            sample = line.split(" # ")[0]
            assert line.startswith("# ") or len(sample.split()) == 2
        # Bucket-max observations carry their trace id as an exemplar.
        exemplars = [line for line in text.splitlines()
                     if ' # {trace_id="' in line]
        assert exemplars, "expected at least one histogram exemplar"
        trace_id = exemplars[0].split('trace_id="')[1].split('"')[0]
        assert len(trace_id) == 32 and set(trace_id) <= set("0123456789abcdef")
    finally:
        server.shutdown()


def test_service_round_trip_is_one_stitched_trace(tmp_path, request_):
    from repro.obs import MemoryTracer, build_traces

    tracer = MemoryTracer()
    server = InductionServer(
        ServerConfig(address=str(tmp_path / "svc.sock"), workers=1),
        tracer=tracer)
    try:
        with ServiceClient(server.address) as client:
            assert not client.submit(request_).degraded
    finally:
        server.shutdown()

    spans = [e for e in tracer.events if e["kind"] == "span"]
    assert len({e["trace"] for e in spans}) == 1
    (tree,) = build_traces(spans)
    assert [r.name for r in tree.roots] == ["service.request"]
    (dispatch,) = tree.roots[0].children
    assert dispatch.name == "service.dispatch"
    names = {n.name for n in tree._walk()}
    # Worker-process spans made it back with links intact (unless the
    # environment forced the inline pool, where they are still present).
    assert {"service.request", "service.dispatch",
            "worker.execute", "induce"} <= names


# -- baselines stored with the cached schedule ------------------------------

#: A region the vn pre-pass rewrites to a cheaper serial baseline, so a hit
#: that measured baselines on the pre-vn region would show.
VN_REGION = """
thread 0:
    t0 = ld x
    t1 = mul t0 #4
    t2 = add t1 t0
    t3 = sub t1 t1
thread 1:
    u0 = ld x
    u1 = mul u0 #4.0
    u2 = add u0 u1
    u3 = sub u1 u1
"""


def baselines(result):
    return result.serial_cost, result.lockstep_cost


@pytest.mark.parametrize("vn", ["off", "on"])
def test_memory_hit_reports_the_miss_baselines(tmp_path, vn):
    from repro import api

    req = InductionRequest(region=VN_REGION, budget=10_000, vn=vn)
    fresh = api.induce(req)
    if vn == "on":
        plain = api.induce(req.replace(vn="off"))
        assert fresh.serial_cost < plain.serial_cost
    server = make_cached_server(tmp_path)
    try:
        with ServiceClient(server.endpoint) as client:
            miss = client.submit(req)
            hit = client.submit(req)
    finally:
        server.shutdown()
    assert miss.extras["disposition"] == "miss"
    assert hit.extras["disposition"] == "cache"
    assert baselines(miss) == baselines(hit) == baselines(fresh)
    assert hit.cost == miss.cost == fresh.cost


def test_disk_hit_reports_the_miss_baselines(tmp_path):
    from repro.core import ScheduleCache

    req = InductionRequest(region=VN_REGION, budget=10_000, vn="on")
    replies = []
    for _ in range(2):
        cache = ScheduleCache(cache_dir=tmp_path / "cache")
        server = InductionServer(
            ServerConfig(endpoint=f"unix://{tmp_path / 'svc.sock'}",
                         workers=1), cache=cache)
        try:
            with ServiceClient(server.endpoint) as client:
                replies.append(client.submit(req))
        finally:
            server.shutdown()
    miss, hit = replies
    assert miss.extras["disposition"] == "miss"
    assert hit.extras["disposition"] == "cache"
    assert cache.counters["disk_hits"] == 1
    assert baselines(hit) == baselines(miss)


def test_entry_without_baselines_is_a_request_level_miss(tmp_path, request_):
    from repro import api
    from repro.core import ScheduleCache

    # What a windowed run or an older disk file leaves: a schedule under
    # the request's key but no baseline costs.
    cache = ScheduleCache()
    cache.put(request_.fingerprint(), api.induce(request_).schedule)
    server = InductionServer(
        ServerConfig(endpoint=f"unix://{tmp_path / 'svc.sock'}", workers=1),
        cache=cache)
    try:
        with ServiceClient(server.endpoint) as client:
            first = client.submit(request_)
            second = client.submit(request_)
    finally:
        server.shutdown()
    # The incomplete entry is recomputed and replaced by a complete one.
    assert first.extras["disposition"] == "miss"
    assert second.extras["disposition"] == "cache"
    assert baselines(first) == baselines(second)
    assert cache.get(request_.fingerprint(), baselines=True) is not None


# -- connections -------------------------------------------------------------


def wait_for_open_connections(server, count, timeout=5.0):
    """Handlers drop a connection just after its peer hangs up; poll."""
    deadline = time.monotonic() + timeout
    while server.stats()["open_connections"] != count and \
            time.monotonic() < deadline:
        time.sleep(0.01)
    return server.stats()["open_connections"]


def test_membership_probes_close_their_connections(tmp_path):
    from repro.cluster import Membership

    server = make_server(tmp_path)
    try:
        start = server.stats()["open_connections"]
        membership = Membership([server.endpoint], probe_timeout_s=2.0)
        for _ in range(50):
            assert membership.probe_once() == {str(server.endpoint): "up"}
        assert wait_for_open_connections(server, start) == start
    finally:
        server.shutdown()


def test_shutdown_closes_idle_client_connections(tmp_path, request_):
    server = make_server(tmp_path)
    client = ServiceClient(server.endpoint, timeout=5.0)
    client.submit(request_)
    assert server.stats()["open_connections"] == 1
    server.shutdown()
    assert wait_for_open_connections(server, 0) == 0
    # The client's idle connection is dead; it fails fast, never hangs.
    started = time.monotonic()
    with pytest.raises(ServiceError):
        client.submit(request_)
    assert time.monotonic() - started < 2.0
