"""End-to-end router behaviour over a real in-process LocalCluster.

Everything here runs over genuine unix sockets: routing and annotation,
cluster-wide in-flight dedup, failover after a node crash, draining, and
the router's protocol surface (status/metrics/ping ops).
"""

import threading

import pytest

from repro.api import InductionRequest
from repro.cluster import HashRing, LocalCluster, RetryPolicy
from repro.core import maspar_cost_model, parse_region
from repro.service import ServiceError

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


def request(seed: int = 0) -> InductionRequest:
    region = parse_region(REGION)
    # Vary the budget so distinct seeds give distinct fingerprints.
    return InductionRequest(region=region, model=maspar_cost_model(),
                            budget=5_000 + seed)


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(nodes=3, cache_capacity=16,
                      retry=RetryPolicy(attempts=4, backoff_s=0.01),
                      mark_down_after=2) as clu:
        yield clu


def owners_of(cluster, req, count=2):
    ring = HashRing(cluster.config.node_names, vnodes=cluster.config.vnodes)
    return ring.preference(req.fingerprint(), count=count)


class TestRouting:
    def test_submit_routes_and_annotates(self, cluster):
        req = request(1)
        result = cluster.client().submit(req)
        assert result.cost > 0
        assert result.extras["routed_node"] in cluster.config.node_names
        assert result.extras["route_attempts"] == 1
        # Deterministic placement: the routed node is the ring owner.
        assert result.extras["routed_node"] == owners_of(cluster, req)[0]

    def test_repeat_hits_the_router_request_cache(self, cluster):
        req = request(2)
        first = cluster.client().submit(req)
        owner_index = cluster.config.node_names.index(
            first.extras["routed_node"])
        node_hits_before = cluster.node_stats()[owner_index].get(
            "cache_hits", 0)
        router_hits_before = cluster.router.counters["router_cache_hits"]
        second = cluster.client().submit(req)
        assert second.cost == first.cost
        assert second.extras.get("router_cache") is True
        # Routing facts from the original forward survive in the copy.
        assert second.extras["routed_node"] == first.extras["routed_node"]
        assert cluster.router.counters["router_cache_hits"] == \
            router_hits_before + 1
        # Served at the front door: the owner node saw nothing.
        assert cluster.node_stats()[owner_index].get("cache_hits", 0) == \
            node_hits_before
        # Bypassing the router still exercises the node's own cache tier.
        direct = cluster.node_client(owner_index).submit(req)
        assert direct.cost == first.cost
        assert cluster.node_stats()[owner_index].get("cache_hits", 0) == \
            node_hits_before + 1

    def test_routed_miss_asks_one_peer_once(self, cluster):
        # The node looks every cache tier up once, at admission; its
        # dispatcher's re-check stays local, so a miss costs exactly one
        # peer cache_get (the fingerprint's other ring owner).
        def peer_gets():
            return sum(s.get("peer_cache_requests", 0)
                       for s in cluster.node_stats())

        before = peer_gets()
        result = cluster.client().submit(request(40))
        assert result.extras["disposition"] == "miss"
        assert peer_gets() - before == 1

    def test_inflight_duplicates_share_one_forward(self, cluster):
        req = request(3)
        dedup_before = cluster.router.counters["route_dedup_hits"]
        client = cluster.cluster_client()
        results = [None] * 4
        errors = []

        def go(i, chaos):
            try:
                results[i] = client.submit(req, chaos=chaos)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        # The leader's chaos sleep holds the fingerprint in flight long
        # enough for the followers to rendezvous on it.
        threads = [threading.Thread(
            target=go, args=(i, {"sleep_s": 0.3} if i == 0 else None))
            for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        client.close()
        assert not errors
        costs = {r.cost for r in results}
        assert len(costs) == 1
        assert client.counters["route_dedup_hits"] >= 1
        assert any(r.extras.get("router_dedup") for r in results)
        # Dedup happened inside the in-process client, not the router.
        assert cluster.router.counters["route_dedup_hits"] == dedup_before


class TestFailover:
    def test_kill_owner_fails_over_to_replica(self):
        # Request cache off: the strike-out below depends on the same
        # fingerprint being *forwarded* repeatedly, not answered cached.
        with LocalCluster(nodes=3, cache_capacity=16, replication=2,
                          retry=RetryPolicy(attempts=4, backoff_s=0.01),
                          mark_down_after=2, request_cache_size=0) as clu:
            req = request(4)
            owner, replica = owners_of(clu, req)[:2]
            clu.kill_node(clu.config.node_names.index(owner))
            result = clu.client().submit(req)
            assert result.extras["routed_node"] == replica
            assert result.extras["route_attempts"] >= 2
            assert clu.router.counters["route_failovers"] >= 1
            # Two strikes (mark_down_after=2): one more request marks the
            # dead owner down and the ring stops planning through it.
            clu.client().submit(req)
            assert clu.router.membership.states()[owner] == "down"
            clean = clu.client().submit(req)
            assert clean.extras["route_attempts"] == 1

    def test_all_nodes_dead_is_an_error_not_a_hang(self):
        with LocalCluster(nodes=2, cache_capacity=4,
                          retry=RetryPolicy(attempts=2, backoff_s=0.0)) as clu:
            clu.kill_node(0)
            clu.kill_node(1)
            with pytest.raises(ServiceError):
                clu.client().submit(request(5))
            assert clu.router.counters["routed_failed"] >= 1


class TestDrain:
    def test_drained_node_stops_receiving_new_work(self):
        with LocalCluster(nodes=3, cache_capacity=16) as clu:
            req = request(6)
            owner = owners_of(clu, req)[0]
            clu.drain_node(clu.config.node_names.index(owner))
            assert clu.router.membership.states()[owner] == "draining"
            result = clu.client().submit(req)
            assert result.extras["routed_node"] != owner
            assert clu.router.counters["drains"] == 1


class TestRouterProtocol:
    def test_stats_metrics_ping_ops(self, cluster):
        client = cluster.client()
        stats = client.stats()
        assert stats["cluster_nodes"] == 3
        assert stats["cluster_nodes_up"] >= 1
        assert stats["slo_healthy"] in (0.0, 1.0)
        metrics = client.metrics()
        assert "cluster_route_seconds" in metrics
        assert "routed_ok" in metrics
        assert "repro_slo_latency_burn_60s" in metrics
        assert client.ping() is True

    def test_status_snapshot(self, cluster):
        cluster.client().submit(request(7))
        status = cluster.router.status()
        assert len(status["nodes"]) == 3
        assert set(status["ring_nodes"]) <= set(cluster.config.node_names)
        assert status["vnodes"] == cluster.config.vnodes
        assert any(k.startswith("route_") for k in status["counters"])

    def test_unknown_op_is_a_protocol_error(self, cluster):
        from repro.service import protocol
        with cluster.router.endpoint.connect(timeout=5.0) as sock:
            protocol.send_message(sock, {"op": "frobnicate"})
            reply = protocol.recv_message(sock)
        assert reply["status"] == "error"
        assert "unknown op" in reply["error"]

    def test_router_shutdown_leaves_nodes_running(self):
        clu = LocalCluster(nodes=2, cache_capacity=4)
        try:
            clu.client().submit(request(8))
            clu.router.shutdown()
            assert clu.router.wait_stopped(timeout=5.0)
            direct = clu.node_client(0).ping()
            assert direct is True
        finally:
            clu.shutdown()


class TestRequestCache:
    def test_lru_evicts_oldest_fingerprint(self):
        with LocalCluster(nodes=2, cache_capacity=16,
                          request_cache_size=2) as clu:
            reqs = [request(10 + i) for i in range(3)]
            for req in reqs:
                clu.client().submit(req)
            # Three distinct fingerprints through a 2-slot cache: the
            # first is evicted and must forward again on repeat.
            hits_before = clu.router.counters["router_cache_hits"]
            evicted = clu.client().submit(reqs[0])
            assert not evicted.extras.get("router_cache")
            assert clu.router.counters["router_cache_hits"] == hits_before
            # The repeat re-cached it; now it hits.
            again = clu.client().submit(reqs[0])
            assert again.extras.get("router_cache") is True
            assert clu.router.counters["router_cache_hits"] == \
                hits_before + 1

    def test_disabled_cache_always_forwards(self):
        with LocalCluster(nodes=2, cache_capacity=16,
                          request_cache_size=0) as clu:
            req = request(20)
            clu.client().submit(req)
            repeat = clu.client().submit(req)
            assert not repeat.extras.get("router_cache")
            assert clu.router.counters["router_cache_hits"] == 0

    def test_only_ok_nondegraded_replies_cached(self, cluster):
        router = cluster.router
        router._cache_store("fp-err", {"status": "error", "error": "boom"})
        router._cache_store("fp-busy", {"status": "busy"})
        router._cache_store(
            "fp-degraded",
            {"status": "ok", "result": {"degraded": True, "cost": 1.0}})
        assert router._cache_lookup("fp-err") is None
        assert router._cache_lookup("fp-busy") is None
        assert router._cache_lookup("fp-degraded") is None
        router._cache_store(
            "fp-ok", {"status": "ok", "result": {"degraded": False,
                                                 "cost": 1.0}})
        assert router._cache_lookup("fp-ok") is not None

    def test_cached_reply_is_a_private_copy(self, cluster):
        req = request(21)
        first = cluster.client().submit(req)
        second = cluster.client().submit(req)
        assert second.extras.get("router_cache") is True
        # Mutating one reply's payload must never leak into the next.
        second.extras["routed_node"] = "tampered"
        third = cluster.client().submit(req)
        assert third.extras["routed_node"] == first.extras["routed_node"]


class TestPooledForwarding:
    def test_stale_node_connection_is_not_an_attempt_or_a_strike(self):
        from repro.core import ScheduleCache
        from repro.service import InductionServer, ServerConfig

        # mark_down_after=1: a single strike would mark the node down.
        with LocalCluster(nodes=3, cache_capacity=16, mark_down_after=1,
                          request_cache_size=0) as clu:
            req = request(50)
            with clu.client() as client:
                first = client.submit(req)
                node = first.extras["routed_node"]
                index = clu.config.node_names.index(node)
                # Restart the node on its endpoint: the router's pooled
                # connection to it now leads nowhere.
                clu.servers[index].shutdown()
                clu.servers[index] = InductionServer(
                    ServerConfig(endpoint=clu.endpoints[index], workers=1),
                    cache=ScheduleCache())
                second = client.submit(req)
            assert second.extras["routed_node"] == node
            assert second.extras["route_attempts"] == 1
            assert clu.router.counters["route_failovers"] == 0
            assert clu.router.counters["route_retries"] == 0
            assert clu.router.membership.states()[node] == "up"
            assert clu.servers[index].stats()["requests"] == 1
            assert second.cost == first.cost


class TestSharedCachedReply:
    def test_mutating_a_reply_never_changes_the_next_hit(self):
        import copy

        from repro.service import protocol

        with LocalCluster(nodes=2, cache_capacity=16) as clu:
            client = clu.cluster_client()
            try:
                req = request(60)
                wire = protocol.request_to_wire(req)
                client.submit_wire(dict(wire))
                hit = client.submit_wire(dict(wire))
                assert hit["result"]["router_cache"] is True
                expected = copy.deepcopy(hit)
                # The top two levels are the caller's own ...
                hit["result"]["cost"] = -1.0
                hit["status"] = "tampered"
                # ... everything below is the cache's, and read-only.
                with pytest.raises((TypeError, AttributeError)):
                    hit["result"]["schedule"].append(["alu", []])
                with pytest.raises(TypeError):
                    hit["result"]["schedule"][0] = None
                with pytest.raises(TypeError):
                    hit["result"]["stats"][0]["nodes_expanded"] = -1
                result = client.submit(req)
                assert result.extras["router_cache"] is True
                result.extras["routed_node"] = "tampered"
                result.stats[0].nodes_expanded = -1
                assert client.submit_wire(dict(wire)) == expected
                again = client.submit(req)
                assert again.extras["routed_node"] != "tampered"
                assert again.stats[0].nodes_expanded >= 0
            finally:
                client.close()


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


@pytest.mark.parametrize("vn", ["off", "on"])
def test_peer_hit_reports_the_miss_baselines(vn):
    with LocalCluster(nodes=3, cache_capacity=16, replication=2) as clu:
        req = InductionRequest(region=VN_REGION, budget=10_000, vn=vn)
        with clu.client() as client:
            miss = client.submit(req)
        outsider = next(
            i for i, name in enumerate(clu.config.node_names)
            if name not in owners_of(clu, req))
        with clu.node_client(outsider) as client:
            hit = client.submit(req)
        assert miss.extras["disposition"] == "miss"
        assert hit.extras["disposition"] == "cache"
        assert clu.caches[outsider].counters["remote_hits"] == 1
        assert (hit.serial_cost, hit.lockstep_cost) == \
            (miss.serial_cost, miss.lockstep_cost)
        assert hit.cost == miss.cost
