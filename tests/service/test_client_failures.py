"""Client-side failure paths: the cases a healthy server never exercises.

Everything here runs against either no server at all or a *fake* one — a
bare listening socket the test scripts byte-by-byte — because the point is
the client's behaviour when the far side misbehaves: nothing listening,
connect that times out, a connection dropped before the reply header, a
frame truncated mid-body, garbage bytes, and recovery after the real server
restarts on the same address.  The pooled-connection tests at the end run
against real servers: stale connections after a restart or shutdown, and
one client shared by many threads.
"""

import socket
import sys
import threading
import time

import pytest

from repro.api import InductionRequest
from repro.service import (
    Endpoint, InductionServer, ServerConfig, ServiceClient, ServiceError,
)

REGION = """
thread 0:
    a = ld x
    b = mul a a
thread 1:
    c = ld x
    d = mul c c
"""


@pytest.fixture
def request_():
    return InductionRequest(region=REGION, budget=5_000)


class FakeServer:
    """A listening socket with a scripted per-connection behaviour."""

    def __init__(self, tmp_path, handler):
        self.path = str(tmp_path / "fake.sock")
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(self.path)
        self._sock.listen(4)
        self._handler = handler
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                self._sock.settimeout(0.2)
                conn, _ = self._sock.accept()
            except (socket.timeout, OSError):
                continue
            with conn:
                try:
                    self._handler(conn)
                except OSError:
                    pass

    def close(self):
        self._stop.set()
        self._thread.join(timeout=2)
        self._sock.close()


class TestConnectFailures:
    def test_nothing_listening(self, tmp_path, request_):
        client = ServiceClient(str(tmp_path / "absent.sock"))
        with pytest.raises(ServiceError, match="unreachable"):
            client.submit(request_)

    def test_ping_false_when_absent(self, tmp_path):
        assert not ServiceClient(str(tmp_path / "absent.sock")).ping()

    def test_connect_timeout(self, request_):
        # A listener whose accept backlog is already full drops further
        # SYNs, so the connect itself must hit the client-side timeout.
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(0)
        host, port = listener.getsockname()
        filler = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        filler.settimeout(1.0)
        filler.connect((host, port))  # occupies the single backlog slot
        try:
            client = ServiceClient(f"{host}:{port}", timeout=0.2)
            with pytest.raises(ServiceError, match="unreachable"):
                client.submit(request_)
        finally:
            filler.close()
            listener.close()


class TestBrokenReplies:
    def test_disconnect_before_reply(self, tmp_path, request_):
        def handler(conn):
            conn.recv(65536)  # swallow the request, then hang up

        fake = FakeServer(tmp_path, handler)
        try:
            client = ServiceClient(fake.path, timeout=2.0)
            with pytest.raises(ServiceError, match="closed the connection"):
                client.submit(request_)
        finally:
            fake.close()

    def test_disconnect_mid_frame(self, tmp_path, request_):
        def handler(conn):
            conn.recv(65536)
            # Header promises 100 bytes; send 3 and hang up.
            conn.sendall((100).to_bytes(4, "big") + b"{\"s")

        fake = FakeServer(tmp_path, handler)
        try:
            client = ServiceClient(fake.path, timeout=2.0)
            with pytest.raises(ServiceError, match="mid-frame"):
                client.submit(request_)
        finally:
            fake.close()

    def test_garbage_frame(self, tmp_path, request_):
        def handler(conn):
            conn.recv(65536)
            body = b"\xff\xfenot json"
            conn.sendall(len(body).to_bytes(4, "big") + body)

        fake = FakeServer(tmp_path, handler)
        try:
            client = ServiceClient(fake.path, timeout=2.0)
            with pytest.raises(ServiceError, match="bad frame"):
                client.submit(request_)
        finally:
            fake.close()

    def test_stalled_reply_hits_timeout(self, tmp_path, request_):
        def handler(conn):
            conn.recv(65536)
            # Send a header and then nothing: the read must time out.
            conn.sendall((50).to_bytes(4, "big"))
            import time
            time.sleep(1.0)

        fake = FakeServer(tmp_path, handler)
        try:
            client = ServiceClient(fake.path, timeout=0.2)
            with pytest.raises(ServiceError, match="unreachable"):
                client.submit(request_)
        finally:
            fake.close()


class TestReconnect:
    def test_client_survives_server_restart(self, tmp_path, request_):
        address = str(tmp_path / "svc.sock")
        client = ServiceClient(address, timeout=10.0)

        server = InductionServer(ServerConfig(address=address, workers=1))
        try:
            first = client.submit(request_)
        finally:
            server.shutdown()

        # Down: the same client object now fails cleanly...
        with pytest.raises(ServiceError):
            client.submit(request_)

        # ...and works again, unchanged, once a new server binds the address.
        server = InductionServer(ServerConfig(address=address, workers=1))
        try:
            second = client.submit(request_)
        finally:
            server.shutdown()

        assert first.cost == second.cost
        assert not second.degraded


def distinct_regions(count):
    """``count`` regions of distinct shapes (threads x ops), so a reply
    delivered to the wrong caller cannot match that caller's schedule."""
    regions = []
    for i in range(count):
        threads, ops = 2 + i % 4, 1 + i // 4
        lines = []
        for t in range(threads):
            lines.append(f"thread {t}:")
            lines.append(f"    v{t}_0 = ld x")
            lines.extend(f"    v{t}_{k} = add v{t}_{k - 1} v{t}_0"
                         for k in range(1, ops))
        regions.append("\n".join(lines) + "\n")
    return regions


class TestPooledConnections:
    """A client keeps its connections open between calls."""

    def test_calls_reuse_one_connection(self, tmp_path, request_,
                                        monkeypatch):
        connects = []
        connect = Endpoint.connect

        def counting_connect(endpoint, timeout=None):
            connects.append(endpoint)
            return connect(endpoint, timeout)

        server = InductionServer(ServerConfig(
            endpoint=f"unix://{tmp_path / 'svc.sock'}", workers=1))
        monkeypatch.setattr(Endpoint, "connect", counting_connect)
        try:
            with ServiceClient(server.endpoint, timeout=10.0) as client:
                for _ in range(3):
                    client.submit(request_)
                assert client.ping()
                assert len(connects) == 1
                assert server.stats()["open_connections"] == 1
        finally:
            server.shutdown()

    def test_restarted_server_is_reached_through_a_stale_connection(
            self, tmp_path, request_):
        endpoint = f"unix://{tmp_path / 'svc.sock'}"
        client = ServiceClient(endpoint, timeout=10.0)
        old = InductionServer(ServerConfig(endpoint=endpoint, workers=1))
        try:
            first = client.submit(request_)
        finally:
            old.shutdown()
        # The client still holds its idle connection to the old server;
        # the next call finds it closed, reconnects once and reaches the
        # new server bound to the same path.
        new = InductionServer(ServerConfig(endpoint=endpoint, workers=1))
        try:
            second = client.submit(request_)
            assert new.stats()["requests"] == 1
        finally:
            client.close()
            new.shutdown()
        assert old.stats()["requests"] == 1
        assert second.cost == first.cost

    @pytest.mark.parametrize("scheme", ["unix", "tcp"])
    def test_idle_connection_to_a_stopped_server_fails_fast(
            self, tmp_path, request_, scheme):
        endpoint = f"unix://{tmp_path / 'svc.sock'}" if scheme == "unix" \
            else "tcp://127.0.0.1:0"
        server = InductionServer(ServerConfig(endpoint=endpoint, workers=1))
        client = ServiceClient(server.endpoint, timeout=5.0)
        client.submit(request_)
        server.shutdown()
        started = time.monotonic()
        with pytest.raises(ServiceError):
            client.submit(request_)
        assert time.monotonic() - started < 2.0
        assert not client.ping()

    def test_threads_sharing_a_client_get_their_own_replies(self, tmp_path):
        from repro import api

        regions = distinct_regions(16)
        expected = [api.induce(InductionRequest(region=r, budget=5_000))
                    for r in regions]
        server = InductionServer(ServerConfig(
            endpoint=f"unix://{tmp_path / 'svc.sock'}", workers=2,
            queue_size=32))
        results = [None] * len(regions)
        errors = []

        def go(i):
            try:
                for _ in range(3):
                    results[i] = client.submit(
                        InductionRequest(region=regions[i], budget=5_000))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the pool's check-outs
        try:
            with ServiceClient(server.endpoint, timeout=30.0) as client:
                threads = [threading.Thread(target=go, args=(i,))
                           for i in range(len(regions))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert not errors
                for result, want in zip(results, expected):
                    assert result.schedule == want.schedule
                    assert result.cost == want.cost
                # Connections beyond the pool's size closed after use.
                deadline = time.monotonic() + 5.0
                while server.stats()["open_connections"] > \
                        ServiceClient.POOL_SIZE and \
                        time.monotonic() < deadline:
                    time.sleep(0.01)
                assert server.stats()["open_connections"] <= \
                    ServiceClient.POOL_SIZE
        finally:
            sys.setswitchinterval(interval)
            server.shutdown()
