"""Blocking client for the induction service.

A :class:`ServiceClient` keeps its connections open between calls: a call
takes an idle connection from the client's small pool (or opens one) and
puts it back once the whole reply has arrived; any error closes it
instead.  A connection carries one call at a time, so one client object
is safe to share across threads (the benchmark's submit pool does exactly
that).  A *reused* connection that fails before any reply byte arrives —
the server closed it while it sat idle, or restarted — is retried once on
a fresh connection.  ``close()`` (or leaving a ``with`` block) closes the
idle connections; the client stays usable and reconnects on demand.
Servers close the connections they hold when they shut down.

Admission-control sheds surface as :class:`ServiceBusy` — a clear,
retryable signal distinct from :class:`ServiceError` (malformed request
or genuine server-side bug).  Degraded results are *not* errors: they
come back as ordinary results with ``degraded=True``, per the service's
graceful-degradation contract.
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Mapping

from repro.api import InductionRequest
from repro.core.result import ServiceResult, result_from_payload
from repro.obs import replay_events, span
from repro.service import protocol
from repro.service.endpoint import Endpoint

__all__ = ["ServiceBusy", "ServiceClient", "ServiceError",
           "absorb_reply_obs"]


def absorb_reply_obs(result_payload: Any, tracer) -> Any:
    """Pop a reply's ``obs`` payload and replay its spans into ``tracer``.

    Every traced reply — from a server directly or via the cluster router
    — carries its server-side span records under ``result["obs"]``.  The
    records are popped unconditionally (they are observability freight,
    not result fields) and replayed only when the caller actually has an
    enabled tracer to stitch them into.
    """
    if isinstance(result_payload, dict):
        obs = result_payload.pop("obs", None)
        if obs and tracer is not None and tracer.enabled:
            replay_events(obs.get("spans") or [], tracer)
    return result_payload


class ServiceError(RuntimeError):
    """The server rejected the request or the protocol broke."""


class ServiceBusy(ServiceError):
    """Admission control shed the request (queue full or shutting down)."""


class _StaleConnection(Exception):
    """A reused connection failed before any byte of the reply arrived."""


class ServiceClient:
    """Submit induction requests to a running ``repro serve`` daemon."""

    #: Idle connections kept per client.  Callers beyond this many at once
    #: still get a connection each; the extras close after their call.
    POOL_SIZE = 8

    def __init__(self, endpoint: Endpoint | str,
                 timeout: float | None = 600.0) -> None:
        self._idle: list[socket.socket] = []
        self._idle_lock = threading.Lock()
        #: Where the service lives.  An :class:`Endpoint` (or its URL string
        #: form); the pre-Endpoint bare address strings still work through a
        #: warn-once deprecation shim.
        self.endpoint = Endpoint.coerce(endpoint, where="ServiceClient(...)")
        self.timeout = timeout

    @property
    def address(self) -> str:
        """Legacy bare-string form of :attr:`endpoint` (back-compat)."""
        return self.endpoint.legacy

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Close the idle pooled connections (calls in flight keep theirs)."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for sock in idle:
            sock.close()

    # Callers written when every call closed its own connection drop
    # clients without closing them; their idle connections close here.
    __del__ = close

    def roundtrip(self, message: Mapping[str, Any]) -> dict[str, Any]:
        """Send one framed message and return the framed reply.

        Transport failures raise :class:`ServiceError`; the reply itself
        is returned whatever its status.
        """
        with self._idle_lock:
            sock = self._idle.pop() if self._idle else None
        try:
            if sock is not None:
                try:
                    reply = self._exchange(sock, message)
                except _StaleConnection:
                    sock.close()
                    sock = None
            if sock is None:
                sock = self.endpoint.connect(timeout=self.timeout)
                reply = self._exchange(sock, message)
        except _StaleConnection:
            sock.close()
            raise ServiceError(
                f"service at {self.endpoint} closed the connection") from None
        except (OSError, protocol.ProtocolError) as exc:
            if sock is not None:
                sock.close()
            raise ServiceError(
                f"service at {self.endpoint} unreachable: {exc}") from exc
        with self._idle_lock:
            if len(self._idle) < self.POOL_SIZE:
                self._idle.append(sock)
                return reply
        sock.close()
        return reply

    @staticmethod
    def _exchange(sock: socket.socket,
                  message: Mapping[str, Any]) -> dict[str, Any]:
        """One request/reply on ``sock``; :class:`_StaleConnection` when the
        peer was gone before the first reply byte (a timeout is not that:
        the server may still be working on the request)."""
        try:
            protocol.send_message(sock, message)
            first = sock.recv(1, socket.MSG_PEEK)
        except ConnectionError as exc:
            raise _StaleConnection() from exc
        if not first:
            raise _StaleConnection()
        reply = protocol.recv_message(sock)
        if reply is None:
            raise protocol.ProtocolError("connection closed mid-frame")
        return reply

    def submit(self, request: InductionRequest,
               chaos: Mapping[str, Any] | None = None) -> ServiceResult:
        """Run one request on the service; blocks until the reply.

        With ``request.tracer`` set, the roundtrip happens inside a
        ``client.submit`` span whose context rides the wire, and the span
        records the server ships back in the reply's ``obs`` payload are
        replayed into the tracer — one stitched trace from this caller
        through server (and, via a router, the whole cluster) to worker.

        ``chaos`` injects test faults (crash/sleep) and is honoured only by
        servers started with ``allow_chaos=True``.
        """
        tracer = request.tracer
        if tracer is not None and tracer.enabled:
            # The span makes a trace context current, so request_to_wire
            # attaches it and the server knows to ship spans back.
            with span("client.submit", tracer, endpoint=self.endpoint.label):
                reply = self.roundtrip(
                    protocol.request_to_wire(request, chaos=chaos))
        else:
            # No client tracer: no span of our own, but an ambient caller
            # span (if any) still propagates through request_to_wire.
            reply = self.roundtrip(
                protocol.request_to_wire(request, chaos=chaos))
        status = reply.get("status")
        if status == "busy":
            raise ServiceBusy(
                f"service busy: {reply.get('reason', 'unspecified')}")
        if status != "ok":
            raise ServiceError(reply.get("error", f"bad reply {reply!r}"))
        return result_from_payload(
            absorb_reply_obs(reply["result"], request.tracer))

    def stats(self) -> dict[str, Any]:
        reply = self.roundtrip({"op": "stats"})
        if reply.get("status") != "stats":
            raise ServiceError(f"bad stats reply {reply!r}")
        return reply["stats"]

    def metrics(self) -> str:
        """Prometheus text exposition from the server's ``metrics`` op."""
        reply = self.roundtrip({"op": "metrics"})
        if reply.get("status") != "metrics":
            raise ServiceError(f"bad metrics reply {reply!r}")
        return reply["metrics"]

    def flightrec(self, *, slow: bool = False, failed: bool = False,
                  last: int | None = None) -> dict[str, Any]:
        """Fetch captured request digests from the flight recorder.

        Works against a server or a cluster router (both serve the op with
        the same shape): ``{"considered": n, "captured": m, "buffered": k,
        "digests": [...]}``.
        """
        message: dict[str, Any] = {"op": "flightrec",
                                   "slow": slow, "failed": failed}
        if last is not None:
            message["last"] = int(last)
        reply = self.roundtrip(message)
        if reply.get("status") != "flightrec":
            raise ServiceError(f"bad flightrec reply {reply!r}")
        return reply["flightrec"]

    def slo(self) -> dict[str, Any]:
        """Fetch the SLO status (objectives, windows, burn rates)."""
        reply = self.roundtrip({"op": "slo"})
        if reply.get("status") != "slo":
            raise ServiceError(f"bad slo reply {reply!r}")
        return reply["slo"]

    def ping(self) -> bool:
        try:
            return self.roundtrip({"op": "ping"}).get("status") == "pong"
        except (ServiceError, socket.timeout):
            return False

    def drain(self) -> dict[str, Any]:
        """Ask the server to stop admitting new work but keep running.

        In-flight tickets finish normally; new submits are shed with
        ``busy`` (reason ``draining``).  Stats/metrics/ping stay live so a
        draining node remains observable until it is shut down.
        """
        reply = self.roundtrip({"op": "drain"})
        if reply.get("status") != "ok":
            raise ServiceError(f"drain failed: {reply!r}")
        return reply

    def cache_get(self, fingerprint: str) -> dict[str, Any] | None:
        """Fetch a cache entry payload from the server's *local* tier.

        The peer-cache read behind :class:`repro.cluster.RemoteScheduleCache`:
        returns :func:`repro.core.cache.entry_to_payload`'s form
        (``schedule``, ``stats``, ``serial_cost``, ``lockstep_cost``) on a
        hit, ``None`` on a miss.  Unreachable peers raise
        :class:`ServiceError`; the remote tier treats that as a miss.
        """
        reply = self.roundtrip({"op": "cache_get",
                                "fingerprint": fingerprint})
        if reply.get("status") != "cache":
            raise ServiceError(f"bad cache_get reply {reply!r}")
        if not reply.get("hit"):
            return None
        return {key: reply.get(key) for key in
                ("schedule", "stats", "serial_cost", "lockstep_cost")}

    def cache_put(self, fingerprint: str, schedule_payload: list,
                  stats_payload: Mapping[str, Any] | None = None,
                  serial_cost: float | None = None,
                  lockstep_cost: float | None = None) -> None:
        """Push a finished schedule and its baselines into the server's
        local cache tier."""
        reply = self.roundtrip({
            "op": "cache_put", "fingerprint": fingerprint,
            "schedule": list(schedule_payload),
            "stats": dict(stats_payload) if stats_payload else None,
            "serial_cost": serial_cost, "lockstep_cost": lockstep_cost,
        })
        if reply.get("status") != "ok":
            raise ServiceError(f"cache_put failed: {reply!r}")

    def shutdown(self, drain: bool = True) -> None:
        """Ask the server to stop; returns after the drain completes."""
        reply = self.roundtrip({"op": "shutdown", "drain": drain})
        if reply.get("status") != "ok":
            raise ServiceError(f"shutdown failed: {reply!r}")
