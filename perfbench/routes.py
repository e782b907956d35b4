"""The four routes a caller can take to ``repro.api.induce``.

Each route boots what it needs, answers ``submit(region, tracer)`` with
the program's result object, and stops everything it started in
``close``.  Sockets and scratch files live in ``RUN_DIR`` inside the
checkout.
"""

from __future__ import annotations

import os
import shutil
import tempfile

RUN_DIR = ".perfbench"
#: High enough that no request of the family ever reaches it (the slowest
#: take about 1.5 s), so the deadline route returns the same schedules as
#: the in-process one.
DEADLINE_S = 60.0
#: AF_UNIX socket paths are limited to about 108 bytes.
_MAX_SOCKET_PATH = 100


class Route:
    """Plain ``api.induce`` in this process, no cache."""

    #: Extra sends of each region per pass, after its first one.
    repeats = 1

    def __init__(self) -> None:
        from repro import api

        self.api = api

    def request(self, region, tracer):
        return self.api.InductionRequest(region, model="maspar",
                                         tracer=tracer)

    def submit(self, region, tracer=None):
        return self.api.induce(self.request(region, tracer))

    def close(self) -> None:
        pass


class DeadlineRoute(Route):
    """``api.induce`` with a deadline: one supervised worker per request."""

    def __init__(self) -> None:
        super().__init__()
        import repro.service.protocol  # noqa: F401 - imported lazily by api
        import repro.service.workers  # noqa: F401

    def request(self, region, tracer):
        return self.api.InductionRequest(region, model="maspar",
                                         deadline_s=DEADLINE_S, tracer=tracer)


class NodeRoute(Route):
    """One ``InductionServer`` (default config) with a schedule cache."""

    repeats = 4

    def __init__(self) -> None:
        super().__init__()
        os.makedirs(RUN_DIR, exist_ok=True)
        self.client = self.boot()
        if not self.client.ping():
            self.close()
            raise RuntimeError(f"{type(self).__name__} does not answer")

    def boot(self):
        """Start the service; returns a client for its front door."""
        from repro.core.cache import ScheduleCache
        from repro.service.client import ServiceClient
        from repro.service.endpoint import Endpoint
        from repro.service.server import InductionServer, ServerConfig

        self.server = InductionServer(
            ServerConfig(endpoint=Endpoint.unix(f"{RUN_DIR}/node.sock")),
            cache=ScheduleCache())
        return ServiceClient(self.server.endpoint)

    def submit(self, region, tracer=None):
        return self.api.induce(self.request(region, tracer),
                               client=self.client)

    def close(self) -> None:
        self.server.shutdown(drain=True)


class RouterRoute(NodeRoute):
    """A three-node ``LocalCluster`` (its defaults) via the router socket."""

    def boot(self):
        from repro.cluster.local import LocalCluster

        local_tmp = os.path.abspath(RUN_DIR)
        # The cluster puts its sockets in a fresh temporary directory; keep
        # it inside the checkout unless that would overflow a socket path.
        previous = tempfile.tempdir
        if len(local_tmp) + 40 <= _MAX_SOCKET_PATH:
            tempfile.tempdir = local_tmp
        try:
            self.cluster = LocalCluster(nodes=3)
        finally:
            tempfile.tempdir = previous
        return self.cluster.client()

    def close(self) -> None:
        self.cluster.shutdown()


ROUTES = {
    "inproc_cold": Route,
    "deadline_cold": DeadlineRoute,
    "node_repeat": NodeRoute,
    "router_repeat": RouterRoute,
}


def remove_run_dir() -> None:
    shutil.rmtree(RUN_DIR, ignore_errors=True)
