"""Shared fixtures for the Harmony reproduction test suite."""

from __future__ import annotations

import pytest

from repro.api import AsyncHarmonyServer, HarmonyServer, TcpTransport
from repro.cluster import Cluster, Kernel

#: The flight-event kinds of a session's transitions.
LIFECYCLE_KINDS = ("registered", "rejoined", "ended", "evicted")


def lifecycle_events(controller) -> list[dict]:
    """The session transitions in ``controller``'s flight recorder,
    oldest first."""
    return [event for event in controller.flight_recorder.events()
            if event["kind"] in LIFECYCLE_KINDS]


def spans_named(tracer, name: str) -> list:
    """``tracer``'s finished spans called ``name``, in completion order."""
    return [span for span in tracer.spans if span.name == name]


class ServerHandle:
    """One served :class:`HarmonyServer`, behind either TCP front end.

    The parity suites talk to the server only through this handle, so a
    test body cannot tell (and must not care) whether the bytes are
    handled by per-connection reader threads or by the asyncio loop.
    """

    def __init__(self, backend: str, server: HarmonyServer,
                 address: tuple[str, int],
                 front: AsyncHarmonyServer | None):
        self.backend = backend
        self.server = server
        self.address = address
        self.front = front
        self._stopped = False

    def connect(self, timeout: float = 10.0) -> TcpTransport:
        """A fresh client transport dialed to this server."""
        host, port = self.address
        return TcpTransport.connect(host, port, timeout=timeout)

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        if self.front is not None:
            self.front.stop()
        else:
            self.server.stop()


@pytest.fixture(params=["threaded", "asyncio"])
def server_factory(request):
    """Serve :class:`HarmonyServer` instances over both TCP front ends.

    The fixture is parameterized over the threaded accept loop
    (``serve_tcp``) and the asyncio front end
    (:class:`AsyncHarmonyServer`), so every test taking it runs twice —
    the wire protocol is byte-identical, and the chaos/lease/recovery
    suites prove it by never forking on the backend.  The factory may be
    called more than once per test (crash-recovery restarts a second
    server); every handle is stopped at teardown in reverse order.
    """
    handles: list[ServerHandle] = []

    def factory(server: HarmonyServer, **front_kwargs) -> ServerHandle:
        if request.param == "asyncio":
            front = AsyncHarmonyServer(server, **front_kwargs)
            host, port = front.serve(port=0)
            handle = ServerHandle("asyncio", server, (host, port), front)
        else:
            assert not front_kwargs, \
                "front-end tuning applies to the asyncio backend only"
            host, port = server.serve_tcp(port=0)
            handle = ServerHandle("threaded", server, (host, port), None)
        handles.append(handle)
        return handle

    factory.backend = request.param
    yield factory
    for handle in reversed(handles):
        handle.stop()


FIGURE3_RSL = """
harmonyBundle DBclient:1 where {
    {QS {node server {hostname harmony.cs.umd.edu} {seconds 42} {memory 20}}
        {node client {os linux} {seconds 1} {memory 2}}
        {link client server 2}}
    {DS {node server {hostname harmony.cs.umd.edu} {seconds 1} {memory 20}}
        {node client {os linux} {memory >=32} {seconds 9}}
        {link client server
            {44 + (client.memory > 24 ? 24 : client.memory) - 17}}}}
"""

FIGURE2A_RSL = """
harmonyBundle Simple run {
    {fixed
        {node worker {seconds 300} {memory 32} {replicate 4}}
        {communication 64}}}
"""

FIGURE2B_RSL = """
harmonyBundle Bag parallelism {
    {run
        {variable workerNodes {1 2 4 8}}
        {node worker {seconds {2400 / workerNodes}} {memory 32}
                     {replicate workerNodes}}
        {communication {0.5 * workerNodes * workerNodes}}
        {performance workerNodes {1 2400} {2 1212} {4 708} {8 888}}}}
"""


@pytest.fixture
def closing():
    """``closing(resource)`` returns ``resource`` and closes it at
    teardown, in reverse order: the journals, logs and standbys a test
    leaves open, which the garbage collector would otherwise close."""
    opened = []

    def close_later(resource):
        opened.append(resource)
        return resource

    yield close_later
    for resource in reversed(opened):
        resource.close()


@pytest.fixture
def figure3_rsl() -> str:
    return FIGURE3_RSL


@pytest.fixture
def figure2a_rsl() -> str:
    return FIGURE2A_RSL


@pytest.fixture
def figure2b_rsl() -> str:
    return FIGURE2B_RSL


@pytest.fixture
def kernel() -> Kernel:
    return Kernel()


@pytest.fixture
def small_cluster(kernel: Kernel) -> Cluster:
    """Four identical nodes behind a full mesh."""
    return Cluster.full_mesh(["n0", "n1", "n2", "n3"], memory_mb=128.0,
                             bandwidth_mbps=40.0, kernel=kernel)


@pytest.fixture
def star_cluster(kernel: Kernel) -> Cluster:
    """One server and three clients, star topology."""
    return Cluster.star("server0", ["c1", "c2", "c3"], memory_mb=128.0,
                        bandwidth_mbps=40.0, kernel=kernel)
