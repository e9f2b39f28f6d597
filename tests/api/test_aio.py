"""Unit tests for the asyncio front end (:mod:`repro.api.aio`).

The parity suite (``tests/integration/test_server_parity.py``) proves the
asyncio server is indistinguishable from the threaded one scenario-by-
scenario; this file pins down the machinery itself — the bounded write
queue surfacing as ``controller_busy``, the error-reply bypass, push
re-staging, batched dispatch, framing-error handling, inbound
backpressure, and byte-identical replies.
"""

import socket
import struct
import threading
import time

import pytest

from repro.api import (
    AsyncHarmonyServer,
    FrameDecoder,
    HarmonyClient,
    HarmonyServer,
    RetryPolicy,
    TcpTransport,
    encode_message,
    make_message,
)
from repro.cluster import Cluster
from repro.controller import AdaptationController, ClientCountRulePolicy
from repro.errors import ControllerBusyError, ProtocolError

FAST = RetryPolicy(request_timeout_seconds=5.0, max_attempts=3,
                   backoff_initial_seconds=0.05)


def build_server(**server_kwargs):
    cluster = Cluster.star("server0", ["c1", "c2", "c3"], memory_mb=128)
    policy = ClientCountRulePolicy(
        app_name="DBclient", bundle_name="where", threshold=3,
        below_option="QS", at_or_above_option="DS")
    controller = AdaptationController(cluster, policy=policy)
    return controller, HarmonyServer(controller, **server_kwargs)


def wait_until(predicate, timeout=10.0, interval=0.01,
               message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


def read_frames(sock, count, timeout=10.0):
    """Read exactly ``count`` framed messages off a raw socket."""
    decoder = FrameDecoder()
    frames = []
    sock.settimeout(timeout)
    while len(frames) < count:
        data = sock.recv(65536)
        if not data:
            break
        frames.extend(decoder.feed(data))
    return frames


@pytest.fixture
def front():
    """A served AsyncHarmonyServer; tests may re-tune via ``front.make``."""
    made = []

    def make(**kwargs):
        server_kwargs = kwargs.pop("server_kwargs", {})
        controller, server = build_server(**server_kwargs)
        front = AsyncHarmonyServer(server, **kwargs)
        address = front.serve(port=0)
        made.append(front)
        return controller, front, address

    yield make
    for front in reversed(made):
        front.stop()


class LoopBlocker:
    """Deterministically wedge the event loop from the test thread."""

    def __init__(self, loop):
        self._entered = threading.Event()
        self._release = threading.Event()
        loop.call_soon_threadsafe(self._block)
        assert self._entered.wait(5.0), "loop never ran the blocker"

    def _block(self):
        self._entered.set()
        self._release.wait(10.0)

    def release(self):
        self._release.set()


class TestWriteBackpressure:
    def test_full_write_queue_refuses_with_controller_busy(self, front):
        controller, server_front, (host, port) = front(max_write_queue=2)
        client = HarmonyClient(TcpTransport.connect(host, port),
                               retry_policy=FAST)
        key = client.startup("DBclient")
        session = server_front.server._sessions_by_key[key]
        transport = session.transport

        blocker = LoopBlocker(server_front.loop)
        try:
            # The loop is wedged, so accepted frames cannot drain: the
            # bound is reached after max_write_queue sends.
            transport.send(make_message("variable_update", updates={}))
            transport.send(make_message("variable_update", updates={}))
            with pytest.raises(ControllerBusyError):
                transport.send(make_message("variable_update", updates={}))
            # Error replies jump the bound: the refusal itself must be
            # deliverable even when nothing else is.
            transport.send(make_message("error", code="controller_busy",
                                        message="queue full"))
            assert transport.queued_writes == 3
        finally:
            blocker.release()
        wait_until(lambda: transport.queued_writes == 0,
                   message="write queue drains after the stall")
        assert controller.metrics.latest(
            "server.async.writes_refused") == 1.0

    def test_refused_push_is_restaged_under_the_lease(self, front):
        controller, server_front, (host, port) = front(
            max_write_queue=1, server_kwargs={"lease_seconds": 60.0})
        client = HarmonyClient(TcpTransport.connect(host, port),
                               retry_policy=FAST)
        key = client.startup("DBclient")
        server = server_front.server
        session = server._sessions_by_key[key]

        blocker = LoopBlocker(server_front.loop)
        try:
            session.transport.send(
                make_message("variable_update", updates={}))  # fills it
            session.push_updates({"where.option": "DS"}, generation=7)
            # The push was refused by the full queue but NOT lost and
            # NOT a detach: it waits, staged, under the client's lease.
            assert server.buffer.pending_for(key) == \
                {"where.option": "DS"}
            assert key in server._sessions_by_key  # still bound
        finally:
            blocker.release()
        wait_until(lambda: session.transport.queued_writes == 0,
                   message="write queue drains")
        server.flush_pending_vars()
        assert server.buffer.pending_for(key) == {}

    def test_refused_reply_is_dropped_not_fatal(self, front):
        controller, server_front, (host, port) = front(max_write_queue=1)
        client = HarmonyClient(TcpTransport.connect(host, port),
                               retry_policy=FAST)
        key = client.startup("DBclient")
        session = server_front.server._sessions_by_key[key]

        blocker = LoopBlocker(server_front.loop)
        try:
            session.transport.send(
                make_message("variable_update", updates={}))  # fills it
            # Dispatch a request while the connection cannot accept the
            # answer: the reply is dropped (the client would retry), the
            # session survives.
            session._on_message(make_message("status"))
            assert controller.metrics.latest(
                "server.replies_dropped_backpressure") == 1.0
            assert key in server_front.server._sessions_by_key
        finally:
            blocker.release()
        # The session still answers once the stall clears.
        assert client.query_status()["server"]["active_sessions"] == 1


class TestBatchedDispatch:
    def test_a_frame_burst_crosses_the_executor_in_few_batches(self, front):
        controller, server_front, (host, port) = front()
        burst = 30
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(b"".join(encode_message(make_message("status"))
                                  for _ in range(burst)))
            replies = read_frames(sock, burst)
        assert len(replies) == burst
        assert all(r["type"] == "status_report" for r in replies)
        batches = controller.metrics.latest("server.async.batches")
        assert batches is not None and batches < burst  # amortized hops

    def test_inbound_backpressure_loses_nothing(self, front):
        _controller, _server_front, (host, port) = front(max_inbox=4)
        burst = 40
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(b"".join(encode_message(make_message("status"))
                                  for _ in range(burst)))
            replies = read_frames(sock, burst)
        # Reading was paused and resumed along the way; every request
        # still got its answer, in order.
        assert len(replies) == burst

    def test_malformed_framing_drops_the_connection(self, front):
        controller, _server_front, (host, port) = front()
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(struct.pack(">I", 64 * 1024 * 1024))  # > 16 MiB
            sock.settimeout(10.0)
            assert sock.recv(1) == b""  # server hung up
        wait_until(lambda: controller.metrics.latest(
            "server.async.framing_errors") == 1.0,
            message="framing error counted")


class TestWireParity:
    def test_replies_are_byte_identical_to_the_threaded_server(self):
        """Same request bytes in, same reply bytes out, either backend."""
        register = encode_message(make_message(
            "register", app_name="DBclient", use_interrupts=False))
        unknown = encode_message({"type": "no_such_rpc"})

        def exchange(host, port):
            with socket.create_connection((host, port),
                                          timeout=10.0) as sock:
                sock.sendall(register + unknown)
                sock.settimeout(10.0)
                raw = b""
                while len(FrameDecoder().feed(raw)) < 2:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    raw += chunk
                return raw

        _c1, threaded = build_server()
        host, port = threaded.serve_tcp(port=0)
        try:
            threaded_bytes = exchange(host, port)
        finally:
            threaded.stop()

        _c2, inner = build_server()
        front = AsyncHarmonyServer(inner)
        host, port = front.serve(port=0)
        try:
            async_bytes = exchange(host, port)
        finally:
            front.stop()

        assert threaded_bytes == async_bytes
        assert len(FrameDecoder().feed(threaded_bytes)) == 2


class TestLifecycle:
    def test_stop_is_idempotent(self, front):
        _controller, server_front, (host, port) = front()
        client = HarmonyClient(TcpTransport.connect(host, port),
                               retry_policy=FAST)
        client.startup("DBclient")
        server_front.stop()
        server_front.stop()  # second stop is a no-op

    def test_serve_twice_is_refused(self, front):
        _controller, server_front, _address = front()
        with pytest.raises(ProtocolError):
            server_front.serve(port=0)

    def test_connections_are_tracked(self, front):
        _controller, server_front, (host, port) = front()
        sock = socket.create_connection((host, port), timeout=10.0)
        wait_until(lambda: server_front.connection_count == 1,
                   message="connection tracked")
        sock.close()
        wait_until(lambda: server_front.connection_count == 0,
                   message="connection untracked")
