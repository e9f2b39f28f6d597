"""Asyncio transport front end for the Harmony server (10k connections).

The threaded TCP path (:meth:`HarmonyServer.serve_tcp`) spends one reader
thread per connection; at production connection counts that is the binding
ceiling long before the optimizer is.  :class:`AsyncHarmonyServer` replaces
the per-connection thread with a single event loop:

* **One event loop, one thread.**  ``serve()`` starts a dedicated loop
  thread; every socket is owned by that loop through an
  :class:`asyncio.Protocol` (:class:`HarmonyWireProtocol`).  The loop only
  ever frames bytes and schedules work — it never runs controller code.
* **Shared codec, byte-identical wire protocol.**  Framing is the same
  :class:`~repro.api.protocol.FrameDecoder` / ``encode_message`` pair the
  threaded path and :class:`~repro.api.transport.TcpTransport` use, so a
  client cannot tell the two servers apart and every fault/chaos/recovery
  suite runs unchanged against either (see the normative spec in
  ``docs/wire-protocol.md``).
* **Executor dispatch, batched.**  Decoded messages queue per connection
  and drain in arrival order; each drained batch crosses into a thread
  pool exactly once, so a burst of heartbeats costs one loop→thread hop
  instead of one per beat.  Controller-locked requests (the ``locked``
  rows of the message table) run on a separate *heavy* pool from
  heartbeats/status/metric traffic, mirroring the server's lock split: a
  slow optimization sweep can saturate the heavy pool without delaying
  another connection's heartbeat ACK (the event-loop-stall test pins this
  down).  Per-connection ordering is strict — one batch in flight at a
  time — exactly like the threaded reader.
* **Backpressure-aware writes.**  Each connection has a bounded write
  queue.  When a peer stops reading (or the loop is saturated) and the
  queue fills, sends fail with
  :class:`~repro.errors.ControllerBusyError` — the same retryable
  ``controller_busy`` refusal the admission pipeline uses — instead of
  buffering without bound.  Refused *replies* are dropped (the client
  retries); refused variable *pushes* are re-staged under the client's
  lease like any push to an unreachable client.  Error replies bypass the
  bound so the refusal itself can always leave the building.
* **Inbound backpressure.**  A connection whose queued inbound messages
  exceed ``max_inbox`` has its socket reading paused until the backlog
  drains — a client cannot wedge the loop by spraying frames faster than
  the executors drain them.

Everything behind the front end — sessions, locks, leases, the coalescing
scheduler, the journal — is the untouched :class:`HarmonyServer` machinery;
this module is purely the I/O layer.  Session handlers run on executor
threads under the same three-lock discipline as the threaded path.
"""

from __future__ import annotations

import asyncio
import collections
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from repro.api.protocol import (ERROR, LOCKED_TYPES, FrameDecoder,
                                encode_message)
from repro.api.server import HarmonyServer
from repro.metrics.histogram import COUNT_BOUNDS
from repro.api.transport import Transport
from repro.errors import (
    ControllerBusyError,
    HarmonyError,
    ProtocolError,
    TransportError,
)

__all__ = ["AsyncHarmonyServer", "AsyncioTransport", "HarmonyWireProtocol"]


class AsyncioTransport(Transport):
    """The server-side :class:`Transport` endpoint for one asyncio socket.

    ``send`` is thread-safe: session handlers (executor threads) and the
    flush path (any thread) encode the frame, reserve a slot in the
    bounded write queue, and hand the bytes to the loop with
    ``call_soon_threadsafe``.  The slot is released when the bytes
    actually reach the socket buffer; while asyncio's flow control has
    writing paused (the peer stopped reading), frames are held on the
    loop side and keep their slots — so the bound covers the whole
    userspace backlog, not just the thread-to-loop handoff.

    A full queue surfaces as :class:`~repro.errors.ControllerBusyError`
    (retryable, the wire's ``controller_busy``), except for ``error``
    replies, which always pass: the refusal must be deliverable even
    when nothing else is.
    """

    def __init__(self, front: "AsyncHarmonyServer",
                 asyncio_transport: asyncio.Transport):
        self._front = front
        self._loop = front.loop
        self._transport = asyncio_transport
        self._receiver: Callable[[dict[str, Any]], None] | None = None
        self._backlog: list[dict[str, Any]] = []
        self._closed = False
        #: Frames reserved but not yet written (guarded by ``_mutex``).
        self._queued_writes = 0
        self._mutex = threading.Lock()
        #: Loop-thread-only state: frames held while asyncio flow control
        #: has writing paused.
        self._paused = False
        self._held: collections.deque[bytes] = collections.deque()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def queued_writes(self) -> int:
        """Frames accepted but not yet on the socket (tests, telemetry)."""
        with self._mutex:
            return self._queued_writes

    def send(self, message: dict[str, Any]) -> None:
        if self._closed:
            raise TransportError("send on closed transport")
        data = encode_message(message)
        # Error replies (including the controller_busy refusal itself)
        # jump the bound: a connection under backpressure must still be
        # able to say *why* it is refusing.
        priority = message.get("type") == ERROR
        with self._mutex:
            if not priority and \
                    self._queued_writes >= self._front.max_write_queue:
                self._front.count("server.async.writes_refused")
                raise ControllerBusyError(
                    f"connection write queue is full "
                    f"({self._front.max_write_queue} frames pending); "
                    f"retry")
            self._queued_writes += 1
            depth = self._queued_writes
        self._front.write_depth_hist.observe(float(depth))
        try:
            self._loop.call_soon_threadsafe(self._write, data)
        except RuntimeError as exc:  # loop already closed (shutdown race)
            with self._mutex:
                self._queued_writes -= 1
            self._closed = True
            raise TransportError(f"event loop is gone: {exc}") from exc

    def _write(self, data: bytes) -> None:
        """Loop thread: write (or hold, while flow control is paused).

        Only an actually-closing socket drops the frame.  ``_closed``
        alone does not: it flips the moment ``close()`` is *requested*,
        possibly from another thread, while this callback may carry a
        frame that was accepted (and perhaps already acknowledged to a
        caller) before that request — loop callback ordering guarantees
        such frames run before ``_close_on_loop``, so honoring them
        preserves the accepted-implies-delivered contract of an orderly
        close.
        """
        if self._transport.is_closing():
            with self._mutex:
                self._queued_writes -= 1
            return
        if self._paused:
            self._held.append(data)  # keeps its queue slot until written
            return
        with self._mutex:
            self._queued_writes -= 1
        self._transport.write(data)

    def _pause_writing(self) -> None:
        self._paused = True

    def _resume_writing(self) -> None:
        self._paused = False
        while self._held and not self._paused:
            data = self._held.popleft()
            with self._mutex:
                self._queued_writes -= 1
            self._transport.write(data)

    def set_receiver(self,
                     receiver: Callable[[dict[str, Any]], None]) -> None:
        self._receiver = receiver
        backlog, self._backlog = self._backlog, []
        for message in backlog:
            receiver(message)

    def deliver(self, message: dict[str, Any]) -> None:
        """Run the receiver (executor thread; per-connection serialized)."""
        if self._receiver is None:
            self._backlog.append(message)
        else:
            self._receiver(message)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._loop.call_soon_threadsafe(self._close_on_loop)
        except RuntimeError:
            pass  # loop already gone; the socket dies with it

    def _close_on_loop(self) -> None:
        # An orderly goodbye: flush frames accepted before the close was
        # requested (asyncio's transport.close() then drains its own
        # buffer before FIN), so a crash-stop never swallows bytes the
        # server already took responsibility for.
        if not self._transport.is_closing():
            while self._held:
                with self._mutex:
                    self._queued_writes -= 1
                self._transport.write(self._held.popleft())
            self._transport.close()
        self._held.clear()

    def _mark_lost(self) -> None:
        """Loop thread: the peer vanished (connection_lost)."""
        self._closed = True
        self._held.clear()


class HarmonyWireProtocol(asyncio.Protocol):
    """Frames bytes for one connection and feeds the dispatch pipeline.

    ``data_received`` only decodes and enqueues; an at-most-one-in-flight
    drain task moves whole batches onto an executor, preserving arrival
    order per connection while different connections proceed in parallel.
    """

    def __init__(self, front: "AsyncHarmonyServer"):
        self.front = front
        self.decoder = FrameDecoder()
        self.harmony_transport: AsyncioTransport | None = None
        self.session = None
        self._inbox: collections.deque[dict[str, Any]] = collections.deque()
        self._dispatching = False
        self._reading_paused = False
        self._asyncio_transport: asyncio.Transport | None = None

    # -- asyncio.Protocol callbacks (loop thread) ---------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        # The same unconditional option TcpTransport sets: CPython's
        # selector transport happens to set it too, but the protocol
        # requires it (docs/wire-protocol.md §1), so it is pinned here.
        transport.get_extra_info("socket").setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._asyncio_transport = transport
        self.harmony_transport = AsyncioTransport(self.front, transport)
        self.front.track(self)
        # Adopting the transport creates the HarmonySession, which installs
        # its message handler as the transport receiver — the same
        # attach() every other transport goes through.
        self.session = self.front.server.attach(self.harmony_transport)
        self.front.count("server.async.connections")

    def connection_lost(self, exc: Exception | None) -> None:
        if self.harmony_transport is not None:
            self.harmony_transport._mark_lost()
        self.front.untrack(self)

    def pause_writing(self) -> None:
        if self.harmony_transport is not None:
            self.harmony_transport._pause_writing()

    def resume_writing(self) -> None:
        if self.harmony_transport is not None:
            self.harmony_transport._resume_writing()

    def data_received(self, data: bytes) -> None:
        try:
            messages = self.decoder.feed(data)
        except ProtocolError:
            # Malformed framing is unrecoverable mid-stream (the decoder
            # cannot resynchronize); drop the connection, exactly like
            # the threaded reader thread dying on the same input.
            self.front.count("server.async.framing_errors")
            self._asyncio_transport.close()
            return
        if not messages:
            return
        self._inbox.extend(messages)
        if len(self._inbox) > self.front.max_inbox \
                and not self._reading_paused:
            # Inbound backpressure: stop reading until the executors
            # catch up — the backlog is bounded by max_inbox plus one
            # recv buffer's worth of frames.
            self._reading_paused = True
            self._asyncio_transport.pause_reading()
        self._kick()

    # -- batched dispatch ----------------------------------------------------

    def _kick(self) -> None:
        if not self._dispatching:
            self._dispatching = True
            self.front.loop.create_task(self._drain())

    async def _drain(self) -> None:
        try:
            while self._inbox:
                batch = list(self._inbox)
                self._inbox.clear()
                if self._reading_paused:
                    self._reading_paused = False
                    self._asyncio_transport.resume_reading()
                # The whole batch crosses to a worker thread in one hop;
                # heartbeat floods amortize to one executor round trip.
                heavy = any(message.get("type") in LOCKED_TYPES
                            for message in batch)
                pool = self.front.heavy_pool if heavy \
                    else self.front.light_pool
                self.front.note_batch(len(batch))
                await self.front.loop.run_in_executor(
                    pool, self._run_batch, batch)
        finally:
            self._dispatching = False
            if self._inbox:
                self._kick()  # raced a late data_received

    def _run_batch(self, batch: list[dict[str, Any]]) -> None:
        """Executor thread: dispatch a batch in order.

        ``HarmonySession._on_message`` already converts protocol and
        controller failures into ``error`` replies; a ``HarmonyError``
        or ``OSError`` that still escapes (a reply path failing on a
        half-dead socket) closes the connection, the same outcome as an
        exception killing a threaded reader.  Anything else is a server
        bug: ``_on_message`` has already flight-recorded it
        (``note_server_error``), so close the line and let it unwind
        loudly instead of swallowing an ``AttributeError`` as if it
        were a transport failure.
        """
        transport = self.harmony_transport
        for message in batch:
            if transport.closed:
                return
            try:
                transport.deliver(message)
            except (HarmonyError, OSError):
                self.front.count("server.async.dispatch_errors")
                transport.close()
                return
            except Exception:
                self.front.count("server.async.dispatch_errors")
                transport.close()
                raise


class AsyncHarmonyServer:
    """An asyncio front end serving a :class:`HarmonyServer` over TCP.

    Composition, not inheritance: the wrapped server keeps every
    responsibility it has under the threaded front end (sessions, leases,
    pushes, roles, the scheduler); this object owns the event
    loop, the listening socket, and the executor pools.

    ::

        server = HarmonyServer(controller, lease_seconds=30.0)
        front = AsyncHarmonyServer(server)
        host, port = front.serve(port=0)
        ...
        front.stop()          # also stops the wrapped server

    ``max_write_queue`` bounds each connection's unsent frames (overflow
    is a retryable ``controller_busy``); ``max_inbox`` bounds queued
    inbound messages before the socket is paused; ``heavy_workers`` /
    ``light_workers`` size the two dispatch pools (controller-locked
    admissions vs everything else).
    """

    def __init__(self, server: HarmonyServer, *,
                 max_write_queue: int = 1024,
                 max_inbox: int = 1024,
                 heavy_workers: int = 4,
                 light_workers: int = 4,
                 loop_lag_period: float = 0.1):
        self.server = server
        self.max_write_queue = max_write_queue
        self.max_inbox = max_inbox
        #: How often the loop-lag ticker samples scheduling delay; 0
        #: disables the ticker entirely.
        self.loop_lag_period = loop_lag_period
        metrics = server.controller.metrics
        #: Always-on health distributions for the two loop-side backlogs
        #: a mean cannot show: how late the loop runs its timers, and how
        #: deep each connection's unsent-frame queue gets.
        self.loop_lag_hist = metrics.histogram(
            "server.async.loop_lag_seconds")
        self.write_depth_hist = metrics.histogram(
            "server.async.write_queue_depth", bounds=COUNT_BOUNDS)
        self.loop: asyncio.AbstractEventLoop | None = None
        self.heavy_pool = ThreadPoolExecutor(
            max_workers=heavy_workers,
            thread_name_prefix="harmony-aio-heavy")
        self.light_pool = ThreadPoolExecutor(
            max_workers=light_workers,
            thread_name_prefix="harmony-aio-light")
        self._thread: threading.Thread | None = None
        self._asyncio_server: asyncio.AbstractServer | None = None
        self._protocols: set[HarmonyWireProtocol] = set()
        self._lag_task: asyncio.Task | None = None
        self._stopped = False

    # -- telemetry ----------------------------------------------------------

    def count(self, name: str) -> None:
        controller = self.server.controller
        controller.metrics.increment(name, controller.now)

    def note_batch(self, size: int) -> None:
        """Record one dispatched batch and its size."""
        controller = self.server.controller
        controller.metrics.increment("server.async.batches",
                                     controller.now)
        controller.metrics.report("server.async.batch_messages",
                                  controller.now, float(size))

    # -- connection tracking (loop thread only) ------------------------------

    def track(self, protocol: HarmonyWireProtocol) -> None:
        self._protocols.add(protocol)

    def untrack(self, protocol: HarmonyWireProtocol) -> None:
        self._protocols.discard(protocol)

    @property
    def connection_count(self) -> int:
        return len(self._protocols)

    # -- lifecycle -----------------------------------------------------------

    def serve(self, host: str = "127.0.0.1", port: int = 0,
              ) -> tuple[str, int]:
        """Start the loop thread and listen; returns the bound address."""
        if self.loop is not None:
            raise ProtocolError("async server already serving")
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="harmony-aio-loop", daemon=True)
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(
            self._start(host, port), self.loop)
        return future.result(timeout=30.0)

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()
        # Orderly loop retirement: cancel stragglers, then close.
        pending = asyncio.all_tasks(self.loop)
        for task in pending:
            task.cancel()
        if pending:
            self.loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True))
        self.loop.close()

    async def _start(self, host: str, port: int) -> tuple[str, int]:
        self._asyncio_server = await self.loop.create_server(
            lambda: HarmonyWireProtocol(self), host, port)
        if self.loop_lag_period > 0:
            self._lag_task = self.loop.create_task(self._lag_ticker())
        sockname = self._asyncio_server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def _lag_ticker(self) -> None:
        """Sample how late the loop wakes from a fixed-period sleep.

        The excess over the requested period is scheduling delay — the
        single number that says "the event loop is saturated" before
        anything user-visible times out.  The sleep itself is the load:
        one timer per period, nothing else.
        """
        period = self.loop_lag_period
        while True:
            before = time.perf_counter()
            await asyncio.sleep(period)
            lag = time.perf_counter() - before - period
            self.loop_lag_hist.observe(max(0.0, lag))

    def stop(self) -> None:
        """Stop accepting, close connections, retire the loop, stop the
        wrapped server.  Idempotent."""
        if self._stopped:
            return
        self._stopped = True
        loop = self.loop
        if loop is not None and not loop.is_closed():
            try:
                asyncio.run_coroutine_threadsafe(
                    self._shutdown(), loop).result(timeout=10.0)
            except (TimeoutError, asyncio.CancelledError,
                    RuntimeError, OSError):
                # A wedged connection (timeout), a closing loop refusing
                # the coroutine (RuntimeError), a cancelled shutdown, or
                # a socket teardown error must not hang shutdown.  A
                # TypeError/AttributeError here is a bug — let it raise.
                pass
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None and self._thread.is_alive() \
                and self._thread is not threading.current_thread():
            self._thread.join(timeout=10.0)
        self._thread = None
        self.heavy_pool.shutdown(wait=True)
        self.light_pool.shutdown(wait=True)
        self.server.stop()

    async def _shutdown(self) -> None:
        if self._lag_task is not None:
            self._lag_task.cancel()
            self._lag_task = None
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()
            self._asyncio_server = None
        for protocol in list(self._protocols):
            if protocol.harmony_transport is not None:
                protocol.harmony_transport._mark_lost()
            if protocol._asyncio_transport is not None:
                protocol._asyncio_transport.abort()
        self._protocols.clear()
