"""The Harmony server process (paper Section 5, Figure 6).

"The Harmony process is a server that listens on a well-known port and
waits for connections from application processes.  Inside Harmony is the
resource management and adaptation part of the system."

:class:`HarmonyServer` bridges transports to an
:class:`~repro.controller.controller.AdaptationController`: each connection
becomes a :class:`HarmonySession`; controller reconfiguration events are
staged into a :class:`~repro.api.variables.PendingVariableBuffer` and pushed
to the owning session by ``flush_pending_vars()`` (automatically after each
decision wave when ``auto_flush`` is on, the default).

Concurrency model (three locks, strictly ordered)
-------------------------------------------------

The server runs handler code on whatever thread delivered the message (a
TCP reader thread, an asyncio dispatch-pool worker for the
:class:`~repro.api.aio.AsyncHarmonyServer` front end, or the caller's
thread for in-process transports).  Instead of one global lock, state is
partitioned:

* ``controller_lock`` — serializes controller mutations (``register``,
  ``bundle_setup``, ``end``, lease evictions, recovery transitions).
  This is the expensive lock: optimization sweeps run under it.
* ``_flush_lock`` — serializes the pending-variable buffer (staging and
  flushing), so a flush never races a concurrent stage.
* ``sessions_lock`` — guards the session registry, leases, and push
  generations.  Heartbeats, status queries, and metric reports only ever
  take this (or no lock at all), so they never contend with an
  optimization sweep in flight.

Acquisition order is ``controller_lock`` → ``_flush_lock`` →
``sessions_lock``; never acquire an earlier lock while holding a later
one.  Replies are always sent with ``sessions_lock`` released.

Admission backpressure: ``max_pending_admissions`` bounds how many
``register``/``bundle_setup`` requests may queue on ``controller_lock``;
excess requests are refused immediately with
``error.code=controller_busy`` (retryable) instead of stacking threads.

Variable naming convention for pushed resource information:

* ``<bundle>.option``            — the chosen option name,
* ``<bundle>.<variable>``        — each RSL ``variable`` value,
* ``<bundle>.<node>.hostname``   — where each local node name landed.
"""

from __future__ import annotations

import contextlib
import socket
import threading
import time
from typing import Any, Callable, Iterator

from repro.api.protocol import (
    CLIENT_TYPES,
    CONTROLLER_BUSY,
    CONTROLLER_MOVED,
    CONTROLLER_RECOVERING,
    HEARTBEAT,
    HEARTBEAT_ACK,
    LEASE_EXPIRED,
    MUTATING_TYPES,
    REPL_ACK,
    REPL_HELLO,
    SHARD_LOOKUP,
    SHARD_MAP,
    SHARD_MOVED,
    STATUS,
    STATUS_REPORT,
    make_message,
    require_field,
)
from repro.api.transport import TcpTransport, Transport
from repro.api.variables import PendingVariableBuffer
from repro.controller.controller import (
    AdaptationController,
    ReconfigurationEvent,
)
from repro.controller.registry import AppInstance
from repro.errors import (
    ControllerBusyError,
    ControllerError,
    HarmonyError,
    ProtocolError,
    ReplicationError,
    TransportError,
)
from repro.obs.flightrec import (EVENT_BACKPRESSURE, EVENT_DEMOTION,
                                 EVENT_LEASE_EXPIRED, EVENT_PUSH,
                                 EVENT_RPC_IN, EVENT_RPC_OUT,
                                 EVENT_SERVER_ERROR)
from repro.obs.instrument import InstrumentedRLock
from repro.obs.trace import TraceContext

__all__ = ["HarmonyServer", "HarmonySession", "DEFAULT_PORT"]

#: The prototype's "well-known port" (any free port works; tests use 0).
DEFAULT_PORT = 52766

#: Requests that mutate controller state and therefore take
#: ``controller_lock``.  Everything else runs without it.
#: ``repl_hello`` is here for a different reason: a standby's catch-up
#: snapshot must not race a concurrent append, and appends run under
#: ``controller_lock``.
_CONTROLLER_LOCKED_TYPES = frozenset({"register", "bundle_setup", "end",
                                      REPL_HELLO})

#: The admission pipeline: the subset of controller-locked requests the
#: bounded pending queue applies to.  ``end`` is exempt — releasing
#: capacity must never be refused for lack of capacity.
_ADMISSION_TYPES = frozenset({"register", "bundle_setup"})


class HarmonySession:
    """Server-side state for one connected application."""

    def __init__(self, server: "HarmonyServer", transport: Transport):
        self.server = server
        self.transport = transport
        self.instance: AppInstance | None = None
        self.use_interrupts = False
        transport.set_receiver(self._on_message)

    @property
    def client_id(self) -> str:
        if self.instance is None:
            raise ProtocolError("session not registered")
        return self.instance.key

    @property
    def evicted(self) -> bool:
        """Whether this session's instance was removed behind its back."""
        return self.instance is not None and self.instance.ended

    def push_updates(self, updates: dict[str, Any],
                     generation: int = 0) -> None:
        if self.transport.closed:
            # The client is gone but its lease may still be running: keep
            # the batch staged so a rejoin within the lease receives it.
            self.server.mark_disconnected(self)
            self.server.stage_updates(self.client_id, updates, generation)
            return
        try:
            self.transport.send(make_message("variable_update",
                                             updates=updates))
        except TransportError:
            self.server.mark_disconnected(self)
            self.server.stage_updates(self.client_id, updates, generation)
        except ControllerBusyError:
            # Async-transport backpressure: the connection's bounded write
            # queue is full (a slow reader).  The session stays bound —
            # the batch is re-staged and delivered by a later flush, once
            # the client drains its socket.
            self.server.stage_updates(self.client_id, updates, generation)

    # -- message handling ---------------------------------------------------

    def _on_message(self, message: dict[str, Any]) -> None:
        msg_type = str(message.get("type"))
        server = self.server
        if server.failed:
            # Crash-only semantics: a fail-stopped server behaves like a
            # dead process — it never answers, it just drops the line.
            with contextlib.suppress(Exception):
                self.transport.close()
            return
        server.count_rpc(msg_type)
        recorder = server.recorder
        if recorder is not None:
            recorder.record(EVENT_RPC_IN, rpc=msg_type)
        tracer = server.controller.tracer
        ctx = None
        if tracer.enabled:
            # Continue a client-stamped trace.  Absent, malformed, or
            # unsampled trace_ctx parses to None — old clients and
            # garbage alike degrade to "no trace", never to an error.
            ctx = TraceContext.from_wire(message.get("trace_ctx"))
        try:
            if ctx is not None:
                with tracer.span_from_context("server.dispatch", ctx,
                                              rpc=msg_type):
                    self._locked_dispatch(msg_type, message)
            else:
                self._locked_dispatch(msg_type, message)
        except ControllerBusyError as exc:
            if recorder is not None:
                recorder.record(EVENT_BACKPRESSURE, rpc=msg_type,
                                message=str(exc))
            self._reply(make_message("error", code=CONTROLLER_BUSY,
                                     message=str(exc)))
        except HarmonyError as exc:
            self._reply(make_message("error", message=str(exc)))
        except Exception as exc:
            # Unhandled server error: capture the event timeline before
            # the exception unwinds whatever thread delivered us.
            server.note_server_error(exc, rpc=msg_type)
            if server.fail_stop_on_error:
                # Crash-only discipline (chaos suites): an unhandled
                # error kills the whole server, not just this
                # connection — otherwise an asyncio front end would
                # keep the listener alive as a half-dead zombie.  The
                # crash is fully handled here (recorded, server dead),
                # so nothing unwinds into the delivering thread.
                server.fail_stop()
                return
            raise

    def _locked_dispatch(self, msg_type: str,
                         message: dict[str, Any]) -> None:
        if msg_type in _CONTROLLER_LOCKED_TYPES:
            if msg_type in _ADMISSION_TYPES:
                with self.server.admission_slot():
                    with self.server.controller_lock:
                        self._dispatch(message)
            else:
                with self.server.controller_lock:
                    self._dispatch(message)
        else:
            self._dispatch(message)

    def _dispatch(self, message: dict[str, Any]) -> None:
        msg_type = message.get("type")
        if self.server.standby and msg_type in MUTATING_TYPES:
            # A standby serves reads (status, heartbeats) but refuses
            # every mutation with a redirect carrying its best guess at
            # the current primary — the fencing record's address.
            self._reply(self.server.moved_reply())
            return
        if self.server.recovering and msg_type in MUTATING_TYPES:
            # Degraded read-only mode while crash recovery replays the
            # durability log: queries and status still flow, anything
            # state-changing is refused with a typed, retryable error.
            self._reply(make_message(
                "error", code=CONTROLLER_RECOVERING,
                message="controller is recovering; mutations are "
                        "refused until recovery completes"))
            return
        if msg_type != SHARD_LOOKUP:
            # Federation redirect, checked *before* the eviction gate: a
            # handed-off session's instance was evicted here (it lives on
            # the target shard now), and the answer must be "go there",
            # never "your lease expired".  A fresh connection registering
            # with a moved resume_key gets the same redirect.
            moved_key = (self.instance.key if self.instance is not None
                         else message.get("resume_key"))
            target = self.server.moved_target(moved_key)
            if target is not None:
                self._reply(self.server.shard_moved_reply(target))
                return
        if self.evicted and msg_type != "register":
            # Anything an evicted client says (a heartbeat racing the
            # eviction, a late RPC) gets the same answer: your lease is
            # gone, rejoin.  `register` falls through for exactly that.
            self._reply(make_message(
                LEASE_EXPIRED,
                message=f"session {self.client_id} lease expired"))
            return
        if msg_type == "register":
            self._handle_register(message)
        elif msg_type == "bundle_setup":
            self._handle_bundle_setup(message)
        elif msg_type == "add_variable":
            self._handle_add_variable(message)
        elif msg_type == "wait_for_update":
            pass  # updates are pushed eagerly; nothing to do server-side
        elif msg_type == "report_metric":
            self._handle_report_metric(message)
        elif msg_type == "query_nodes":
            self._handle_query_nodes()
        elif msg_type == STATUS:
            self._handle_status(message)
        elif msg_type == HEARTBEAT:
            self._handle_heartbeat()
        elif msg_type == "end":
            self._handle_end()
        elif msg_type == REPL_HELLO:
            self._handle_repl_hello(message)
        elif msg_type == REPL_ACK:
            self._handle_repl_ack(message)
        elif msg_type == SHARD_LOOKUP:
            self._handle_shard_lookup(message)
        else:
            raise ProtocolError(f"unknown message type {msg_type!r}")
        if self.instance is not None and not self.instance.ended:
            # Renew the lease only after the message *dispatched
            # successfully*: a stream of malformed or rejected requests
            # must not keep a session alive forever, and an evicted
            # instance's dead key must never be re-armed.
            self.server.touch(self.instance.key)

    def _handle_register(self, message: dict[str, Any]) -> None:
        app_name = str(require_field(message, "app_name"))
        if self.instance is not None and not self.instance.ended:
            # A duplicated or replayed register on a live session is
            # answered idempotently rather than poisoning the session.
            if self.instance.app_name == app_name:
                self._reply(make_message(
                    "registered", instance_id=self.instance.instance_id,
                    key=self.instance.key, resumed=True))
                return
            raise ProtocolError("already registered")
        resume_key = message.get("resume_key")
        self.use_interrupts = bool(message.get("use_interrupts", False))
        self.instance = self.server.controller.register_app(
            app_name, resume_key=resume_key)
        resumed = self.instance.key == resume_key
        if resumed:
            controller = self.server.controller
            controller.metrics.increment("server.session_resumes",
                                         controller.now)
        self.server.bind_session(self)
        self._reply(make_message("registered",
                                 instance_id=self.instance.instance_id,
                                 key=self.instance.key,
                                 resumed=resumed))
        if resumed:
            # Deliver anything staged while the client was away.
            self.server.flush_pending_vars()

    def _handle_heartbeat(self) -> None:
        instance = self._require_instance()
        server = self.server
        # Renew before answering: the ack carries the *new* deadline.
        server.touch(instance.key)
        with server.sessions_lock:
            server.heartbeats_received += 1
            deadline = server._leases.get(instance.key)
        controller = server.controller
        controller.metrics.increment("server.heartbeats", controller.now)
        self._reply(make_message(HEARTBEAT_ACK, lease_expires_at=deadline))

    def _handle_status(self, message: dict[str, Any]) -> None:
        """Answer a telemetry query; registration is not required.

        A monitoring client may connect, send ``status``, and disconnect
        without ever registering an application.
        """
        prefix = message.get("prefix")
        max_traces = int(message.get("max_traces", 20))
        payload = self.server.status_payload(
            prefix=str(prefix) if prefix else None, max_traces=max_traces)
        self._reply(make_message(STATUS_REPORT, **payload))

    def _handle_bundle_setup(self, message: dict[str, Any]) -> None:
        instance = self._require_instance()
        rsl = str(require_field(message, "rsl"))
        state = self.server.controller.setup_bundle(instance, rsl)
        chosen = state.chosen
        if chosen is None:
            raise ProtocolError(
                f"bundle {state.bundle.bundle_name!r} registered but no "
                f"feasible configuration exists")
        self._reply(make_message(
            "bundle_ok",
            bundle_name=state.bundle.bundle_name,
            option=chosen.option_name,
            variables=dict(chosen.variable_assignment),
            placements=dict(chosen.assignment.placements)))

    def _handle_add_variable(self, message: dict[str, Any]) -> None:
        instance = self._require_instance()
        name = str(require_field(message, "name"))
        # Answer with the live value when the name maps onto a chosen
        # configuration (e.g. "<bundle>.option"), else echo the default.
        value = self.server.current_variable_value(instance, name)
        if value is None:
            value = message.get("default")
        self._reply(make_message("variable_added", name=name, value=value))

    def _handle_report_metric(self, message: dict[str, Any]) -> None:
        instance = self._require_instance()
        name = str(require_field(message, "name"))
        value = float(require_field(message, "value"))
        controller = self.server.controller
        controller.metrics.report(f"app.{instance.key}.{name}",
                                  controller.now, value)
        scheduler = controller.scheduler
        if scheduler is not None:
            # Metric reports never re-optimize inline (that would put an
            # optimization sweep on every telemetry packet); with a
            # scheduler attached they feed the coalesced batch instead.
            scheduler.request(f"metric:{instance.key}.{name}",
                              trace_ctx=controller.tracer.current_context())

    def _handle_query_nodes(self) -> None:
        """Answer with current resource availability.

        The reply carries both structured records and the equivalent
        ``harmonyNode`` RSL text, so an application can feed the answer
        straight back into bundle authoring.  ``memory_available_mb``
        reflects live reservations — this is the controller's own view of
        availability, not the raw machine size.
        """
        self._require_instance()
        from repro.rsl import unparse_advertisement

        cluster = self.server.controller.cluster
        nodes = []
        rsl_lines = []
        for node in cluster.nodes():
            nodes.append({
                "hostname": node.hostname,
                "speed": node.speed,
                "os": node.os,
                "memory_total_mb": node.memory.total_mb,
                "memory_available_mb": node.memory.available_mb,
                "cpu_active_jobs": node.cpu.active_jobs,
            })
            rsl_lines.append(unparse_advertisement(node.advertisement()))
        self._reply(make_message("node_list", nodes=nodes,
                                 rsl="\n".join(rsl_lines)))

    def _handle_end(self) -> None:
        instance = self._require_instance()
        self.server.controller.end_app(instance)
        self._reply(make_message("ended"))
        self.server.detach(self)

    def _handle_repl_hello(self, message: dict[str, Any]) -> None:
        """A standby subscribing to the WAL stream (under controller_lock).

        Runs with ``controller_lock`` held (see
        ``_CONTROLLER_LOCKED_TYPES``): the catch-up snapshot/tail the
        primary ships here cannot race a concurrent append, so the
        standby never observes a torn view of the log.
        """
        replication = self.server.replication
        if replication is None:
            raise ProtocolError(
                "replication is not enabled on this server")
        replication.handle_hello(self.transport, message)

    def _handle_repl_ack(self, message: dict[str, Any]) -> None:
        if self.server.replication is not None:
            self.server.replication.handle_ack(message)

    def _handle_shard_lookup(self, message: dict[str, Any]) -> None:
        """Answer "which shard owns this app?" (arbiter only).

        Registration is not required — a connecting client asks the
        arbiter before it knows its shard.  Servers without an attached
        shard router (every non-arbiter) refuse with a protocol error.
        """
        router = self.server.shard_router
        if router is None:
            raise ProtocolError(
                "this server is not a federation arbiter")
        payload = router.lookup(
            app_name=message.get("app_name"),
            resume_key=message.get("resume_key"))
        self._reply(make_message(SHARD_MAP, **payload))

    def _require_instance(self) -> AppInstance:
        if self.instance is None:
            raise ProtocolError("register first")
        return self.instance

    def _reply(self, message: dict[str, Any]) -> None:
        term = self.server.controller.term
        if term > 0 and "term" not in message:
            # Once elected into a term, stamp it on every reply so
            # clients can spot (and report) a deposed, stale primary.
            message["term"] = term
        recorder = self.server.recorder
        if recorder is not None:
            recorder.record(EVENT_RPC_OUT, rpc=str(message.get("type")))
        try:
            self.transport.send(message)
        except TransportError:
            self.server.detach(self)
        except ControllerBusyError:
            # Backpressured write queue (async transport): drop the reply
            # rather than tear the session down — the client's request
            # times out and its retry policy takes over.  Error replies
            # bypass the bound, so a refusal is never itself refused.
            controller = self.server.controller
            controller.metrics.increment(
                "server.replies_dropped_backpressure", controller.now)
            if recorder is not None:
                recorder.record(EVENT_BACKPRESSURE,
                                rpc=str(message.get("type")),
                                message="reply dropped: write queue full")


class HarmonyServer:
    """Accepts application connections and wires them to the controller.

    ``lease_seconds`` (optional) arms session leases: every message from a
    registered client renews its lease; :meth:`check_leases` evicts
    applications whose lease lapsed — their placements are removed
    through the controller's transactional view and the survivors are
    re-optimized, so a crashed client degrades the system gracefully
    instead of stranding its allocation.  ``clock`` defaults to
    ``time.monotonic``; simulated deployments inject their own (or pass
    ``now=`` to :meth:`check_leases`) to stay deterministic.

    ``max_pending_admissions`` (optional) bounds the admission pipeline:
    at most that many ``register``/``bundle_setup`` requests may hold or
    wait on ``controller_lock`` at once; excess requests are refused with
    a retryable ``controller_busy`` error.  ``None`` (the default) leaves
    admissions unbounded.

    See the module docstring for the lock layout and ordering rules.
    """

    def __init__(self, controller: AdaptationController,
                 auto_flush: bool = True,
                 lease_seconds: float | None = None,
                 clock: Callable[[], float] | None = None,
                 recovering: bool = False,
                 max_pending_admissions: int | None = None,
                 flight_dump_path: str | None = None,
                 standby: bool = False,
                 fail_stop_on_error: bool = False,
                 pending_vars_cap: int | None = None,
                 failover_targets: list[str] | None = None):
        self.controller = controller
        self.auto_flush = auto_flush
        self.lease_seconds = lease_seconds
        self.clock: Callable[[], float] = clock or time.monotonic
        #: Degraded read-only mode (crash recovery in flight): mutating
        #: requests get ``error.code=controller_recovering`` until
        #: :meth:`complete_recovery`.
        self.recovering = recovering
        #: Standby role: reads are served, mutations are refused with a
        #: ``controller_moved`` redirect.  Flipped by :meth:`set_primary`
        #: (promotion) and :meth:`demote`.
        self.standby = standby
        #: Crash-only failure discipline for chaos suites: an unhandled
        #: dispatch error fail-stops the whole server (listener closed,
        #: every connection dropped) instead of killing one connection.
        self.fail_stop_on_error = fail_stop_on_error
        #: Set by :meth:`fail_stop`; a failed server drops everything.
        self.failed = False
        #: The WAL-shipping side (``None`` until
        #: :meth:`enable_replication`).
        self.replication = None
        #: The shared fencing record this server's term lives in
        #: (``None`` when replication runs unfenced).
        self.fencing = None
        self._fencing_holder: str | None = None
        self._fencing_lease_seconds = 30.0
        #: Where clients should look for the primary (advertised in
        #: ``controller_moved`` redirects when no fencing record is
        #: available to consult).
        self.failover_targets = list(failover_targets or [])
        #: Where to dump the flight recorder on an unhandled server
        #: error (``None`` records the event but writes nothing).
        self.flight_dump_path = flight_dump_path
        self.buffer = PendingVariableBuffer(
            max_per_client=pending_vars_cap,
            on_evict=self._on_pending_evicted)
        # The three pipeline locks publish always-on wait/hold
        # histograms (lock.<name>.{wait,hold}_seconds): contention is
        # the invisible cost of an admission burst, and a gauge or
        # counter cannot show its tail.
        #: Serializes controller mutations (the expensive lock).
        self.controller_lock = InstrumentedRLock("controller",
                                                 controller.metrics)
        #: Guards the session registry, leases, and push generations.
        self.sessions_lock = InstrumentedRLock("sessions",
                                               controller.metrics)
        #: Serializes pending-variable staging and flushing.
        self._flush_lock = InstrumentedRLock("flush", controller.metrics)
        self.max_pending_admissions = max_pending_admissions
        self._admission_gate = threading.Lock()
        self._pending_admissions = 0
        self.heartbeats_received = 0
        self.scheduler = None
        #: Federation: the arbiter's shard directory (answers
        #: ``shard_lookup``); ``None`` on every non-arbiter server.
        self.shard_router = None
        #: Sessions handed off to a sibling shard: key -> ``host:port``.
        #: Any message for a moved key answers with ``shard_moved``.
        self._moved_sessions: dict[str, str] = {}
        self._sessions_by_key: dict[str, HarmonySession] = {}
        self._leases: dict[str, float] = {}
        #: Highest push generation delivered per client — stale batches
        #: (older than what the client already holds) are dropped.
        self._push_generations: dict[str, int] = {}
        self._push_seq = 0
        self._listener_socket: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._accept_retry_seconds = 0.05
        self._lease_thread: threading.Thread | None = None
        self._lease_stop: threading.Event | None = None
        self._stopping = False
        controller.add_listener(self._on_reconfiguration)

    # -- telemetry ----------------------------------------------------------

    @property
    def recorder(self):
        """The controller's flight recorder (``None`` when disabled)."""
        return getattr(self.controller, "flight_recorder", None)

    def note_server_error(self, exc: BaseException, **fields: Any) -> None:
        """Record an unhandled error; dump the flight ring if configured.

        The dump is best-effort — a failing disk must not mask the
        original exception unwinding through the caller.
        """
        controller = self.controller
        controller.metrics.increment("server.unhandled_errors",
                                     controller.now)
        recorder = self.recorder
        if recorder is None:
            return
        recorder.record(EVENT_SERVER_ERROR, error=type(exc).__name__,
                        message=str(exc), **fields)
        if self.flight_dump_path is not None:
            try:
                recorder.dump(self.flight_dump_path)
            except OSError:
                pass

    def _on_pending_evicted(self, client_id: str, dropped: int) -> None:
        """A bounded pending-variable buffer evicted stale batches."""
        controller = self.controller
        controller.metrics.increment("server.pending_vars_dropped",
                                     controller.now, amount=float(dropped))

    def count_rpc(self, msg_type: str) -> None:
        """Count one received RPC as ``server.rpc.<type>`` (cumulative).

        Unknown type tags share one ``server.rpc.unknown`` bucket: metric
        cardinality is bounded by the protocol vocabulary, so a client
        spraying garbage tags cannot mint unbounded series.
        """
        bucket = msg_type if msg_type in CLIENT_TYPES else "unknown"
        controller = self.controller
        controller.metrics.increment(f"server.rpc.{bucket}",
                                     controller.now)

    def status_payload(self, prefix: str | None = None,
                       max_traces: int = 20) -> dict[str, Any]:
        """The ``status_report`` body: metrics, traces, work counters.

        ``prefix`` filters the metric snapshot by dotted prefix;
        ``max_traces`` caps the decision traces (most recent first is the
        log's tail, returned oldest-first).  Everything is strict-JSON
        serializable, so it travels over the wire protocol unchanged.
        """
        from repro.obs.export import json_snapshot

        controller = self.controller
        snapshot = json_snapshot(controller.metrics, prefix=prefix)
        with self.sessions_lock:
            heartbeats = self.heartbeats_received
            active = len(self._sessions_by_key)
        return {
            "metrics": snapshot["metrics"],
            "histograms": snapshot["histograms"],
            "decision_traces": [trace.to_dict() for trace in
                                controller.trace_log.latest(max_traces)],
            "optimizer": controller.stats.snapshot(),
            "server": {
                "heartbeats_received": heartbeats,
                "active_sessions": active,
                "lease_seconds": self.lease_seconds,
                "recovering": self.recovering,
            },
            "replication": self.replication_status(),
        }

    # -- admission backpressure ----------------------------------------------

    @contextlib.contextmanager
    def admission_slot(self) -> Iterator[None]:
        """Hold one slot in the bounded admission pipeline.

        Raises :class:`~repro.errors.ControllerBusyError` immediately
        when every slot is taken — the caller never blocks on a full
        queue, it gets a retryable refusal.
        """
        if self.max_pending_admissions is None:
            yield
            return
        with self._admission_gate:
            if self._pending_admissions >= self.max_pending_admissions:
                controller = self.controller
                controller.metrics.increment("server.admissions_rejected",
                                             controller.now)
                raise ControllerBusyError(
                    f"admission queue is full "
                    f"({self.max_pending_admissions} pending); retry")
            self._pending_admissions += 1
        try:
            yield
        finally:
            with self._admission_gate:
                self._pending_admissions -= 1

    # -- recovery mode -------------------------------------------------------

    def begin_recovery(self) -> None:
        """Enter the degraded read-only mode (mutations refused)."""
        with self.controller_lock:
            self.recovering = True

    def complete_recovery(self) -> None:
        """Recovery finished: accept mutations (and rejoins) again."""
        with self.controller_lock:
            self.recovering = False

    # -- replication & failover ----------------------------------------------

    def enable_replication(self, fencing=None, lease_seconds: float = 30.0,
                           address: str | None = None,
                           ship_timeout: float | None = 5.0) -> str:
        """Become a replicating primary; returns the role taken.

        With a :class:`~repro.persistence.replication.FencingStore`, the
        server first tries to acquire the fencing lease (bumping the
        term).  If another holder's lease is live — a newer primary was
        elected while this one was down — the server *demotes itself to
        standby* instead of split-braining, and returns ``"standby"``.
        On success the new term is journaled (durable before anything is
        served under it), stamped on every reply from here on, and a
        :class:`~repro.persistence.replication.ReplicationPrimary` is
        installed to ship WAL records to subscribing standbys.

        Without fencing the term is simply ``controller.term + 1`` —
        single-machine tests and demos that want replication without a
        shared fencing file.  ``ship_timeout`` bounds how long shipping
        to one standby may block the appending thread; a link that
        stalls past it is dropped (the standby re-hellos on reconnect).
        """
        from repro.persistence.replication import ReplicationPrimary

        controller = self.controller
        journal = controller.journal
        if journal is None:
            raise ControllerError(
                "enable_replication requires an attached durability "
                "journal (the WAL is the replication stream)")
        holder = address or f"server-{id(self):x}"
        with self.controller_lock:
            self.fencing = fencing
            self._fencing_holder = holder
            self._fencing_lease_seconds = lease_seconds
            if fencing is not None:
                try:
                    term = fencing.acquire(holder,
                                           lease_seconds=lease_seconds,
                                           address=address)
                except ReplicationError:
                    # Fenced out: a live, higher-term primary exists.
                    self.demote()
                    return "standby"
            else:
                term = controller.term + 1
            journal.record_term(term, holder)
            controller.note_term(term)
            self.replication = ReplicationPrimary(
                journal, controller,
                ship_timeout=ship_timeout).install()
            self.standby = False
            self.failed = False
        return "primary"

    def renew_fencing(self, now: float | None = None) -> bool:
        """Renew the primary lease; demote when the term moved on.

        Returns ``True`` while this server is (still) the fenced
        primary.  A deposed primary — one whose fencing record now
        carries a higher term, or whose renew is refused — demotes to
        standby here instead of continuing to serve a dead term.
        """
        if self.standby:
            return False
        if self.fencing is None:
            return True
        record = self.fencing.read()
        if record.term > self.controller.term:
            self.demote(observed_term=record.term)
            return False
        try:
            self.fencing.renew(self._fencing_holder,
                               self.controller.term, now=now)
        except ReplicationError:
            self.demote(observed_term=self.fencing.read().term)
            return False
        return True

    def demote(self, observed_term: int | None = None) -> None:
        """Step down to standby: mutations now answer with redirects."""
        with self.controller_lock:
            if self.standby:
                return
            self.standby = True
            self.replication = None
        controller = self.controller
        controller.metrics.increment("server.demotions", controller.now)
        recorder = self.recorder
        if recorder is not None:
            recorder.record(EVENT_DEMOTION, term=controller.term,
                            observed_term=observed_term)

    def set_primary(self) -> None:
        """Flip a standby server to primary (after a replica promoted).

        The caller is responsible for having won the term first —
        typically via
        :meth:`~repro.persistence.replication.ReplicationStandby.promote`,
        which acquires the fencing lease, journals the term, and hands
        back a live controller; :meth:`adopt_controller` wires it in.
        """
        with self.controller_lock:
            self.standby = False

    def adopt_controller(self, controller: AdaptationController) -> None:
        """Swap in a replica's rebuilt controller (standby servers).

        A standby server is constructed before its replica has finished
        catching up; once the replica (re)builds its controller — and
        again at promotion — the server adopts it so status queries and,
        post-promotion, mutations run against the replicated state.
        """
        with self.controller_lock:
            if controller is self.controller:
                return
            self.controller = controller
            controller.add_listener(self._on_reconfiguration)

    def moved_reply(self) -> dict[str, Any]:
        """The ``controller_moved`` redirect a standby answers with."""
        leader = self.leader_hint()
        message = "this server is a standby, not the primary controller"
        if leader:
            message += f"; try {leader}"
        fields: dict[str, Any] = {"message": message,
                                  "term": self.controller.term}
        if leader:
            fields["leader"] = leader
        return make_message(CONTROLLER_MOVED, **fields)

    def leader_hint(self) -> str | None:
        """Best guess at the current primary's address, if any.

        The fencing record is authoritative (whoever holds the lease is
        the primary); without one, the first configured failover target
        is offered.
        """
        if self.fencing is not None:
            record = self.fencing.read()
            if record.address and record.holder != self._fencing_holder:
                return str(record.address)
        if self.failover_targets:
            return self.failover_targets[0]
        return None

    def fail_stop(self) -> None:
        """Simulate crash-only failure: stop answering, drop every line.

        Closes the listener and every bound session transport and marks
        the server failed so racing reader threads drop their messages.
        Unlike :meth:`stop` this never joins threads (it may be running
        *on* a reader thread) and never drains the scheduler — a crash
        doesn't say goodbye.
        """
        self.failed = True
        self._stopping = True
        listener = self._listener_socket
        self._listener_socket = None
        if listener is not None:
            with contextlib.suppress(OSError):
                listener.close()
        with self.sessions_lock:
            sessions = list(self._sessions_by_key.values())
        for session in sessions:
            with contextlib.suppress(Exception):
                session.transport.close()
        # Replication links are not registered sessions (a standby never
        # sends ``register``), so the loop above misses them — and a
        # standby is purely reactive, so without an explicit close here
        # it would sit on the silent socket forever, never learning the
        # primary died.  Closed strictly *after* the client lines: a
        # mutation racing this teardown may fail its ship once a link is
        # gone, and its success reply must then be undeliverable too —
        # otherwise a client would hold an ack for a record no surviving
        # replica has.
        if self.replication is not None:
            for link in self.replication.link_transports():
                with contextlib.suppress(Exception):
                    link.close()

    def replication_status(self) -> dict[str, Any]:
        """This server's view of the replicated cluster (for ``status``)."""
        controller = self.controller
        journal = controller.journal
        last_seq = journal.wal.last_seq if journal is not None else 0
        standbys = (self.replication.status()
                    if self.replication is not None else [])
        return {
            "role": "standby" if self.standby else "primary",
            "term": controller.term,
            "last_seq": last_seq,
            "standbys": standbys,
        }

    # -- federation: cross-shard session handoff ------------------------------

    def moved_target(self, key: str | None) -> str | None:
        """Where a handed-off session lives now (``None``: not moved)."""
        if key is None or not self._moved_sessions:
            return None
        with self.sessions_lock:
            return self._moved_sessions.get(key)

    def mark_session_moved(self, key: str, target: str) -> None:
        """Record that ``key`` was handed to the shard at ``target``."""
        with self.sessions_lock:
            self._moved_sessions[key] = target

    def clear_session_moved(self, key: str) -> None:
        """Forget a handoff tombstone (the session moved back here)."""
        with self.sessions_lock:
            self._moved_sessions.pop(key, None)

    def shard_moved_reply(self, target: str) -> dict[str, Any]:
        """The ``shard_moved`` redirect for a handed-off session."""
        return make_message(
            SHARD_MOVED,
            message=f"session was handed off; reconnect to {target}",
            term=self.controller.term, leader=target)

    def begin_handoff(self, key: str, target: str) -> dict[str, Any] | None:
        """Atomically export and evict one session for a sibling shard.

        Runs entirely under ``controller_lock``: the session's staged
        variable batches, decision traces, and push-generation watermark
        are captured, the application is evicted (allocations released,
        survivors re-optimized, ``release`` journaled), and the key is
        tombstoned so every later message — including a fresh ``register``
        carrying the moved ``resume_key`` — answers ``shard_moved`` with
        the target's address.  Returns the handoff descriptor for
        :meth:`adopt_handoff` on the target, or ``None`` when the key is
        unknown or already ended.  The descriptor holds live objects
        (in-process federation); it is not a wire message.
        """
        from repro.rsl import unparse_bundle

        with self.controller_lock:
            try:
                instance = self.controller.registry.instance(key)
            except ControllerError:
                return None
            if instance.ended:
                return None
            bundles = []
            for state in instance.bundles.values():
                chosen = state.chosen
                bundles.append({
                    "bundle_name": state.bundle.bundle_name,
                    "rsl": unparse_bundle(state.bundle),
                    "chosen_option": (chosen.option_name
                                      if chosen is not None else None),
                })
            with self._flush_lock:
                pending = dict(self.buffer.pending_for(key))
                staged_generation = self.buffer.generation_for(key)
            with self.sessions_lock:
                delivered = self._push_generations.get(key, 0)
            descriptor = {
                "key": key,
                "app_name": instance.app_name,
                "instance_id": instance.instance_id,
                "bundles": bundles,
                "pending": pending,
                "push_generation": max(staged_generation, delivered),
                "traces": list(self.controller.trace_log.for_app(key)),
            }
            self.controller.evict_app(instance,
                                      reason=f"handoff to {target}")
            with self._flush_lock:
                with self.sessions_lock:
                    self._sessions_by_key.pop(key, None)
                    self._leases.pop(key, None)
                    self._push_generations.pop(key, None)
                    self._moved_sessions[key] = target
                self.buffer.discard(key)
            return descriptor

    def adopt_handoff(self, descriptor: dict[str, Any]) -> AppInstance:
        """Re-admit a session exported by a sibling's :meth:`begin_handoff`.

        The instance is adopted under its original key (so the client's
        ``resume_key`` rejoin matches), its staged variable batches are
        re-staged for delivery on rejoin, its decision traces are
        imported for continuity, and this server's push sequence is
        advanced past the origin shard's watermark — otherwise this
        shard's next reconfiguration push would stamp a *lower*
        generation than the carried batch and be dropped as stale.
        """
        key = str(descriptor["key"])
        with self.controller_lock:
            self.clear_session_moved(key)
            instance = self.controller.adopt_app(
                str(descriptor["app_name"]),
                int(descriptor["instance_id"]))
            for trace in descriptor.get("traces", ()):
                self.controller.trace_log.record(trace)
            generation = int(descriptor.get("push_generation", 0))
            pending = descriptor.get("pending") or {}
            with self._flush_lock:
                self._push_seq = max(self._push_seq, generation)
                if pending:
                    self.buffer.stage_many(key, dict(pending),
                                           generation=generation)
        self.touch(key)
        return instance

    # -- the coalescing scheduler --------------------------------------------

    def start_scheduler(self, coalesce_window: float = 0.05,
                        max_delay: float = 0.5,
                        clock: Callable[[], float] | None = None):
        """Attach and start a coalescing reevaluation scheduler.

        The scheduler runs its batches under ``controller_lock``, so a
        coalesced sweep serializes with admissions exactly like an inline
        sweep would — but register/end/metric triggers return immediately
        and merge into one batch per quiescence window.  Returns the
        scheduler; :meth:`stop` drains and stops it.
        """
        from repro.controller.scheduler import CoalescingScheduler

        if self.scheduler is not None:
            raise ProtocolError("scheduler already attached")
        self.scheduler = CoalescingScheduler(
            self.controller, coalesce_window=coalesce_window,
            max_delay=max_delay, clock=clock, lock=self.controller_lock)
        self.scheduler.start()
        return self.scheduler

    # -- attaching clients ---------------------------------------------------

    def attach(self, transport: Transport) -> HarmonySession:
        """Adopt one server-side transport endpoint as a session."""
        return HarmonySession(self, transport)

    def bind_session(self, session: HarmonySession) -> None:
        with self.sessions_lock:
            self._sessions_by_key[session.client_id] = session
        self.touch(session.client_id)

    def detach(self, session: HarmonySession) -> None:
        """Drop a session's registry entry, lease, and staged batch.

        Guarded by identity: a *stale* session (the client reconnected
        and a newer session owns the key) detaching — say, its dead
        transport failing a late reply — must not tear down the live
        session's lease or staged updates.
        """
        instance = session.instance
        if instance is None:
            return
        key = instance.key
        with self._flush_lock:
            with self.sessions_lock:
                if self._sessions_by_key.get(key) is not session:
                    return
                self._sessions_by_key.pop(key, None)
                self._leases.pop(key, None)
                self._push_generations.pop(key, None)
            self.buffer.discard(key)

    def mark_disconnected(self, session: HarmonySession) -> None:
        """A session's transport died, but its lease keeps running.

        The registration, allocations, and any staged variable updates
        survive until the lease expires (eviction) or the client rejoins
        with its resume key (rebind + replay).
        """
        if session.instance is None:
            return
        with self.sessions_lock:
            if self._sessions_by_key.get(session.instance.key) is session:
                self._sessions_by_key.pop(session.instance.key, None)

    # -- session leases -------------------------------------------------------

    def touch(self, key: str) -> None:
        """Renew one application's lease (any received message counts)."""
        if self.lease_seconds is not None:
            with self.sessions_lock:
                self._leases[key] = self.clock() + self.lease_seconds

    def lease_deadline(self, key: str) -> float | None:
        with self.sessions_lock:
            return self._leases.get(key)

    def check_leases(self, now: float | None = None) -> list[str]:
        """Evict every application whose lease has expired.

        Returns the evicted keys.  For each: the controller removes the
        placement and re-optimizes the survivors (emitting a structured
        lifecycle event), staged updates are discarded, and — if the dead
        transport still accepts writes — a ``lease_expired`` notice is
        sent so a half-alive client learns its fate immediately.
        """
        if self.lease_seconds is None:
            return []
        if now is None:
            now = self.clock()
        evicted: list[str] = []
        notify: list[HarmonySession] = []
        with self.controller_lock:
            with self.sessions_lock:
                expired = [key for key, deadline in self._leases.items()
                           if deadline <= now]
            for key in expired:
                with self.sessions_lock:
                    self._leases.pop(key, None)
                    session = self._sessions_by_key.pop(key, None)
                    self._push_generations.pop(key, None)
                with self._flush_lock:
                    self.buffer.discard(key)
                try:
                    instance = self.controller.registry.instance(key)
                except ControllerError:
                    instance = None
                if instance is not None and not instance.ended:
                    if self.controller.journal is not None:
                        # Audit record: the state change itself is the
                        # eviction's ``release`` record.
                        self.controller.journal.record_lease_expired(key)
                    self.controller.evict_app(instance,
                                              reason="lease expired")
                self.controller.metrics.increment("server.lease_expiries",
                                                  self.controller.now)
                recorder = self.recorder
                if recorder is not None:
                    recorder.record(EVENT_LEASE_EXPIRED, client=key)
                evicted.append(key)
                if session is not None and not session.transport.closed:
                    notify.append(session)
        for session in notify:
            try:
                session.transport.send(make_message(
                    LEASE_EXPIRED,
                    message=f"session {session.client_id} lease expired"))
            except (TransportError, ProtocolError, ControllerBusyError):
                pass
        return evicted

    def start_lease_monitor(self, period_seconds: float | None = None,
                            ) -> None:
        """Run :meth:`check_leases` periodically on a background thread."""
        if self.lease_seconds is None:
            raise ProtocolError("server has no lease_seconds configured")
        if self._lease_thread is not None and self._lease_thread.is_alive():
            return
        period = period_seconds or self.lease_seconds / 3.0
        stop = threading.Event()
        self._lease_stop = stop

        def monitor() -> None:
            while not stop.wait(period):
                self.check_leases()

        self._lease_thread = threading.Thread(
            target=monitor, name="harmony-lease-monitor", daemon=True)
        self._lease_thread.start()

    def stop_lease_monitor(self) -> None:
        """Stop the monitor and *wait for it*: after this returns, no
        lease check is running or will ever run again."""
        thread = self._lease_thread
        if self._lease_stop is not None:
            self._lease_stop.set()
        if thread is not None and thread.is_alive() \
                and thread is not threading.current_thread():
            thread.join(timeout=5.0)
        self._lease_thread = None
        self._lease_stop = None

    # -- TCP front end ---------------------------------------------------------

    def serve_tcp(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                  ) -> tuple[str, int]:
        """Listen for application connections; returns the bound address.

        Pass ``port=0`` for an ephemeral port (tests).  Each accepted
        connection gets a :class:`TcpTransport` and a session; handling
        runs on the transports' reader threads, synchronized by the
        server's lock layout (see the module docstring).
        """
        if self._listener_socket is not None:
            raise ProtocolError("server already listening")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen()
        self._stopping = False
        self._listener_socket = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return listener.getsockname()

    def stop(self) -> None:
        """Shut down in dependency order: monitors first, sessions last.

        The scheduler is drained and stopped, then the lease monitor is
        stopped *and joined* and the accept loop closed before any
        session state is dropped, so neither a scheduled batch nor a
        lease check can ever fire against a half-torn-down server.
        Session transports themselves stay open — clients own their
        connections.
        """
        self._stopping = True
        if self.scheduler is not None:
            self.scheduler.stop(flush=True)
            self.scheduler = None
        self.stop_lease_monitor()
        accept_thread = self._accept_thread
        if self._listener_socket is not None:
            # shutdown() before close(): merely closing the fd does not
            # wake a thread blocked in accept(2), so the join below
            # would burn its whole timeout.  Shutting the listener down
            # makes the blocked accept return immediately.
            try:
                self._listener_socket.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener_socket.close()
            except OSError:
                pass
            self._listener_socket = None
        if accept_thread is not None and accept_thread.is_alive() \
                and accept_thread is not threading.current_thread():
            accept_thread.join(timeout=5.0)
        self._accept_thread = None
        with self.sessions_lock:
            self._sessions_by_key.clear()
            self._leases.clear()
            self._push_generations.clear()

    def _accept_loop(self) -> None:
        while True:
            listener = self._listener_socket
            if self._stopping or listener is None:
                return
            try:
                sock, _addr = listener.accept()
                transport = TcpTransport(sock)
            except OSError:
                if self._stopping or self._listener_socket is None:
                    # Orderly shutdown closed the listener under us.
                    return
                # A transient accept failure (EMFILE, ECONNABORTED, …)
                # must not kill the accept loop for the server's
                # lifetime: count it, back off briefly, keep serving.
                controller = self.controller
                controller.metrics.increment("server.accept_errors",
                                             controller.now)
                if self._accept_retry_seconds > 0:
                    time.sleep(self._accept_retry_seconds)
                continue
            self.attach(transport)

    # -- variable pushing ----------------------------------------------------------

    def stage_updates(self, client_id: str, updates: dict[str, Any],
                      generation: int = 0) -> None:
        """Stage a batch under the flush lock (never races a flush)."""
        with self._flush_lock:
            self.buffer.stage_many(client_id, updates,
                                   generation=generation)

    def _on_reconfiguration(self, event: ReconfigurationEvent) -> None:
        updates: dict[str, Any] = {
            f"{event.bundle_name}.option": event.option_name,
        }
        for name, value in event.variable_assignment.items():
            updates[f"{event.bundle_name}.{name}"] = value
        for local_name, hostname in event.placements.items():
            updates[f"{event.bundle_name}.{local_name}.hostname"] = hostname
        for grant_key, megabytes in event.memory_grants.items():
            # grant_key is "<local_name>.memory"
            updates[f"{event.bundle_name}.{grant_key}"] = megabytes
        with self._flush_lock:
            self._push_seq += 1
            self.buffer.stage_many(event.app_key, updates,
                                   generation=self._push_seq)
        if self.auto_flush:
            self.flush_pending_vars()

    def flush_pending_vars(self) -> int:
        """The paper's ``flushPendingVars()``: drain staged updates.

        Batches for clients that are currently unreachable stay staged
        (they are within their lease; eviction discards them for good), so
        a reconfiguration that lands during a disconnect window is
        delivered when the client rejoins.

        Flushes are serialized and each delivery carries its batch's
        newest generation stamp; a batch older than what the client
        already received is dropped (``server.stale_pushes_dropped``)
        rather than rewinding the client's variables.
        """
        def ready(client_id: str) -> bool:
            with self.sessions_lock:
                session = self._sessions_by_key.get(client_id)
            return session is not None and not session.transport.closed

        def send(client_id: str, updates: dict[str, Any],
                 generation: int) -> None:
            with self.sessions_lock:
                session = self._sessions_by_key.get(client_id)
                delivered = self._push_generations.get(client_id, 0)
            if session is None:
                return
            if 0 < generation < delivered:
                controller = self.controller
                controller.metrics.increment("server.stale_pushes_dropped",
                                             controller.now)
                return
            tracer = self.controller.tracer
            with tracer.span("server.push", generation=generation,
                             client=client_id, variables=len(updates)):
                session.push_updates(updates, generation=generation)
            recorder = self.recorder
            if recorder is not None:
                recorder.record(EVENT_PUSH, client=client_id,
                                generation=generation,
                                variables=len(updates))
            if generation > delivered:
                with self.sessions_lock:
                    if generation > self._push_generations.get(client_id, 0):
                        self._push_generations[client_id] = generation

        with self._flush_lock:
            return self.buffer.flush(send, ready=ready,
                                     with_generation=True)

    def current_variable_value(self, instance: AppInstance,
                               name: str) -> Any:
        """Resolve a variable name against the app's chosen configurations."""
        for bundle_name, state in instance.bundles.items():
            chosen = state.chosen
            if chosen is None:
                continue
            if name == f"{bundle_name}.option":
                return chosen.option_name
            for var, value in chosen.variable_assignment.items():
                if name == f"{bundle_name}.{var}":
                    return value
            for local_name, hostname in chosen.assignment.placements.items():
                if name == f"{bundle_name}.{local_name}.hostname":
                    return hostname
            for grant_key, megabytes in \
                    chosen.allocation.memory_grants().items():
                if name == f"{bundle_name}.{grant_key}":
                    return megabytes
        return None
