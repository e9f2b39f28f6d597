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
  ``bundle_setup``, ``end``, lease evictions, role transitions).
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

Variable naming convention for pushed resource information, the same
for a push and for an ``add_variable`` answer:

* ``<bundle>.option``            — the chosen option name,
* ``<bundle>.<variable>``        — each RSL ``variable`` value,
* ``<bundle>.<node>.hostname``   — where each local node name landed,
* ``<bundle>.<node>.memory``     — each elastic memory grant, in MB.
"""

from __future__ import annotations

import contextlib
import socket
import threading
import time
from typing import Any, Callable, Mapping

from repro.api.protocol import (
    CLIENT_TYPES,
    CONTROLLER_MOVED,
    ERROR,
    HEARTBEAT_ACK,
    LEASE_EXPIRED,
    MESSAGES,
    STATUS_REPORT,
    VARIABLE_UPDATE,
    MessageSpec,
    make_message,
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
                                 EVENT_PUSH,
                                 EVENT_RPC_IN, EVENT_RPC_OUT,
                                 EVENT_SERVER_ERROR, FlightRecorder)
from repro.obs.instrument import InstrumentedRLock
from repro.obs.trace import TraceContext

__all__ = ["HarmonyServer", "HarmonySession", "DEFAULT_PORT"]

#: The prototype's "well-known port" (any free port works; tests use 0).
DEFAULT_PORT = 52766


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
            self.transport.send(make_message(VARIABLE_UPDATE,
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
            # Flushed, not reset: a standby's ack racing the crash must
            # not discard the frames still queued on its link.
            with contextlib.suppress(Exception):
                self.transport.close_after_flush()
            return
        server.count_rpc(msg_type)
        recorder = server.recorder
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
                    self._dispatch(msg_type, message)
            else:
                self._dispatch(msg_type, message)
        except HarmonyError as exc:
            self._reply(make_message(ERROR, message=str(exc)))
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

    def _dispatch(self, msg_type: str, message: dict[str, Any]) -> None:
        """Look the request up in the message table; take its lock."""
        row = MESSAGES.get(msg_type)
        if row is None or not row.request:
            raise ProtocolError(f"unknown message type {msg_type!r}")
        if not row.locked:
            return self._walk(row, message)
        with self.server.controller_lock:
            self._walk(row, message)

    def _walk(self, row: MessageSpec, message: dict[str, Any]) -> None:
        """The gates in order, then the handler; a request no reply
        answers renews the lease after it, one that is answered renews
        it before the reply leaves (:meth:`_reply`)."""
        server = self.server
        if row.mutating and server.standby:
            # A standby serves reads (status, heartbeats) but refuses
            # every mutation with a redirect carrying its best guess at
            # the current primary — the fencing record's address.
            self._reply(server.moved_reply())
            return
        if self.evicted and not row.rejoin:
            # Anything an evicted client says (a heartbeat racing the
            # eviction, a late RPC) gets the same answer: your lease is
            # gone, rejoin.
            self._reply(make_message(
                LEASE_EXPIRED,
                message=f"session {self.client_id} lease expired"))
            return
        if row.session and self.instance is None:
            raise ProtocolError("register first")
        _HANDLERS[row.type](self, **row.convert(message))
        if row.reply is None:
            self._renew()

    def _renew(self) -> None:
        """Renew the lease of a request that dispatched successfully: a
        stream of malformed or rejected requests must not keep a session
        alive forever, and an evicted instance's dead key must never be
        re-armed."""
        if self.instance is not None and not self.instance.ended:
            self.server.touch(self.instance.key)

    # -- handlers: one per client row of MESSAGES, fields converted -----------

    def _handle_register(self, app_name: str, use_interrupts: bool = False,
                         resume_key: str | None = None) -> None:
        if self.instance is not None and not self.instance.ended:
            # A duplicated or replayed register on a live session is
            # answered idempotently rather than poisoning the session.
            if self.instance.app_name == app_name:
                self._reply(make_message(
                    "registered", instance_id=self.instance.instance_id,
                    key=self.instance.key, resumed=True))
                return
            raise ProtocolError("already registered")
        self.use_interrupts = use_interrupts
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

    def _handle_heartbeat(self, key: Any = None) -> None:
        """Renew the lease; ``key`` is informational (the session knows)."""
        server = self.server
        # Renew before answering: the ack carries the *new* deadline.
        server.touch(self.instance.key)
        with server.sessions_lock:
            server.heartbeats_received += 1
            deadline = server._leases.get(self.instance.key)
        controller = server.controller
        controller.metrics.increment("server.heartbeats", controller.now)
        self._reply(make_message(HEARTBEAT_ACK, lease_expires_at=deadline))

    def _handle_status(self, prefix: str | None = None,
                       max_traces: int = 20) -> None:
        """Answer a telemetry query; registration is not required.

        A monitoring client may connect, send ``status``, and disconnect
        without ever registering an application.
        """
        payload = self.server.status_payload(prefix=prefix or None,
                                             max_traces=max_traces)
        self._reply(make_message(STATUS_REPORT, **payload))

    def _handle_bundle_setup(self, rsl: str) -> None:
        state = self.server.controller.setup_bundle(self.instance, rsl)
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

    def _handle_add_variable(self, name: str, default: Any = None,
                             var_type: Any = None) -> None:
        # Answer with the live value when the name maps onto a chosen
        # configuration (e.g. "<bundle>.option"), else echo the default.
        value = self.server.current_variable_value(self.instance, name)
        if value is None:
            value = default
        self._reply(make_message("variable_added", name=name, value=value))

    def _handle_wait_for_update(self) -> None:
        """Updates are pushed eagerly; nothing to do server-side."""

    def _handle_report_metric(self, name: str, value: float) -> None:
        key = self.instance.key
        controller = self.server.controller
        controller.metrics.report(f"app.{key}.{name}", controller.now, value)
        scheduler = controller.scheduler
        if scheduler is not None:
            # Metric reports never re-optimize inline (that would put an
            # optimization sweep on every telemetry packet); with a
            # scheduler attached they feed the coalesced batch instead.
            scheduler.request(f"metric:{key}.{name}",
                              trace_ctx=controller.tracer.current_context())

    def _handle_query_nodes(self) -> None:
        """Answer with current resource availability.

        The reply carries both structured records and the equivalent
        ``harmonyNode`` RSL text, so an application can feed the answer
        straight back into bundle authoring.  ``memory_available_mb``
        reflects live reservations — this is the controller's own view of
        availability, not the raw machine size.
        """
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
        self.server.controller.end_app(self.instance)
        self._reply(make_message("ended"))
        self.server.detach(self)

    def _handle_repl_hello(self, standby_id: str, last_seq: int,
                           last_crc: str | None = None,
                           last_term: int = 0) -> None:
        """A standby subscribing to the WAL stream (a ``locked`` row)."""
        replication = self.server.replication
        if replication is None:
            raise ProtocolError(
                "replication is not enabled on this server")
        replication.handle_hello(self.transport, standby_id, last_seq,
                                 last_crc, last_term)

    def _handle_repl_ack(self, **fields: Any) -> None:
        if self.server.replication is not None:
            self.server.replication.handle_ack(**fields)

    def _reply(self, message: dict[str, Any]) -> None:
        if not MESSAGES[message["type"]].raises:
            # An answer, not a refusal: the lease is renewed before the
            # client can hold the reply, so a clock the client moves next
            # cannot land inside the renewal.
            self._renew()
        term = self.server.controller.term
        if term > 0 and "term" not in message:
            # Once elected into a term, stamp it on every reply so
            # clients can spot (and report) a deposed, stale primary.
            message["term"] = term
        recorder = self.server.recorder
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
            recorder.record(EVENT_BACKPRESSURE,
                            rpc=str(message.get("type")),
                            message="reply dropped: write queue full")


#: ``_handle_<type>`` per client row (a row without one fails at import).
_HANDLERS = {msg_type: getattr(HarmonySession, "_handle_" + msg_type)
             for msg_type in CLIENT_TYPES}


class HarmonyServer:
    """Accepts application connections and wires them to the controller.

    ``lease_seconds`` (optional) arms session leases: every request from
    a registered client that is handled successfully renews its lease;
    :meth:`tick` runs :meth:`check_leases`, which evicts applications
    whose lease lapsed — their
    placements are removed through the controller's transactional view
    and the survivors are re-optimized, so a crashed client degrades the
    system gracefully instead of stranding its allocation.  ``clock``
    defaults to ``time.monotonic``; simulated deployments inject their
    own to stay deterministic.

    See the module docstring for the lock layout and ordering rules.
    """

    def __init__(self, controller: AdaptationController,
                 auto_flush: bool = True,
                 lease_seconds: float | None = None,
                 clock: Callable[[], float] | None = None,
                 flight_dump_path: str | None = None,
                 standby: bool = False,
                 fail_stop_on_error: bool = False):
        self.controller = controller
        self.auto_flush = auto_flush
        self.lease_seconds = lease_seconds
        self.clock: Callable[[], float] = clock or time.monotonic
        #: Standby role: reads are served, mutations are refused with a
        #: ``controller_moved`` redirect.  Cleared when the server claims
        #: a term; set by :meth:`demote`.
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
        #: What :meth:`enable_replication` claimed the term with: this
        #: server's address and its fencing lease length.
        self._address: str | None = None
        self._term_lease_seconds = 30.0
        #: The replica a standby follows and takes over from
        #: (:meth:`demote`), and the address its link was dialed to.
        self.replica = None
        self._leader: str | None = None
        #: Where to dump the flight recorder on an unhandled server
        #: error (``None`` records the event but writes nothing).
        self.flight_dump_path = flight_dump_path
        self.buffer = PendingVariableBuffer()
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
        self.heartbeats_received = 0
        self.scheduler = None
        self._sessions_by_key: dict[str, HarmonySession] = {}
        self._leases: dict[str, float] = {}
        #: Highest push generation delivered per client — stale batches
        #: (older than what the client already holds) are dropped.
        self._push_generations: dict[str, int] = {}
        self._push_seq = 0
        self._listener_socket: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._accept_retry_seconds = 0.05
        self._stopping = False
        controller.add_listener(self._on_reconfiguration)

    # -- telemetry ----------------------------------------------------------

    @property
    def recorder(self) -> FlightRecorder:
        """The controller's flight recorder."""
        return self.controller.flight_recorder

    def note_server_error(self, exc: BaseException, **fields: Any) -> None:
        """Record an unhandled error; dump the flight ring if configured.

        The dump is best-effort — a failing disk must not mask the
        original exception unwinding through the caller.
        """
        controller = self.controller
        controller.metrics.increment("server.unhandled_errors",
                                     controller.now)
        recorder = self.recorder
        recorder.record(EVENT_SERVER_ERROR, error=type(exc).__name__,
                        message=str(exc), **fields)
        if self.flight_dump_path is not None:
            try:
                recorder.dump(self.flight_dump_path)
            except OSError:
                pass

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
            },
            "replication": self.replication_status(),
        }

    # -- replication & failover ----------------------------------------------

    def enable_replication(self, fencing=None, lease_seconds: float = 30.0,
                           address: str | None = None) -> str:
        """Become a replicating primary; returns the role taken.

        The server claims the next term
        (:func:`~repro.persistence.replication.claim_term`: the fencing
        lease, or ``term + 1`` unfenced), stamps it on every reply, and
        ships its WAL to standbys through a
        :class:`~repro.persistence.replication.ReplicationPrimary`.  If
        another holder's lease is live — a newer primary was elected
        while this one was down — it *stands by* instead of
        split-braining (:meth:`demote`), and returns ``"standby"``.
        """
        from repro.persistence.replication import claim_term

        journal = self.controller.journal
        if journal is None:
            raise ControllerError(
                "enable_replication requires an attached durability "
                "journal (the WAL is the replication stream)")
        holder = address or f"server-{id(self):x}"
        with self.controller_lock:
            self.fencing = fencing
            self._fencing_holder = holder
            self._address = address
            self._term_lease_seconds = lease_seconds
            try:
                claim_term(journal, fencing, holder, lease_seconds, address)
            except ReplicationError:
                # Fenced out: a live, higher-term primary exists.
                self.demote()
                return "standby"
            self._serve_as_primary()
        return "primary"

    def tick(self) -> bool:
        """One pass of a served Harmony's loop; returns whether this
        server is (now) the primary.

        ``harmony-repro serve`` runs it every ``min(1 s, lease / 3)``.
        A primary renews its fencing lease — a deposed one, whose record
        now carries a higher term or whose renew is refused, demotes
        instead of serving a dead term — and then evicts the sessions
        whose lease lapsed (:meth:`check_leases`).  A standby follows
        the holder the fencing record names, or takes over once the
        lease of the term it follows lapsed (:meth:`_stand_by`); it
        evicts no one.  A stopped server does nothing.
        """
        if self._stopping:
            return False
        if not self.standby and self.fencing is not None:
            try:
                # Refused once the record moved to another term or holder.
                self.fencing.renew(self._fencing_holder,
                                   self.controller.term)
            except ReplicationError:
                self.demote(observed_term=self.fencing.read().term)
        if self.standby:
            return self._stand_by()
        self.check_leases()
        return True

    def _stand_by(self) -> bool:
        """Promote the followed replica once its primary's lease lapsed;
        otherwise follow the holder the fencing record names.

        Term 0 means no primary ever held the lease, so nothing says one
        died; a later term than the replica follows names a history it
        does not hold yet, so it follows that holder instead.  A rival
        that claims the term first is followed the same way."""
        replica, fencing = self.replica, self.fencing
        if replica is None or fencing is None:
            return False
        record = fencing.read()
        if record.term == 0:
            return False
        if record.term == replica.term \
                and fencing.clock() >= record.lease_expires_at:
            try:
                # Outside controller_lock: the replica's reader thread
                # takes it under the replica's lock (``on_controller``).
                replica.promote()
            except ReplicationError:
                record = fencing.read()  # a rival claimed the term first
            else:
                with self.controller_lock:
                    self.replica = None
                    self._fencing_holder = replica.standby_id
                    self._serve_as_primary()
                return True
        self._follow(replica, record)
        return False

    def _follow(self, replica, record) -> None:
        """Dial the holder ``record`` names unless the replica's link to
        it is open.  The replica re-hellos from its last applied record,
        and log matching truncates a divergent suffix.  A dial waits at
        most one tick period, and a refused one is retried on the next
        tick."""
        address = record.address
        link = replica.transport
        if not address or record.holder == self._fencing_holder or (
                link is not None and not link.closed
                and address == self._leader):
            return
        host, _, port = address.rpartition(":")
        try:
            transport = TcpTransport.connect(
                host, int(port),
                timeout=min(1.0, replica.lease_seconds / 3.0))
        except (TransportError, ValueError):
            return
        replica.stop()
        self._leader = address
        with contextlib.suppress(TransportError):
            replica.follow(transport)

    def _serve_as_primary(self) -> None:
        """Answer as primary, shipping the WAL (term claimed, lock held)."""
        from repro.persistence.replication import ReplicationPrimary

        controller = self.controller
        self.replication = ReplicationPrimary(controller.journal,
                                              controller).install()
        self.standby = False
        self.failed = False

    def demote(self, observed_term: int | None = None) -> None:
        """Step down to standby: mutations now answer with redirects.

        A server with a journal closes it and follows from the journal's
        directory through a
        :class:`~repro.persistence.replication.ReplicationStandby`
        named as this server's fencing holder; :meth:`tick` points it at
        the holder the fencing record names, and the server serves reads
        from each controller the replica builds.  A deposed primary also
        half-closes its standby links, as :meth:`fail_stop` does.
        """
        with self.controller_lock:
            deposed = not self.standby
            self.standby = True
            replication, self.replication = self.replication, None
            journal = self.controller.journal
            if journal is not None:
                self._follow_directory(journal)
        if replication is not None:
            _half_close(replication.link_transports())
        if deposed:
            controller = self.controller
            controller.metrics.increment("server.demotions",
                                         controller.now)
            self.recorder.record(EVENT_DEMOTION, term=controller.term,
                                 observed_term=observed_term)

    def _follow_directory(self, journal) -> None:
        """Close ``journal`` and become the replica of its directory,
        built as the journal was (controller lock held)."""
        from repro.persistence.replication import ReplicationStandby

        journal.close()
        replica = ReplicationStandby(
            journal.directory, self._fencing_holder, fencing=self.fencing,
            model_registry=journal.model_registry,
            snapshot_every=journal.snapshot_every, fsync=journal.wal.fsync,
            address=self._address, lease_seconds=self._term_lease_seconds)
        self.replica = replica
        replica.on_controller = self._adopt_controller
        if replica.controller is not None:
            self._adopt_controller(replica.controller)

    def _adopt_controller(self, controller: AdaptationController) -> None:
        """Swap in a replica's rebuilt controller (:meth:`demote`).

        Each time the replica (re)builds its controller — restored from
        its directory, or reset from the primary's snapshot — the server
        adopts it, so status queries and, after the take-over, mutations
        run against the replicated state.
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
        """The current primary's address: the fencing record's, since
        whoever holds the lease is the primary (``None`` without a
        record, or when it names this server)."""
        if self.fencing is None:
            return None
        record = self.fencing.read()
        if record.address and record.holder != self._fencing_holder:
            return str(record.address)
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
            # shutdown() wakes the accept loop, as in stop(), so a later
            # stop() does not wait out its join.
            with contextlib.suppress(OSError):
                listener.shutdown(socket.SHUT_RDWR)
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
        # replica has.  For the same reason a link is half-closed, never
        # reset: every frame shipped before the crash still reaches the
        # standby ahead of the EOF.
        if self.replication is not None:
            _half_close(self.replication.link_transports())

    def replication_status(self) -> dict[str, Any]:
        """This server's view of the replicated cluster (for ``status``)."""
        controller = self.controller
        journal = controller.journal
        if self.replica is not None:  # the log a standby follows into
            last_seq = self.replica.last_seq
        else:
            last_seq = journal.wal.last_seq if journal is not None else 0
        standbys = (self.replication.status()
                    if self.replication is not None else [])
        return {
            "role": "standby" if self.standby else "primary",
            "term": controller.term,
            "last_seq": last_seq,
            "standbys": standbys,
        }

    # -- the coalescing scheduler --------------------------------------------

    def start_scheduler(self, coalesce_window: float = 0.05,
                        max_delay: float = 0.5):
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
            max_delay=max_delay, lock=self.controller_lock)
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
        """Renew one application's lease."""
        if self.lease_seconds is not None:
            with self.sessions_lock:
                self._leases[key] = self.clock() + self.lease_seconds

    def lease_deadline(self, key: str) -> float | None:
        with self.sessions_lock:
            return self._leases.get(key)

    def check_leases(self) -> list[str]:
        """Evict every application whose lease has expired.

        Returns the evicted keys.  For each: the controller removes the
        placement and re-optimizes the survivors (recording one
        ``evicted`` flight event), staged updates are discarded, and — if
        the dead transport still accepts writes — a ``lease_expired``
        notice is sent so a half-alive client learns its fate
        immediately.
        """
        if self.lease_seconds is None:
            return []
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
                    self.controller.evict_app(instance,
                                              reason="lease expired")
                self.controller.metrics.increment("server.lease_expiries",
                                                  self.controller.now)
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
        """Shut down in dependency order: the scheduler first, sessions
        last.

        The scheduler is drained and stopped and the accept loop closed
        before any session state is dropped, so no scheduled batch can
        fire against a half-torn-down server; from here on :meth:`tick`
        does nothing, so no lease check can either.  Session transports
        themselves stay open — clients own their connections.  A
        standby stops following and closes the replica's log.
        """
        self._stopping = True
        if self.replica is not None:
            self.replica.close()
        if self.scheduler is not None:
            self.scheduler.stop(flush=True)
            self.scheduler = None
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
        updates = _pushed_variables(
            event.bundle_name, event.option_name, event.variable_assignment,
            event.placements, event.memory_grants)
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
            self.recorder.record(EVENT_PUSH, client=client_id,
                                 generation=generation,
                                 variables=len(updates))
            if generation > delivered:
                with self.sessions_lock:
                    if generation > self._push_generations.get(client_id, 0):
                        self._push_generations[client_id] = generation

        with self._flush_lock:
            return self.buffer.flush(send, ready)

    def current_variable_value(self, instance: AppInstance,
                               name: str) -> Any:
        """Resolve a variable name against the app's chosen configurations."""
        for bundle_name, state in instance.bundles.items():
            chosen = state.chosen
            if chosen is None:
                continue
            variables = _pushed_variables(
                bundle_name, chosen.option_name, chosen.variable_assignment,
                chosen.assignment.placements,
                chosen.allocation.memory_grants())
            if name in variables:
                return variables[name]
        return None


def _half_close(links) -> None:
    """Half-close each replication link, so every frame shipped on it
    still reaches its standby ahead of the EOF."""
    for link in links:
        with contextlib.suppress(Exception):
            link.close_after_flush()


def _pushed_variables(bundle_name: str, option_name: str,
                      variable_assignment: Mapping[str, Any],
                      placements: Mapping[str, str],
                      memory_grants: Mapping[str, float]) -> dict[str, Any]:
    """A configuration's variables by the wire names a client reads."""
    updates: dict[str, Any] = {f"{bundle_name}.option": option_name}
    for name, value in variable_assignment.items():
        updates[f"{bundle_name}.{name}"] = value
    for local_name, hostname in placements.items():
        updates[f"{bundle_name}.{local_name}.hostname"] = hostname
    for grant_key, megabytes in memory_grants.items():
        # grant_key is "<local_name>.memory"
        updates[f"{bundle_name}.{grant_key}"] = megabytes
    return updates
