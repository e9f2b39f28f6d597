"""The Harmony client runtime library (the paper's Figure 5 API).

Applications link this library, connect to the Harmony server over a
transport, and then use the five calls from the paper::

    client = HarmonyClient(transport)
    client.startup("DBclient")                     # harmony_startup
    client.bundle_setup(RSL_TEXT)                  # harmony_bundle_setup
    where = client.add_variable("where.option",    # harmony_add_variable
                                "QS", VariableType.STRING)
    ...
    client.wait_for_update()                       # harmony_wait_for_update
    if where.changed and where.consume() == "DS":
        reconfigure_to_data_shipping()
    ...
    client.end()                                   # harmony_end

Updates pushed by the server are applied to the declared
:class:`~repro.api.variables.HarmonyVariable` objects by the transport
receiver (the paper's "I/O event handler"); the application polls them at
its natural phase boundaries.  ``wait_for_update`` blocks (wall-clock) for
TCP transports; single-threaded simulated applications use the non-blocking
:meth:`HarmonyClient.poll_update` instead.

Module-level aliases with the paper's exact C names (``harmony_startup``
etc.) operate on a process-wide default client for API fidelity.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Any, Callable

from repro.api.protocol import (
    HEARTBEAT,
    HEARTBEAT_ACK,
    LEASE_EXPIRED,
    MESSAGES,
    STATUS,
    STATUS_REPORT,
    VARIABLE_UPDATE,
    make_message,
    require_field,
)
from repro.api.retry import RetryPolicy
from repro.api.transport import TcpTransport, Transport
from repro.api.variables import HarmonyVariable, VariableTable, VariableType
from repro.obs.trace import NULL_TRACER
from repro.errors import (
    ControllerBusyError,
    ControllerMovedError,
    HarmonyError,
    LeaseExpiredError,
    ProtocolError,
    RequestTimeoutError,
    RetryExhaustedError,
    TransportError,
)

__all__ = ["HarmonyClient", "harmony_startup", "harmony_bundle_setup",
           "harmony_add_variable", "harmony_wait_for_update", "harmony_end",
           "set_default_client"]


class HarmonyClient:
    """One application's connection to the Harmony server.

    ``retry_policy`` governs every request's timeout, retry count, and
    backoff (default: one 30 s attempt, the original behaviour).
    ``transport_factory`` supplies a replacement transport after a
    connection loss; when omitted, a dialed :class:`TcpTransport` falls
    back to :meth:`TcpTransport.redial`.  With either available, failed
    requests transparently reconnect, replay the session (registration
    with the old key, every bundle, every declared variable), and retry —
    see :meth:`rejoin` for the explicit form.

    The liveness counters — :attr:`retries`, :attr:`reconnects`,
    :attr:`redirects_followed`, :attr:`failover_rotations` and
    :attr:`heartbeats_acked` — are properties of the client.

    ``tracer`` (default: the no-op ``NULL_TRACER``) roots a
    ``client.request`` span around each RPC and stamps its
    :class:`~repro.obs.trace.TraceContext` onto the wire message as the
    optional ``trace_ctx`` field, so the server, scheduler, and sweep
    workers continue the same trace.  Every request of a client with a
    tracer is traced; without one, no request allocates a span.

    ``failover`` is the static failover list: where to look for the
    controller when the current connection is dead or answers with a
    ``controller_moved`` redirect.  Each entry is either a ``host:port``
    string or a zero-argument transport factory.  A redirect's explicit
    ``leader`` hint always wins over list rotation; a dead or still-
    standby target advances the rotation.  :attr:`term` tracks the
    highest controller term seen on any reply, so a client that has
    talked to the new primary can never be fooled by a deposed one.
    """

    def __init__(self, transport: Transport,
                 retry_policy: RetryPolicy | None = None,
                 transport_factory: Callable[[], Transport] | None = None,
                 tracer=None,
                 failover: list[Any] | None = None):
        self.transport = transport
        self.retry_policy = retry_policy or RetryPolicy()
        self.transport_factory = transport_factory
        self.failover = list(failover or [])
        #: Highest controller term observed on any reply (0 = none yet).
        self.term = 0
        self._moved_leader: str | None = None
        self._force_reconnect = False
        self._target_index = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.variables = VariableTable()
        self.app_key: str | None = None
        self.instance_id: int | None = None
        self._app_name: str | None = None
        self._use_interrupts = False
        self._bundle_rsls: list[str] = []
        self._response: dict[str, Any] | None = None
        self._response_ready = threading.Event()
        self._update_ready = threading.Event()
        self._updates_seen = 0
        self._last_update: dict[str, Any] = {}
        self._lock = threading.Lock()
        self._ended = False
        self._lease_lost = False
        self._lease_expires_at: float | None = None
        self._retries = 0
        self._reconnects = 0
        self._redirects_followed = 0
        self._failover_rotations = 0
        self._heartbeats_sent = 0
        self._heartbeats_acked = 0
        self._heartbeat_stop: threading.Event | None = None
        self._heartbeat_thread: threading.Thread | None = None
        transport.set_receiver(self._on_message)

    # -- the Figure 5 calls ---------------------------------------------------

    def startup(self, app_name: str, use_interrupts: bool = False) -> str:
        """Register with the Harmony server; returns the ``app.instance`` key.

        ``use_interrupts`` mirrors the paper's flag: when True the
        application asks to be notified eagerly rather than at poll points
        (our transports always deliver eagerly; the flag is recorded for the
        server's information).
        """
        if self.app_key is not None:
            raise ProtocolError("startup called twice")
        self._app_name = app_name
        self._use_interrupts = use_interrupts
        reply = self._request(make_message(
            "register", app_name=app_name, use_interrupts=use_interrupts))
        self.app_key = str(require_field(reply, "key"))
        self.instance_id = int(require_field(reply, "instance_id"))
        return self.app_key

    def bundle_setup(self, rsl_text: str) -> dict[str, Any]:
        """Export a bundle; returns the initially chosen configuration."""
        self._require_started()
        reply = self._request(make_message("bundle_setup", rsl=rsl_text))
        if rsl_text not in self._bundle_rsls:
            self._bundle_rsls.append(rsl_text)
        return MESSAGES["bundle_ok"].convert(reply)

    def add_variable(self, name: str, default: Any,
                     var_type: VariableType = VariableType.FLOAT,
                     ) -> HarmonyVariable:
        """Declare a variable shared with Harmony; returns the live object."""
        self._require_started()
        variable = self.variables.declare(name, default, var_type)
        reply = self._request(make_message(
            "add_variable", name=name, default=variable.value,
            var_type=var_type.value))
        # The server may answer with a current value differing from the
        # default (e.g. the option already chosen during bundle_setup).
        if "value" in reply and reply["value"] is not None:
            variable.apply_update(reply["value"])
            variable.consume()  # initial sync is not a "change"
        return variable

    def wait_for_update(self, timeout: float | None = None,
                        ) -> dict[str, Any]:
        """Block until the server pushes a variable update batch.

        Returns the raw update mapping.  Raises :class:`TransportError` on
        timeout.  Only meaningful on threaded (TCP) transports; simulated
        applications poll :meth:`poll_update`.
        """
        self._require_started()
        self.transport.send(make_message("wait_for_update"))
        if not self._update_ready.wait(timeout):
            raise RequestTimeoutError("wait_for_update", timeout or 0.0)
        with self._lock:
            self._update_ready.clear()
            return dict(self._last_update)

    def end(self) -> None:
        """Tell Harmony the application is terminating."""
        if self._ended:
            return
        self._require_started()
        self.stop_heartbeats()
        self._request(make_message("end"))
        self._ended = True
        self.transport.close()

    # -- extras ------------------------------------------------------------------

    def report_metric(self, name: str, value: float) -> None:
        """Feed an application metric into the Harmony metric interface."""
        self._require_started()
        message = make_message("report_metric", name=name,
                               value=float(value))
        if self.tracer.enabled:
            # Fire-and-forget, but still the root of the interesting
            # trace: metric reports are what trigger scheduler batches.
            with self.tracer.span("client.request", rpc="report_metric",
                                  metric=name) as span:
                message["trace_ctx"] = self.tracer.wire_context(span)
                self.transport.send(message)
            return
        self.transport.send(message)

    def query_nodes(self) -> dict[str, Any]:
        """Ask Harmony for current resource availability.

        Returns ``{"nodes": [...], "rsl": "harmonyNode ..."}`` — the
        structured per-node records plus equivalent ``harmonyNode`` RSL.
        """
        self._require_started()
        reply = self._request(make_message("query_nodes"))
        return MESSAGES["node_list"].convert(reply)

    def query_status(self, prefix: str | None = None,
                     max_traces: int = 20) -> dict[str, Any]:
        """Ask the server for its telemetry (the ``STATUS`` message).

        Works without :meth:`startup` — a pure monitoring client may
        connect just to poll.  Returns the ``status_report`` fields
        (``MESSAGES[STATUS_REPORT].fields``): the metric snapshot
        (optionally filtered by dotted ``prefix``), the most recent
        decision traces (up to ``max_traces``, oldest first), the
        optimizer work counters, server-side session counts, and the
        runtime health histogram snapshots (feed them to
        :func:`repro.obs.health.evaluate_health` or
        :func:`repro.metrics.quantile_from_snapshot`).
        """
        fields: dict[str, Any] = {"max_traces": int(max_traces)}
        if prefix is not None:
            fields["prefix"] = prefix
        reply = self._request(make_message(STATUS, **fields))
        return MESSAGES[STATUS_REPORT].convert(reply)

    def poll_update(self) -> dict[str, Any] | None:
        """Non-blocking check for a new update batch (simulation-friendly).

        Returns the batch once per arrival, then ``None`` until the next.
        """
        with self._lock:
            if not self._update_ready.is_set():
                return None
            self._update_ready.clear()
            return dict(self._last_update)

    @property
    def updates_received(self) -> int:
        return self._updates_seen

    # -- session liveness ---------------------------------------------------

    def heartbeat(self) -> None:
        """Fire-and-forget liveness ping; the server renews the lease.

        The ``heartbeat_ack`` answer is handled out-of-band (it never
        competes with an in-flight request's response).  Raises
        :class:`~repro.errors.LeaseExpiredError` once the server has
        answered a beat with ``lease_expired``.
        """
        self._require_started()
        if self._lease_lost:
            raise LeaseExpiredError(
                f"session {self.app_key} was evicted; call rejoin()")
        self._heartbeats_sent += 1
        self.transport.send(make_message(HEARTBEAT, key=self.app_key))

    def start_heartbeats(self) -> None:
        """Beat on a background thread (TCP sessions with server leases).

        The retry policy's ``heartbeat_interval_seconds`` spaces the
        beats.  The thread stops silently when the transport dies or the
        lease is lost — the next RPC surfaces the failure (and, with a
        transport factory, recovers it).
        """
        self._require_started()
        if self._heartbeat_thread is not None \
                and self._heartbeat_thread.is_alive():
            return
        interval = self.retry_policy.heartbeat_interval_seconds
        stop = threading.Event()
        self._heartbeat_stop = stop

        def beat() -> None:
            while not stop.wait(interval):
                try:
                    self.heartbeat()
                except (TransportError, LeaseExpiredError, ProtocolError):
                    return

        self._heartbeat_thread = threading.Thread(
            target=beat, name="harmony-heartbeat", daemon=True)
        self._heartbeat_thread.start()

    def stop_heartbeats(self) -> None:
        if self._heartbeat_stop is not None:
            self._heartbeat_stop.set()
        self._heartbeat_thread = None
        self._heartbeat_stop = None

    @property
    def lease_lost(self) -> bool:
        """True once the server reported this session as evicted."""
        return self._lease_lost

    @property
    def heartbeats_acked(self) -> int:
        return self._heartbeats_acked

    @property
    def retries(self) -> int:
        """Request attempts beyond the first, across the session."""
        return self._retries

    @property
    def reconnects(self) -> int:
        return self._reconnects

    @property
    def redirects_followed(self) -> int:
        """Reconnects aimed at a ``controller_moved`` leader hint."""
        return self._redirects_followed

    @property
    def failover_rotations(self) -> int:
        """Times a dead target moved the rotation to the next one."""
        return self._failover_rotations

    def rejoin(self) -> str:
        """Reconnect if needed and replay the session idempotently.

        Re-registers under the previous ``app.instance`` key (the server
        dedupes if the instance is still alive, or creates a fresh one if
        the lease expired), replays every bundle's RSL, and re-declares
        every variable.  Variables whose server-side value changed while
        disconnected come back with ``changed`` set, so no update is lost
        across the outage.  Returns the (possibly new) session key.
        """
        if self._app_name is None:
            raise ProtocolError("call startup() before rejoin()")
        if self._ended:
            raise ProtocolError("client already ended")
        if self.transport.closed:
            self._reconnect_transport()
        self._replay_session()
        return self.app_key  # type: ignore[return-value]

    # -- plumbing ---------------------------------------------------------------

    def _require_started(self) -> None:
        if self.app_key is None:
            raise ProtocolError("call startup() first")
        if self._ended:
            raise ProtocolError("client already ended")

    def _request(self, message: dict[str, Any]) -> dict[str, Any]:
        """Send a request and wait for its response, per the retry policy.

        When tracing is enabled, the whole retry loop runs under a
        ``client.request`` span whose context is stamped onto the message
        as ``trace_ctx``; otherwise the message is sent untouched.
        """
        if self.tracer.enabled:
            with self.tracer.span("client.request",
                                  rpc=str(message.get("type"))) as span:
                message = dict(message)
                message["trace_ctx"] = self.tracer.wire_context(span)
                return self._request_with_retries(message)
        return self._request_with_retries(message)

    def _request_with_retries(self,
                              message: dict[str, Any]) -> dict[str, Any]:
        """Send a request and wait for its response, per the retry policy.

        Transport failures and per-attempt timeouts are retried with
        exponential backoff; between attempts a dead connection is redialed
        and the session replayed (when a reconnect path exists).  Server
        ``error`` answers are not retried — they are application-level.
        """
        policy = self.retry_policy
        last_error: Exception | None = None
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                self._retries += 1
                delay = policy.jittered_delay(attempt - 1)
                if delay > 0:
                    time.sleep(delay)
                self._recover_connection()
                if self._force_reconnect:
                    # Recovery did not produce a bound session (the
                    # replay was redirected or refused mid-flight).
                    # Sending the real request now would reach an
                    # unregistered session and draw a misleading,
                    # non-retryable refusal — spend the attempt on
                    # another recovery round instead.
                    continue
            try:
                return self._request_once(message)
            except (RequestTimeoutError, TransportError,
                    ControllerBusyError, ControllerMovedError) as exc:
                # ControllerBusyError (the wire's controller_busy) is
                # transient by contract, so it rides the same backoff
                # loop as connection failures.
                # ControllerMovedError is the failover redirect: also
                # retryable, but the next attempt must reconnect (to
                # the redirect's leader hint) even though the current
                # transport is still perfectly healthy.
                last_error = exc
                if isinstance(exc, ControllerMovedError):
                    self._force_reconnect = True
        raise RetryExhaustedError(str(message.get("type")),
                                  policy.max_attempts) from last_error

    def _request_once(self, message: dict[str, Any]) -> dict[str, Any]:
        """One send/wait round trip (no retries)."""
        self._response_ready.clear()
        self._response = None
        self.transport.send(message)
        timeout = self.retry_policy.request_timeout_seconds
        deadline = time.monotonic() + timeout
        while not self._response_ready.is_set():
            # Fail fast when the connection dies under the request (the
            # peer crashed): waiting out the full request timeout for a
            # reply that can never arrive just slows failover down.
            if self.transport.closed:
                raise TransportError(
                    f"connection closed awaiting "
                    f"{message.get('type')!r} reply")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RequestTimeoutError(str(message.get("type")),
                                          timeout)
            self._response_ready.wait(timeout=min(0.05, remaining))
        response = self._response
        assert response is not None
        term = response.get("term")
        if isinstance(term, (int, float)) and int(term) > self.term:
            self.term = int(term)
        row = MESSAGES.get(str(response.get("type")))
        if row is None or not row.raises:
            return response
        error = row.raises.get(response.get("code"), row.raises[None])
        text = f"server {row.type}: {response.get('message', '')}"
        if not issubclass(error, ControllerMovedError):
            raise error(text)
        # The failover redirect: the retry loop reconnects to the
        # hinted leader and replays the session there.
        leader = response.get("leader")
        self._moved_leader = str(leader) if leader else None
        raise error(text, leader=self._moved_leader,
                    term=int(response.get("term", 0) or 0))

    def _recover_connection(self) -> None:
        """Best-effort reconnect + replay between retry attempts."""
        if not self.transport.closed and not self._force_reconnect:
            return
        self._force_reconnect = False
        try:
            self._reconnect_transport()
            if self._app_name is not None:
                self._replay_session()
        except ControllerMovedError:
            # We reconnected to a standby: its redirect recorded a
            # fresher leader hint; force the next attempt to hop again.
            self._force_reconnect = True
        except TransportError:
            # Dead target (dial refused, or it died mid-replay): rotate
            # to the next failover candidate for the following attempt —
            # and redial even if this dial left an open socket, because
            # its session was never (fully) replayed.
            self._advance_target()
            self._force_reconnect = True
        except HarmonyError:
            # Replay stopped early (busy, evicted): the new
            # session is not fully bound, so a request sent on it now
            # would be refused with a misleading "register first".
            # Redial and replay from scratch on the next attempt.
            self._force_reconnect = True

    def _reconnect_transport(self) -> None:
        """Swap in a fresh transport aimed at the best-known controller.

        Target choice, in order: an explicit ``controller_moved``
        ``leader`` hint (consumed once), then the rotation over the
        base reconnect path (``transport_factory`` or TCP redial) and
        the static :attr:`failover` list.
        """
        factory = self._next_target_factory()
        if factory is None:
            raise TransportError(
                "transport closed and no reconnect path configured")
        old = self.transport
        if not old.closed:
            with contextlib.suppress(Exception):
                old.close()
        transport = factory()
        transport.set_receiver(self._on_message)
        self.transport = transport
        self._reconnects += 1

    def _next_target_factory(self) -> Callable[[], Transport] | None:
        leader = self._moved_leader
        if leader:
            # A redirect hint is consumed once: if the hinted leader
            # turns out dead too, rotation takes over.
            self._moved_leader = None
            self._redirects_followed += 1
            return self._as_factory(leader)
        targets = self._reconnect_targets()
        if not targets:
            return None
        return targets[self._target_index % len(targets)]

    def _reconnect_targets(self) -> list[Callable[[], Transport]]:
        base = self.transport_factory
        if base is None and getattr(self.transport, "can_redial", False):
            base = self.transport.redial
        targets: list[Callable[[], Transport]] = []
        if base is not None:
            targets.append(base)
        targets.extend(self._as_factory(entry) for entry in self.failover)
        return targets

    def _advance_target(self) -> None:
        self._target_index += 1
        self._failover_rotations += 1

    @staticmethod
    def _as_factory(entry: Any) -> Callable[[], Transport]:
        """A failover entry: a transport factory or a host:port string."""
        if callable(entry):
            return entry
        host, _, port = str(entry).rpartition(":")
        if not host or not port.isdigit():
            raise ProtocolError(
                f"failover entry {entry!r} is not host:port or callable")
        return lambda: TcpTransport.connect(host, int(port))

    def _replay_session(self) -> None:
        """Re-register (resuming the old key) and replay bundles/variables.

        Everything here is idempotent server-side: registration dedupes on
        the resume key, ``bundle_setup`` returns the existing state for an
        already-exported bundle, and ``add_variable`` answers with the
        current value — which is applied as a *change* only if it differs
        from what this client last saw.
        """
        self._lease_lost = False
        reply = self._request_once(make_message(
            "register", app_name=self._app_name,
            use_interrupts=self._use_interrupts,
            resume_key=self.app_key))
        self.app_key = str(require_field(reply, "key"))
        self.instance_id = int(require_field(reply, "instance_id"))
        for rsl_text in self._bundle_rsls:
            self._request_once(make_message("bundle_setup", rsl=rsl_text))
        for name in self.variables.names():
            variable = self.variables.get(name)
            reply = self._request_once(make_message(
                "add_variable", name=name, default=variable.value,
                var_type=variable.var_type.value))
            value = reply.get("value")
            if value is not None \
                    and variable.var_type.coerce(value) != variable.value:
                variable.apply_update(value)

    def _on_message(self, message: dict[str, Any]) -> None:
        """The transport receiver — the paper's I/O event handler."""
        msg_type = message.get("type")
        if msg_type == VARIABLE_UPDATE:
            updates = message.get("updates", {})
            self.variables.apply_updates(updates)
            with self._lock:
                self._updates_seen += 1
                self._last_update = dict(updates)
                self._update_ready.set()
            return
        if msg_type == HEARTBEAT_ACK:
            with self._lock:
                self._heartbeats_acked += 1
                self._lease_expires_at = message.get("lease_expires_at")
            return
        if msg_type == LEASE_EXPIRED:
            # Answers the outstanding request if there is one; otherwise it
            # is the server reacting to a stray heartbeat — flag and drop.
            self._lease_lost = True
            self._response = message
            self._response_ready.set()
            return
        # Everything else answers the single outstanding request.
        self._response = message
        self._response_ready.set()


# --------------------------------------------------------------------------
# Paper-style C API on a process-wide default client
# --------------------------------------------------------------------------

_default_client: HarmonyClient | None = None


def set_default_client(client: HarmonyClient | None) -> None:
    """Install the client the ``harmony_*`` module functions operate on."""
    global _default_client
    _default_client = client


def _default() -> HarmonyClient:
    if _default_client is None:
        raise ProtocolError(
            "no default client installed; call set_default_client() first")
    return _default_client


def harmony_startup(app_name: str, use_interrupts: bool = False) -> str:
    """Figure 5: ``harmony_startup(<unique id>, <use interrupts>)``."""
    return _default().startup(app_name, use_interrupts)


def harmony_bundle_setup(bundle_definition: str) -> dict[str, Any]:
    """Figure 5: ``harmony_bundle_setup("<bundle definition>")``."""
    return _default().bundle_setup(bundle_definition)


def harmony_add_variable(name: str, default: Any,
                         var_type: VariableType = VariableType.FLOAT,
                         ) -> HarmonyVariable:
    """Figure 5: ``harmony_add_variable(name, default, type)``."""
    return _default().add_variable(name, default, var_type)


def harmony_wait_for_update(timeout: float | None = None) -> dict[str, Any]:
    """Figure 5: ``harmony_wait_for_update()``."""
    return _default().wait_for_update(timeout)


def harmony_end() -> None:
    """Figure 5: ``harmony_end()``."""
    _default().end()
