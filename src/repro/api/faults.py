"""Deterministic fault injection for transports (the chaos harness).

:class:`FaultyTransport` wraps any :class:`~repro.api.transport.Transport`
and perturbs the message stream according to a :class:`FaultSchedule`:
messages can be **dropped**, **delayed** (held until
:meth:`FaultyTransport.release_delayed`), **duplicated**, or the link can
be **severed** outright (simulating a client crash or a cut cable).

Schedules are deterministic: :class:`SeededFaultSchedule` draws from a
seeded PRNG, so a chaos run replays identically for the same seed;
:class:`ScriptedFaultSchedule` spells out the action for specific message
indices.  Neither uses wall-clock time — delayed messages are released
explicitly, which keeps chaos tests single-threaded and reproducible.

The wrapper is symmetric: faults apply to outbound sends and, if the
schedule says so, to inbound deliveries, so either side of a connection
can be made lossy independently.

The wrapper is also thread-safe: over a real :class:`TcpTransport` (and
against the asyncio server front end) outbound sends run on the
application's threads while inbound deliveries arrive on the reader
thread, so the delay queue, the stats tally, and the sever transition are
guarded by a lock — a chaos schedule produces the same decisions whether
the link is in-process or a real socket.
"""

from __future__ import annotations

import enum
import random
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.api.transport import Transport
from repro.errors import TransportError
from repro.obs.flightrec import EVENT_FAULT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics.interface import MetricInterface
    from repro.obs.flightrec import FlightRecorder

__all__ = ["FaultAction", "FaultSchedule", "SeededFaultSchedule",
           "ScriptedFaultSchedule", "FaultStats", "FaultyTransport"]


class FaultAction(enum.Enum):
    """What the schedule tells the transport to do with one message."""

    DELIVER = "deliver"
    DROP = "drop"
    DELAY = "delay"
    DUPLICATE = "duplicate"
    SEVER = "sever"


class FaultSchedule:
    """Strategy interface: one decision per message that passes through.

    ``direction`` is ``"send"`` (outbound through the wrapper) or
    ``"recv"`` (inbound from the inner transport).
    """

    def decide(self, direction: str,
               message: dict[str, Any]) -> FaultAction:
        raise NotImplementedError


class SeededFaultSchedule(FaultSchedule):
    """Probabilistic faults from a seeded PRNG — reproducible run-to-run.

    Rates are per-message probabilities, tested in the order drop, delay,
    duplicate; their sum must not exceed 1.  ``sever_after`` kills the
    link once that many messages (in either direction) have been decided.
    ``directions`` restricts which sides are perturbed (default: both).
    """

    def __init__(self, seed: int, drop_rate: float = 0.0,
                 delay_rate: float = 0.0, duplicate_rate: float = 0.0,
                 sever_after: int | None = None,
                 directions: frozenset[str] = frozenset({"send", "recv"})):
        if drop_rate + delay_rate + duplicate_rate > 1.0:
            raise ValueError("fault rates must sum to at most 1")
        self.seed = seed
        self.drop_rate = drop_rate
        self.delay_rate = delay_rate
        self.duplicate_rate = duplicate_rate
        self.sever_after = sever_after
        self.directions = directions
        self._rng = random.Random(seed)
        self._decisions = 0

    def decide(self, direction: str,
               message: dict[str, Any]) -> FaultAction:
        if direction not in self.directions:
            return FaultAction.DELIVER
        self._decisions += 1
        if self.sever_after is not None \
                and self._decisions > self.sever_after:
            return FaultAction.SEVER
        # Always draw, so the random stream advances identically whatever
        # the rates — seeds stay comparable across configurations.
        draw = self._rng.random()
        if draw < self.drop_rate:
            return FaultAction.DROP
        if draw < self.drop_rate + self.delay_rate:
            return FaultAction.DELAY
        if draw < self.drop_rate + self.delay_rate + self.duplicate_rate:
            return FaultAction.DUPLICATE
        return FaultAction.DELIVER


class ScriptedFaultSchedule(FaultSchedule):
    """Explicit faults at given message indices (0-based, per direction).

    ``script`` maps ``(direction, index)`` to an action; everything else
    is delivered.  The most surgical tool for edge-case tests ("drop
    exactly the third update push").
    """

    def __init__(self, script: dict[tuple[str, int], FaultAction]):
        self.script = dict(script)
        self._counts = {"send": 0, "recv": 0}

    def decide(self, direction: str,
               message: dict[str, Any]) -> FaultAction:
        index = self._counts.get(direction, 0)
        self._counts[direction] = index + 1
        return self.script.get((direction, index), FaultAction.DELIVER)


@dataclass
class FaultStats:
    """What the wrapper actually did, for assertions and logs."""

    delivered: int = field(init=False, default=0)
    dropped: int = field(init=False, default=0)
    delayed: int = field(init=False, default=0)
    duplicated: int = field(init=False, default=0)
    severed: bool = field(init=False, default=False)
    by_type: dict[str, int] = field(init=False, default_factory=dict)

    def note(self, message: dict[str, Any]) -> None:
        name = str(message.get("type", "?"))
        self.by_type[name] = self.by_type.get(name, 0) + 1

    def snapshot(self) -> dict[str, float]:
        """The tally as plain numbers (``severed`` as 0/1)."""
        return {"delivered": float(self.delivered),
                "dropped": float(self.dropped),
                "delayed": float(self.delayed),
                "duplicated": float(self.duplicated),
                "severed": 1.0 if self.severed else 0.0}

    def publish(self, metrics: "MetricInterface", time: float = 0.0,
                prefix: str = "faults.transport") -> None:
        """Report the tally into a metric interface as ``<prefix>.*``.

        Chaos tests assert drop/delay/duplicate counts through the same
        telemetry path as production counters; a :class:`FaultyTransport`
        constructed with ``metrics=`` republishes after every fault
        decision.
        """
        from repro.obs.instrument import publish_fault_stats

        publish_fault_stats(self, metrics, time=time, prefix=prefix)


class FaultyTransport(Transport):
    """A transport wrapper that injects schedule-driven faults.

    Wrap the endpoint whose *link* should misbehave::

        client_end, server_end = connected_pair()
        lossy = FaultyTransport(client_end,
                                SeededFaultSchedule(seed=7, drop_rate=0.2))
        app = HarmonyClient(lossy, retry_policy=RetryPolicy.aggressive())

    Delayed messages accumulate (in order, per direction) until
    :meth:`release_delayed` hands them on.  :meth:`sever` closes both the
    wrapper and the inner transport; subsequent sends raise
    :class:`~repro.errors.TransportError`, and in-flight inbound messages
    are discarded — exactly what a crashed peer looks like.
    """

    def __init__(self, inner: Transport, schedule: FaultSchedule,
                 metrics: "MetricInterface | None" = None,
                 metric_prefix: str = "faults.transport",
                 recorder: "FlightRecorder | None" = None,
                 stats: FaultStats | None = None):
        self.inner = inner
        self.schedule = schedule
        #: ``stats`` may be an adopted tally (see :meth:`redial`): the
        #: healed replacement keeps counting into the same cumulative
        #: series instead of silently resetting them.
        self.stats = stats if stats is not None else FaultStats()
        #: Optional metric interface: the stats tally is republished under
        #: ``metric_prefix`` after every decision, timestamped by a
        #: monotonically increasing decision counter (chaos runs have no
        #: shared clock).
        self.metrics = metrics
        self.metric_prefix = metric_prefix
        #: Optional flight recorder: every injected fault leaves a
        #: ``fault_injected`` breadcrumb, so a chaos dump interleaves the
        #: injections with the server's reactions on one timeline.
        self.recorder = recorder
        self._decision_count = 0
        self._receiver: Callable[[dict[str, Any]], None] | None = None
        self._backlog: list[dict[str, Any]] = []
        self._delayed: list[tuple[str, dict[str, Any]]] = []
        #: Serializes schedule decisions, the delay queue, the stats
        #: tally, and sever: sends (app threads) and inbound deliveries
        #: (a TCP reader thread or the asyncio loop's dispatch workers)
        #: race on real links.
        self._mutex = threading.Lock()
        inner.set_receiver(self._on_inbound)

    def _publish_stats(self) -> None:
        if self.metrics is None:
            return
        self._decision_count += 1
        self.stats.publish(self.metrics, time=float(self._decision_count),
                           prefix=self.metric_prefix)

    def _note_fault(self, direction: str, action: FaultAction,
                    message: dict[str, Any]) -> None:
        if self.recorder is not None:
            self.recorder.record(EVENT_FAULT, direction=direction,
                                 action=action.value,
                                 rpc=str(message.get("type", "?")))

    @property
    def closed(self) -> bool:
        return self.stats.severed or self.inner.closed

    # -- outbound -----------------------------------------------------------

    def set_send_timeout(self, timeout: float | None) -> None:
        self.inner.set_send_timeout(timeout)

    def send(self, message: dict[str, Any]) -> None:
        with self._mutex:
            if self.closed:
                raise TransportError("send on severed transport")
            action = self.schedule.decide("send", message)
            if action is not FaultAction.DELIVER:
                self._note_fault("send", action, message)
            if action is FaultAction.SEVER:
                self._sever_locked()
            elif action is FaultAction.DROP:
                self.stats.dropped += 1
                self.stats.note(message)
                self._publish_stats()
                return
            elif action is FaultAction.DELAY:
                self.stats.delayed += 1
                self.stats.note(message)
                self._delayed.append(("send", message))
                self._publish_stats()
                return
            else:
                if action is FaultAction.DUPLICATE:
                    self.stats.duplicated += 1
                self.stats.delivered += 1
                self._publish_stats()
        # Deliveries happen outside the lock: an in-process peer handles
        # the message inline and its reply re-enters ``_on_inbound``.
        if action is FaultAction.SEVER:
            self.inner.close()
            raise TransportError("link severed by fault schedule")
        if action is FaultAction.DUPLICATE:
            self.inner.send(message)
        self.inner.send(message)

    # -- inbound ------------------------------------------------------------

    def _on_inbound(self, message: dict[str, Any]) -> None:
        with self._mutex:
            if self.stats.severed:
                return
            action = self.schedule.decide("recv", message)
            if action is not FaultAction.DELIVER:
                self._note_fault("recv", action, message)
            if action is FaultAction.SEVER:
                self._sever_locked()
            elif action is FaultAction.DROP:
                self.stats.dropped += 1
                self.stats.note(message)
                self._publish_stats()
                return
            elif action is FaultAction.DELAY:
                self.stats.delayed += 1
                self.stats.note(message)
                self._delayed.append(("recv", message))
                self._publish_stats()
                return
            else:
                if action is FaultAction.DUPLICATE:
                    self.stats.duplicated += 1
                self.stats.delivered += 1
                self._publish_stats()
        if action is FaultAction.SEVER:
            self.inner.close()
            return
        if action is FaultAction.DUPLICATE:
            self._deliver(message)
        self._deliver(message)

    def _deliver(self, message: dict[str, Any]) -> None:
        if self._receiver is None:
            self._backlog.append(message)
        else:
            self._receiver(message)

    def set_receiver(self,
                     receiver: Callable[[dict[str, Any]], None]) -> None:
        self._receiver = receiver
        backlog, self._backlog = self._backlog, []
        for message in backlog:
            receiver(message)

    # -- fault controls ------------------------------------------------------

    def release_delayed(self) -> int:
        """Deliver every held message in arrival order; returns the count.

        Messages held at sever time stay lost, like any in-flight frame.
        """
        with self._mutex:
            if self.stats.severed:
                self._delayed.clear()
                return 0
            held, self._delayed = self._delayed, []
        for direction, message in held:
            if direction == "send":
                self.inner.send(message)
            else:
                self._deliver(message)
        return len(held)

    def pending_delayed(self) -> int:
        with self._mutex:
            return len(self._delayed)

    def _sever_locked(self) -> None:
        """Mark the link dead (caller holds ``_mutex`` and closes inner)."""
        self.stats.severed = True
        self._delayed.clear()
        self._publish_stats()

    def sever(self) -> None:
        """Cut the link for good (simulates a crash mid-session)."""
        with self._mutex:
            if self.stats.severed:
                return
            self._sever_locked()
        self.inner.close()

    def close(self) -> None:
        """A *clean* close (not counted as a fault)."""
        self.inner.close()

    # -- reconnecting --------------------------------------------------------

    @property
    def can_redial(self) -> bool:
        """Whether the wrapped endpoint knows the address it dialed."""
        return bool(getattr(self.inner, "can_redial", False))

    def redial(self) -> "FaultyTransport":
        """A *healed* replacement connection to the same server.

        Composes with :class:`~repro.api.client.HarmonyClient`'s
        transparent reconnect: the fresh connection comes back wrapped in
        a new :class:`FaultyTransport` whose schedule never faults — a
        reconnect heals the link rather than inheriting the old schedule
        (a schedule with ``sever_after`` would otherwise kill the new
        link on its first frame) — but the wrapper *keeps* this one's
        stats tally, metric hook, and flight recorder, so the cumulative
        ``faults.transport.*`` series survive the heal instead of
        silently freezing at their pre-reconnect values.  Re-assign
        ``.schedule`` on the result to keep perturbing the replacement.
        """
        fresh = self.inner.redial()
        # The replacement link is alive: clear the sever marker before
        # the healed wrapper adopts the shared tally.
        self.stats.severed = False
        healed = FaultyTransport(fresh, ScriptedFaultSchedule({}),
                                 metrics=self.metrics,
                                 metric_prefix=self.metric_prefix,
                                 recorder=self.recorder,
                                 stats=self.stats)
        # Metric timestamps are the running decision count; the healed
        # wrapper continues the timeline (a reset would rewind the
        # published series, which time-series append rejects).
        healed._decision_count = self._decision_count
        return healed
