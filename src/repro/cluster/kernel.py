"""Discrete-event simulation kernel.

The paper's experiments ran on an IBM SP-2; this reproduction runs them on a
simulated cluster driven by the process-based discrete-event kernel in this
module.  Processes are Python generators that ``yield`` waitable
:class:`Event` objects; the kernel resumes a process when the event it waits
on triggers, sending the event's value back into the generator.

The design mirrors the classic SimPy core but is self-contained:

* :class:`Event` — one-shot waitable with success value or failure exception;
* :class:`Timeout` — triggers after a simulated delay;
* :class:`Process` — wraps a generator; itself an event that triggers when
  the generator returns (value = the ``return`` value);
* :class:`AllOf` — waits for every one of several events;
* :class:`Kernel` — the event loop with a monotonic simulated clock.

Processes may be interrupted (:meth:`Process.interrupt`), which raises
:class:`Interrupted` inside the generator at its current wait point — the
mechanism harmonized applications use to notice reconfiguration requests
between phases.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable

from repro.errors import SimulationError

__all__ = ["Kernel", "Event", "Timeout", "Process", "AllOf", "Interrupted"]


class Interrupted(Exception):
    """Raised inside a process when another process interrupts it."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait for.

    Events move through three states: pending -> triggered -> processed.
    ``succeed(value)`` or ``fail(exc)`` triggers the event; its callbacks run
    when the kernel processes it (immediately scheduled at the current time).
    """

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = None
        self._exception: BaseException | None = None
        self._triggered = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> BaseException | None:
        return self._exception

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._value = value
        self.kernel._enqueue(self, delay=0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure; waiters see the exception."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._exception = exception
        self.kernel._enqueue(self, delay=0.0)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run at the current time.
            callback(self)
        else:
            self.callbacks.append(callback)


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds in the future.

    The value is fixed at creation but the event only *triggers* when the
    kernel reaches its scheduled time — an :class:`AllOf` must not see a
    future timeout as already settled.
    """

    def __init__(self, kernel: "Kernel", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        super().__init__(kernel)
        self._value = value
        self.delay = delay
        kernel._enqueue(self, delay=delay)


class Process(Event):
    """A running process; also an event that triggers when it finishes."""

    def __init__(self, kernel: "Kernel",
                 generator: Generator[Event, Any, Any], name: str = ""):
        super().__init__(kernel)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._waiting_on: Event | None = None
        self._interrupts: list[Interrupted] = []
        # Bootstrap: resume once at the current time.
        bootstrap = Event(kernel)
        bootstrap.add_callback(self._resume)
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupted` inside the process at its wait point."""
        if not self.is_alive:
            return
        self._interrupts.append(Interrupted(cause))
        waiting = self._waiting_on
        if waiting is not None:
            self._waiting_on = None
            if waiting.callbacks is not None and self._resume in waiting.callbacks:
                waiting.callbacks.remove(self._resume)
            # Deliver promptly via an immediate event.
            wakeup = Event(self.kernel)
            wakeup.add_callback(self._resume)
            wakeup.succeed()

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        while True:
            try:
                if self._interrupts:
                    interrupt = self._interrupts.pop(0)
                    target = self._generator.throw(interrupt)
                elif event is not None and event.exception is not None:
                    target = self._generator.throw(event.exception)
                else:
                    value = event.value if event is not None else None
                    target = self._generator.send(value)
            except StopIteration as stop:
                if not self._triggered:
                    self.succeed(stop.value)
                return
            except Interrupted as exc:
                # The process chose not to handle its interruption.
                if not self._triggered:
                    self.fail(exc)
                return
            except Exception as exc:
                if not self._triggered:
                    self.fail(exc)
                return

            if not isinstance(target, Event):
                self._generator.throw(SimulationError(
                    f"process {self.name!r} yielded non-event "
                    f"{target!r}"))
                continue
            if self._interrupts:
                # An interrupt arrived while the process was executing;
                # deliver it instead of waiting.
                event = None
                continue
            if target.processed:
                # Event already fully settled: continue immediately with its
                # outcome rather than waiting.
                event = target
                continue
            self._waiting_on = target
            target.add_callback(self._resume)
            return


class AllOf(Event):
    """Triggers when every child has settled; value is the list of values.

    A failing child fails the condition.
    """

    def __init__(self, kernel: "Kernel", events: Iterable[Event]):
        super().__init__(kernel)
        self.events = list(events)
        for event in self.events:
            if not event.processed:
                event.add_callback(self._on_child)
        self._evaluate()

    def _on_child(self, event: Event) -> None:
        if not self._triggered:
            self._evaluate()

    def _evaluate(self) -> None:
        if all(event.triggered for event in self.events):
            for event in self.events:
                if event.exception is not None:
                    self.fail(event.exception)
                    return
            self.succeed([event._value for event in self.events])


class Kernel:
    """The event loop: a priority queue of (time, sequence, event)."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._sequence = itertools.count()

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event factories ----------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def spawn(self, generator: Generator[Event, Any, Any],
              name: str = "") -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------------

    def _enqueue(self, event: Event, delay: float) -> None:
        heapq.heappush(self._queue,
                       (self._now + delay, next(self._sequence), event))

    def step(self) -> None:
        """Process the single next event."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        time, _, event = heapq.heappop(self._queue)
        if time < self._now:
            raise SimulationError("event scheduled in the past")
        self._now = time
        event._triggered = True  # idempotent for already-succeeded events
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks or ():
            callback(event)
        if (event.exception is not None and not callbacks
                and not isinstance(event, Process)):
            # A failed event nobody waited on: surface the error rather
            # than losing it silently.
            raise event.exception

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        * ``until=None`` — run to quiescence;
        * ``until=<float>`` — advance the clock to exactly that time;
        * ``until=<Event>`` — run until that event is processed and return
          its value.
        """
        if isinstance(until, Event):
            sentinel = until
            while not sentinel.processed:
                if not self._queue:
                    raise SimulationError(
                        "simulation ran out of events before the awaited "
                        "event triggered (deadlock?)")
                self.step()
            return sentinel.value

        deadline = float(until) if until is not None else None
        while self._queue:
            next_time = self._queue[0][0]
            if deadline is not None and next_time > deadline:
                break
            self.step()
        if deadline is not None and self._now < deadline:
            self._now = deadline
        return None

    def advance_to(self, time: float) -> None:
        """Jump the clock forward to ``time`` without running events.

        Used by durability-log replay, which must re-apply each recorded
        decision at its original timestamp: the clock is advanced to the
        record's time and the decision re-executed against it.  Going
        backwards is an error; an advance past pending events would
        reorder history, so that is rejected too.
        """
        if time < self._now:
            raise SimulationError(
                f"advance_to({time}) would move time backwards "
                f"(now={self._now})")
        if self._queue and self._queue[0][0] < time:
            raise SimulationError(
                f"advance_to({time}) would skip over a pending event at "
                f"t={self._queue[0][0]}")
        self._now = time
