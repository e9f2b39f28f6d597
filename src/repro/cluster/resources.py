"""Shared-resource models for the simulated cluster.

The central model is :class:`FairShareServer`: a capacity that is divided
equally among all active jobs — *processor sharing*.  It models both CPUs
(capacity = node speed relative to the reference machine, demand = seconds
of reference-machine computation) and network links (capacity = bandwidth in
MB/s, demand = megabytes).  Processor sharing is what produces the paper's
Figure 7 behaviour: with two clients query-shipping against one server, each
query takes roughly twice as long.

Also provided: :class:`SlotResource` (bounded concurrency with FIFO
queueing) and :class:`Store` (an unbounded FIFO item queue used by the
bag-of-tasks application).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

from repro.cluster.kernel import Event, Kernel
from repro.errors import SimulationError

__all__ = ["FairShareServer", "SlotResource", "Store"]

_EPSILON = 1e-9


@dataclass
class _Job:
    """One active job in a fair-share server."""

    job_id: int
    remaining: float
    completion: Event


class FairShareServer:
    """A resource whose capacity is equally shared by all active jobs.

    ``capacity`` is in demand-units per second.  Each active job receives a
    service rate of ``capacity / n`` where ``n`` is the number of active
    jobs; when jobs arrive or depart the rates of everyone else change, which
    the implementation handles by advancing all remaining demands lazily.

    The server also accumulates utilization statistics (busy seconds and
    job-seconds) for the metric interface.
    """

    def __init__(self, kernel: Kernel, capacity: float, name: str = ""):
        if capacity <= 0:
            raise SimulationError(
                f"fair-share server {name!r} needs positive capacity, "
                f"got {capacity}")
        self.kernel = kernel
        self.name = name
        self._capacity = capacity
        self._jobs: dict[int, _Job] = {}
        self._ids = itertools.count()
        self._last_update = kernel.now
        self._timer_generation = 0
        # statistics
        self._busy_seconds = 0.0
        self._job_seconds = 0.0
        self._completed_jobs = 0

    # -- public API ----------------------------------------------------------

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def active_jobs(self) -> int:
        return len(self._jobs)

    @property
    def completed_jobs(self) -> int:
        return self._completed_jobs

    def submit(self, demand: float) -> Event:
        """Submit a job needing ``demand`` units; returns its completion event.

        The event's value is the job's sojourn time (seconds spent in the
        server), which response-time metrics consume directly.
        """
        if demand < 0:
            raise SimulationError(f"negative demand {demand}")
        completion = self.kernel.event()
        if demand <= _EPSILON:
            completion.succeed(0.0)
            return completion
        self._advance()
        job = _Job(job_id=next(self._ids), remaining=float(demand),
                   completion=completion)
        job.arrival_time = self.kernel.now  # type: ignore[attr-defined]
        self._jobs[job.job_id] = job
        self._reschedule()
        return completion

    def set_capacity(self, capacity: float) -> None:
        """Change the capacity (e.g. external load stealing cycles)."""
        if capacity <= 0:
            raise SimulationError(f"capacity must stay positive, got {capacity}")
        self._advance()
        self._capacity = capacity
        self._reschedule()

    def utilization(self, since_seconds: float | None = None) -> float:
        """Fraction of time busy since the start (approximate, cumulative)."""
        self._advance_statistics_only()
        elapsed = self.kernel.now
        if elapsed <= 0:
            return 1.0 if self._jobs else 0.0
        return min(1.0, self._busy_seconds / elapsed)

    def mean_load(self) -> float:
        """Time-averaged number of active jobs since the start."""
        self._advance_statistics_only()
        elapsed = self.kernel.now
        if elapsed <= 0:
            return float(len(self._jobs))
        return self._job_seconds / elapsed

    # -- internals -----------------------------------------------------------

    def _advance_statistics_only(self) -> None:
        # Statistics are folded in during _advance; calling it is safe even
        # with no membership change.
        self._advance()
        self._reschedule()

    def _advance(self) -> None:
        """Apply service accrued since the last update to all active jobs."""
        now = self.kernel.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._jobs:
            return
        n = len(self._jobs)
        self._busy_seconds += elapsed
        self._job_seconds += elapsed * n
        rate = self._capacity / n
        served = elapsed * rate
        finished: list[_Job] = []
        for job in self._jobs.values():
            job.remaining -= served
            if job.remaining <= _EPSILON:
                finished.append(job)
        for job in finished:
            del self._jobs[job.job_id]
            sojourn = now - job.arrival_time  # type: ignore[attr-defined]
            self._completed_jobs += 1
            job.completion.succeed(sojourn)

    def _reschedule(self) -> None:
        """Arrange a wakeup at the earliest projected completion."""
        self._timer_generation += 1
        if not self._jobs:
            return
        generation = self._timer_generation
        min_remaining = min(job.remaining for job in self._jobs.values())
        n = len(self._jobs)
        delay = max(0.0, min_remaining * n / self._capacity)
        timer = self.kernel.timeout(delay)
        timer.add_callback(lambda _ev: self._on_timer(generation))

    def _on_timer(self, generation: int) -> None:
        if generation != self._timer_generation:
            return  # superseded by a later arrival/departure
        self._advance()
        self._reschedule()


class SlotResource:
    """``capacity`` concurrent slots with FIFO queueing.

    ``request()`` returns an event that triggers when a slot is granted;
    callers must ``release()`` exactly once per granted request.
    """

    def __init__(self, kernel: Kernel, capacity: int, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"slot resource needs capacity >= 1")
        self.kernel = kernel
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: list[Event] = []

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> Event:
        event = self.kernel.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(
                f"release() on slot resource {self.name!r} with no slot held")
        if self._waiters:
            waiter = self._waiters.pop(0)
            waiter.succeed()
        else:
            self._in_use -= 1


class Store:
    """An unbounded FIFO queue of items with blocking ``get``."""

    def __init__(self, kernel: Kernel, name: str = ""):
        self.kernel = kernel
        self.name = name
        self._items: list[Any] = []
        self._getters: list[Event] = []

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            getter = self._getters.pop(0)
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that triggers with the next item (immediately if present)."""
        event = self.kernel.event()
        if self._items:
            event.succeed(self._items.pop(0))
        else:
            self._getters.append(event)
        return event
