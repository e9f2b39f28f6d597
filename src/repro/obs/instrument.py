"""Instrumentation over the existing metric interface.

:class:`InstrumentedRLock` publishes per-lock wait/hold histograms, and
:func:`publish_fault_stats` reports a fault-injection tally as metrics.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.faults import FaultStats
    from repro.metrics.interface import MetricInterface

__all__ = ["InstrumentedRLock", "publish_fault_stats"]


class InstrumentedRLock:
    """A re-entrant lock publishing wait/hold histograms per named lock.

    Lock contention is the invisible hot path of the three-lock server
    pipeline: an admission burst shows up nowhere except as time spent
    in ``acquire``.  This wrapper records, for the *outermost*
    acquisition only (re-entrant hops are free), how long each thread
    waited for the lock and how long it then held it, into
    ``lock.<name>.wait_seconds`` / ``lock.<name>.hold_seconds``.

    Cost per outermost acquire/release: two ``perf_counter`` calls and
    two histogram observes on top of the RLock itself.
    """

    def __init__(self, name: str, metrics: "MetricInterface"):
        self.name = name
        self._lock = threading.RLock()
        self._local = threading.local()
        self.wait_histogram = metrics.histogram(
            f"lock.{name}.wait_seconds")
        self.hold_histogram = metrics.histogram(
            f"lock.{name}.hold_seconds")

    def acquire(self, blocking: bool = True,
                timeout: float = -1) -> bool:
        depth = getattr(self._local, "depth", 0)
        if depth:
            acquired = self._lock.acquire(blocking, timeout)
            if acquired:
                self._local.depth = depth + 1
            return acquired
        start = time.perf_counter()
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            now = time.perf_counter()
            self.wait_histogram.observe(now - start)
            self._local.depth = 1
            self._local.acquired_at = now
        return acquired

    def release(self) -> None:
        depth = getattr(self._local, "depth", 0)
        if depth == 1:
            held = time.perf_counter() - self._local.acquired_at
            self._local.depth = 0
            self._lock.release()
            self.hold_histogram.observe(held)
        else:
            self._local.depth = depth - 1
            self._lock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InstrumentedRLock({self.name!r})"


def publish_fault_stats(stats: "FaultStats", metrics: "MetricInterface",
                        time: float = 0.0,
                        prefix: str = "faults.transport") -> None:
    """Report a fault-injection tally as ``<prefix>.*`` metrics.

    Chaos tests assert drop/delay/duplicate counts through the same
    telemetry path as production counters; see
    :meth:`repro.api.faults.FaultStats.publish`.
    """
    for kind, value in stats.snapshot().items():
        metrics.report(f"{prefix}.{kind}", time, float(value))
    for fault_type, count in sorted(stats.by_type.items()):
        metrics.report(f"{prefix}.by_type.{fault_type}", time, float(count))
