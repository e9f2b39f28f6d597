"""The Harmony metric interface (paper Section 2).

"The metric interface provides a unified way to gather data about the
performance of applications and their execution environment.  Data about
system conditions and application resource requirements flow into the metric
interface, and on to both the adaptation controller and individual
applications."

:class:`MetricInterface` is that hub: producers call :meth:`report`,
consumers either query histories or subscribe for push notification.  Metric
names are dotted, conventionally ``<scope>.<entity>.<quantity>`` — e.g.
``app.DBclient.66.response_time`` or ``node.host3.cpu_utilization``.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Iterator

from repro.metrics.histogram import Histogram
from repro.metrics.history import (DEFAULT_MAX_OBSERVATIONS, Observation,
                                   TimeSeries)

__all__ = ["MetricInterface"]

Subscriber = Callable[[str, Observation], None]


class MetricInterface:
    """Central metric registry, history store, and pub/sub hub.

    Every series created through the interface is bounded by
    ``default_max_observations`` (``None`` disables retention); see
    :class:`~repro.metrics.history.TimeSeries`.
    """

    def __init__(self, default_max_observations: int | None
                 = DEFAULT_MAX_OBSERVATIONS) -> None:
        self.default_max_observations = default_max_observations
        self._series: dict[str, TimeSeries] = {}
        self._histograms: dict[str, Histogram] = {}
        self._subscribers: list[tuple[str, Subscriber]] = []
        # Concurrent sessions report through one interface once the API
        # server stops serializing every RPC behind a global lock; the
        # read-modify-write in increment() (and series creation) must be
        # atomic or bursts of counter bumps lose samples.  Subscribers
        # are invoked outside the lock — they may re-enter report().
        self._lock = threading.RLock()

    def _new_series(self, name: str) -> TimeSeries:
        return TimeSeries(name,
                          max_observations=self.default_max_observations)

    # -- producing ----------------------------------------------------------

    def report(self, name: str, time: float, value: float) -> None:
        """Record one observation and push it to matching subscribers."""
        with self._lock:
            series = self._series.get(name)
            if series is None:
                series = self._series[name] = self._new_series(name)
            series.append(time, value)
            subscribers = list(self._subscribers)
        observation = Observation(time, float(value))
        for prefix, subscriber in subscribers:
            if name == prefix or name.startswith(prefix + "."):
                subscriber(name, observation)

    def increment(self, name: str, time: float,
                  amount: float = 1.0) -> float:
        """Report a cumulative counter sample: latest value + ``amount``.

        Counters are stored as ordinary series whose samples carry the
        running total (Prometheus counter semantics), so rates fall out of
        windowed differences.  Returns the new total.  Atomic: concurrent
        increments never lose a bump.
        """
        with self._lock:
            latest = self.latest(name)
            total = (0.0 if latest is None else latest) + amount
            self.report(name, time, total)
        return total

    def histogram(self, name: str,
                  bounds: Iterable[float] | None = None) -> Histogram:
        """The distribution registered under ``name`` (created on first use).

        Histograms live beside the time series under the same dotted
        namespace but hold bucketed distributions instead of sample
        histories — the always-on health samplers (lock wait/hold,
        scheduler batch latency, WAL fsync, event-loop lag) feed these.
        ``bounds`` only applies on creation; callers cache the returned
        object, so the per-observation path never re-enters this lock.
        """
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram(name, bounds)
            return hist

    def histograms(self, prefix: str | None = None,
                   ) -> list[tuple[str, Histogram]]:
        """Registered histograms, optionally filtered by dotted prefix."""
        with self._lock:
            names = sorted(name for name in self._histograms
                           if prefix is None or name == prefix
                           or name.startswith(prefix + "."))
            return [(name, self._histograms[name]) for name in names]

    # -- consuming ----------------------------------------------------------

    def series(self, name: str) -> TimeSeries:
        """The history for ``name`` (an empty series if never reported)."""
        with self._lock:
            if name not in self._series:
                self._series[name] = self._new_series(name)
            return self._series[name]

    def latest(self, name: str) -> float | None:
        obs = self.series(name).latest()
        return obs.value if obs else None

    def windowed_mean(self, name: str, now: float,
                      window_seconds: float) -> float | None:
        return self.series(name).windowed_mean(now, window_seconds)

    def names(self, prefix: str | None = None) -> list[str]:
        """Registered metric names, optionally filtered by dotted prefix."""
        with self._lock:
            if prefix is None:
                return sorted(self._series)
            return sorted(name for name in self._series
                          if name == prefix
                          or name.startswith(prefix + "."))

    def forget(self, prefix: str) -> None:
        """Drop every series under ``prefix`` (a departed app's, say)."""
        with self._lock:
            for name in self.names(prefix):
                del self._series[name]

    def subscribe(self, prefix: str, subscriber: Subscriber,
                  ) -> Callable[[], None]:
        """Push every future observation under ``prefix`` to ``subscriber``.

        Returns an unsubscribe function.
        """
        entry = (prefix, subscriber)
        self._subscribers.append(entry)

        def unsubscribe() -> None:
            if entry in self._subscribers:
                self._subscribers.remove(entry)

        return unsubscribe

    def walk(self, prefix: str | None = None,
             ) -> Iterator[tuple[str, TimeSeries]]:
        for name in self.names(prefix):
            yield name, self._series[name]
