"""Time-series storage for metric observations."""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterator

__all__ = ["Observation", "TimeSeries", "DEFAULT_MAX_OBSERVATIONS"]

#: Generous default retention per series: enough for a week of 10 s
#: collector samples, small enough that long-running servers don't leak.
DEFAULT_MAX_OBSERVATIONS = 65_536


@dataclass(frozen=True)
class Observation:
    """One timestamped metric sample."""

    time: float
    value: float


class TimeSeries:
    """An append-only series of observations ordered by time.

    Appends must be non-decreasing in time (the simulation clock is
    monotonic).  Queries are binary-search based, so windowed statistics stay
    cheap even for long runs.

    ``max_observations`` bounds retention: once the series holds that many
    samples, the oldest are dropped on append (``None`` keeps everything,
    for short experiment runs that post-process full histories).
    ``observations_dropped`` counts evictions so consumers can tell a
    short history from a trimmed one.
    """

    def __init__(self, name: str = "",
                 max_observations: int | None = None):
        if max_observations is not None and max_observations < 1:
            raise ValueError("max_observations must be positive or None, "
                             f"got {max_observations}")
        self.name = name
        self.max_observations = max_observations
        self.observations_dropped = 0
        self._times: list[float] = []
        self._values: list[float] = []
        #: Running sum of retained values, so the whole-series mean —
        #: recomputed by every telemetry snapshot over every series — is
        #: O(1) instead of O(observations).
        self._sum = 0.0

    def __len__(self) -> int:
        return len(self._times)

    def append(self, time: float, value: float) -> None:
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"time series {self.name!r}: non-monotonic append "
                f"({time} after {self._times[-1]})")
        self._times.append(time)
        self._values.append(float(value))
        self._sum += float(value)
        bound = self.max_observations
        if bound is not None and len(self._times) > bound:
            excess = len(self._times) - bound
            for evicted in self._values[:excess]:
                self._sum -= evicted
            del self._times[:excess]
            del self._values[:excess]
            self.observations_dropped += excess

    def latest(self) -> Observation | None:
        if not self._times:
            return None
        return Observation(self._times[-1], self._values[-1])

    def first(self) -> Observation | None:
        if not self._times:
            return None
        return Observation(self._times[0], self._values[0])

    def mean(self, start: float | None = None,
             end: float | None = None) -> float | None:
        """Arithmetic mean of values in the window (whole series default)."""
        if start is None and end is None:
            if not self._values:
                return None
            return self._sum / len(self._values)
        lo = 0 if start is None else bisect.bisect_left(self._times, start)
        hi = (len(self._times) if end is None
              else bisect.bisect_right(self._times, end))
        window = self._values[lo:hi]
        if not window:
            return None
        return sum(window) / len(window)

    def windowed_mean(self, now: float, window_seconds: float) -> float | None:
        """Mean over the trailing window ``[now - window, now]``."""
        return self.mean(now - window_seconds, now)

    def __iter__(self) -> Iterator[Observation]:
        return (Observation(t, v)
                for t, v in zip(self._times, self._values))
