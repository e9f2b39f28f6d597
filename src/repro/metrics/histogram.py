"""Log-bucketed histograms for runtime health distributions.

Counters answer "how many"; the benchmark harness answers "how fast
per op".  Neither shows the *shape* of a hot path — the p99 lock wait
behind a burst of admissions, the tail of WAL fsync latency, the
scheduler backlog spikes that a mean hides entirely.  :class:`Histogram`
records those distributions with Prometheus-compatible cumulative
buckets (``le`` upper bounds) at a cost low enough to stay always-on:
one bisect, one lock, three adds per observation.

Bucket bounds default to powers of two spanning 1 µs to ~16.8 s — the
classic log-bucketed layout, so one layout covers both a 10 µs lock
hold and a 2 s batch sweep with constant relative error.  Depth-like
quantities (queue lengths, backlog sizes) use :data:`COUNT_BOUNDS`.

Snapshots are plain JSON-safe dicts so they travel through the STATUS
wire message unchanged, and :func:`quantile_from_snapshot` lets a
monitoring client compute percentiles from the wire payload without
importing anything else.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Iterable, Mapping

__all__ = ["Histogram", "SECONDS_BOUNDS", "COUNT_BOUNDS",
           "quantile_from_snapshot"]

#: Default latency layout: 1 µs · 2^k for k in 0..24 (1 µs .. ~16.8 s).
SECONDS_BOUNDS: tuple[float, ...] = tuple(1e-6 * 2 ** k for k in range(25))

#: Depth/size layout: powers of two from 1 to 65,536.
COUNT_BOUNDS: tuple[float, ...] = tuple(float(2 ** k) for k in range(17))


class Histogram:
    """A fixed-bucket histogram with Prometheus ``le`` semantics.

    ``bounds`` are *upper* bucket bounds (inclusive, sorted ascending);
    an implicit ``+Inf`` overflow bucket catches everything above the
    last bound.  Thread-safe: ``observe`` takes a plain lock — the
    critical section is four integer/float updates, far cheaper than
    the lock traffic it measures.

    >>> hist = Histogram("demo", bounds=(0.001, 0.01, 0.1))
    >>> for value in (0.0005, 0.002, 0.002, 0.05, 2.0):
    ...     hist.observe(value)
    >>> hist.count, round(hist.sum, 4)
    (5, 2.0545)
    >>> snap = hist.snapshot()
    >>> snap["counts"]          # cumulative, one per bound plus +Inf
    [1, 3, 4, 5]
    >>> round(quantile_from_snapshot(snap, 0.5), 5)
    0.00775
    """

    __slots__ = ("name", "bounds", "_counts", "sum", "count",
                 "min", "max", "_lock")

    def __init__(self, name: str,
                 bounds: Iterable[float] | None = None) -> None:
        chosen = tuple(float(b) for b in (bounds if bounds is not None
                                          else SECONDS_BOUNDS))
        if not chosen:
            raise ValueError("histogram needs at least one bucket bound")
        if any(not math.isfinite(b) for b in chosen):
            raise ValueError("bucket bounds must be finite")
        if list(chosen) != sorted(set(chosen)):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.bounds = chosen
        self._counts = [0] * (len(chosen) + 1)   # last slot: +Inf overflow
        self.sum = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation (``le``: first bound >= value)."""
        value = float(value)
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self.sum += value
            self.count += 1
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def snapshot(self) -> dict[str, Any]:
        """A JSON-safe point-in-time view with *cumulative* counts.

        ``counts[i]`` is the number of observations <= ``bounds[i]``;
        the final entry (the ``+Inf`` bucket) always equals ``count``.
        """
        with self._lock:
            per_bucket = list(self._counts)
            total = self.count
            total_sum = self.sum
            low = self.min
            high = self.max
        cumulative: list[int] = []
        running = 0
        for bucket in per_bucket:
            running += bucket
            cumulative.append(running)
        return {"bounds": list(self.bounds),
                "counts": cumulative,
                "count": total,
                "sum": total_sum,
                "min": low if total else None,
                "max": high if total else None}

    def quantile(self, q: float) -> float | None:
        """Estimated ``q``-quantile (0..1); ``None`` when empty."""
        return quantile_from_snapshot(self.snapshot(), q)

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Histogram({self.name!r}, count={self.count}, "
                f"sum={self.sum:.6g})")


def quantile_from_snapshot(snapshot: Mapping[str, Any],
                           q: float) -> float | None:
    """Estimate a quantile from a :meth:`Histogram.snapshot` dict.

    Linear interpolation inside the containing bucket (the standard
    Prometheus ``histogram_quantile`` estimate); observations in the
    overflow bucket report the recorded maximum.  Works on snapshots
    that traveled through JSON (e.g. the STATUS wire message).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be within [0, 1], got {q}")
    total = int(snapshot.get("count") or 0)
    if total == 0:
        return None
    bounds = snapshot["bounds"]
    counts = snapshot["counts"]
    rank = q * total
    for index, cumulative in enumerate(counts):
        if cumulative >= rank:
            if index >= len(bounds):          # overflow bucket
                high = snapshot.get("max")
                return float(high) if high is not None else bounds[-1]
            lower = bounds[index - 1] if index else 0.0
            upper = bounds[index]
            previous = counts[index - 1] if index else 0
            in_bucket = cumulative - previous
            if in_bucket <= 0:
                return upper
            fraction = (rank - previous) / in_bucket
            return lower + (upper - lower) * min(1.0, max(0.0, fraction))
    high = snapshot.get("max")
    return float(high) if high is not None else bounds[-1]
