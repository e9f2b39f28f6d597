"""SLO threshold checks over the runtime health histograms.

The histograms (lock wait/hold, scheduler batch latency and backlog,
event-loop lag, write-queue depth, WAL append latency) describe the
server's invisible hot paths; this module turns them into a verdict.
Each :class:`SloCheck` names a histogram, a quantile, and a ceiling;
:func:`evaluate_health` runs the checks against histogram *snapshots*
(the JSON-safe dicts from :meth:`Histogram.snapshot` — exactly what the
STATUS wire message carries), so a monitoring client can score a remote
server without extra round trips.

The default thresholds are deliberately generous — they are smoke
alarms for "the pipeline wedged", not latency targets; the benchmark
harness owns the performance bar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.metrics.histogram import quantile_from_snapshot

__all__ = ["SloCheck", "HealthResult", "DEFAULT_SLOS",
           "evaluate_health", "format_health"]


@dataclass(frozen=True)
class SloCheck:
    """One threshold: ``quantile`` of ``histogram`` must stay <= ceiling."""

    name: str               # human label, e.g. "controller lock wait p99"
    histogram: str          # dotted histogram name
    quantile: float         # 0..1
    ceiling: float          # max acceptable value at that quantile
    unit: str = "s"

    def describe(self) -> str:
        return (f"{self.name}: p{int(self.quantile * 100)}"
                f"({self.histogram}) <= {self.ceiling:g}{self.unit}")


@dataclass(frozen=True)
class HealthResult:
    """Outcome of one check: ``ok`` / ``breach`` / ``no-data``.

    A histogram with no observations passes (``no-data``): an idle
    server is healthy, and samplers for the other front end simply
    never ran.
    """

    check: SloCheck
    observed: float | None
    status: str

    @property
    def breached(self) -> bool:
        return self.status == "breach"


#: Generous smoke-alarm ceilings for the always-on samplers.
DEFAULT_SLOS: tuple[SloCheck, ...] = (
    SloCheck("controller lock wait p99", "lock.controller.wait_seconds",
             0.99, 0.5),
    SloCheck("flush lock wait p99", "lock.flush.wait_seconds", 0.99, 0.5),
    SloCheck("sessions lock wait p99", "lock.sessions.wait_seconds",
             0.99, 0.5),
    SloCheck("scheduler batch latency p99", "scheduler.batch_seconds",
             0.99, 5.0),
    SloCheck("scheduler backlog p99", "scheduler.batch_backlog",
             0.99, 512.0, unit=""),
    SloCheck("event-loop lag p99", "server.async.loop_lag_seconds",
             0.99, 0.5),
    SloCheck("write-queue depth p99", "server.async.write_queue_depth",
             0.99, 512.0, unit=""),
    SloCheck("WAL append latency p99", "controller.wal.append_seconds",
             0.99, 0.5),
    # Replication lag is measured in *records* the slowest standby is
    # behind at ship time (see docs/replication.md): a standby that is
    # persistently hundreds of records back cannot be promoted without
    # losing acknowledged work to the catch-up window.
    SloCheck("replication lag p99", "replication.lag_records",
             0.99, 256.0, unit=""),
)


def evaluate_health(histograms: Mapping[str, Mapping[str, Any]],
                    ) -> list[HealthResult]:
    """Score histogram snapshots against :data:`DEFAULT_SLOS`.

    ``histograms`` maps dotted names to :meth:`Histogram.snapshot`
    dicts — build it with ``{name: hist.snapshot() for name, hist in
    metrics.histograms()}`` locally, or take ``status["histograms"]``
    straight off a STATUS reply.
    """
    results: list[HealthResult] = []
    for check in DEFAULT_SLOS:
        snapshot = histograms.get(check.histogram)
        observed = (quantile_from_snapshot(snapshot, check.quantile)
                    if snapshot else None)
        if observed is None:
            status = "no-data"
        elif observed <= check.ceiling:
            status = "ok"
        else:
            status = "breach"
        results.append(HealthResult(check=check, observed=observed,
                                    status=status))
    return results


def format_health(results: Iterable[HealthResult]) -> str:
    """A fixed-width report table, one line per check."""
    lines = [f"{'check':<34} {'observed':>12} {'ceiling':>12} status",
             "-" * 72]
    for result in results:
        check = result.check
        observed = ("-" if result.observed is None
                    else f"{result.observed:.6g}{check.unit}")
        lines.append(f"{check.name:<34} {observed:>12} "
                     f"{check.ceiling:>11g}{check.unit or ' '} "
                     f"{result.status}")
    return "\n".join(lines)
