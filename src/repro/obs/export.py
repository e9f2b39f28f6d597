"""Export surfaces for the metric interface and decision traces.

Two snapshot formats over :class:`~repro.metrics.interface.MetricInterface`:

* :func:`prometheus_text` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` / sample lines).  Dotted Harmony metric names
  are sanitized into the legal Prometheus alphabet; when several dotted
  names collapse onto one sanitized name, each sample is disambiguated
  with a ``series="<original>"`` label so the exposition never emits
  duplicate samples.

* :func:`json_snapshot` — a ``json``-serializable summary (latest value,
  timestamps, count, mean per series) for the ``STATUS`` wire message and
  ``repro metrics --format json``.

Plus JSONL writers for decision traces and spans (one object per line),
used by ``repro trace --jsonl`` and the CI artifact upload.
"""

from __future__ import annotations

import json
import math
import re
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics.interface import MetricInterface
    from repro.obs.trace import DecisionTrace, Span

__all__ = ["sanitize_metric_name", "prometheus_text", "json_snapshot",
           "decision_traces_to_jsonl", "spans_to_jsonl"]

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def sanitize_metric_name(name: str) -> str:
    """Map a dotted Harmony metric name into the Prometheus alphabet.

    Prometheus metric names must match ``[a-zA-Z_:][a-zA-Z0-9_:]*``; every
    illegal character becomes ``_`` and a leading digit gains a ``_``
    prefix.  The mapping is lossy — callers that need uniqueness keep the
    original name in a label (see :func:`prometheus_text`).
    """
    sanitized = _INVALID_CHARS.sub("_", name)
    if not sanitized:
        return "_"
    if sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _escape_label_value(value: str) -> str:
    return "".join(_LABEL_ESCAPES.get(char, char) for char in value)


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def prometheus_text(metrics: "MetricInterface",
                    prefix: str | None = None) -> str:
    """Latest sample of every series, plus full histogram exposition.

    Histograms render as the standard Prometheus triplet —
    ``<name>_bucket{le="..."}`` (cumulative, ending in ``le="+Inf"``),
    ``<name>_sum``, ``<name>_count`` — so rate and quantile queries
    work out of the box.  When a dotted name carries *both* a gauge
    series and a histogram, the histogram wins the exposition: emitting the same base name with two
    TYPEs would be invalid, and ``_sum``/``_count`` carry strictly more
    information than the last point-in-time value.
    """
    histograms = list(metrics.histograms(prefix))
    histogram_names = {name for name, _ in histograms}
    groups: dict[str, list[str]] = {}
    for name in metrics.names(prefix):
        if name in histogram_names:
            continue
        groups.setdefault(sanitize_metric_name(name), []).append(name)

    lines: list[str] = []
    for sanitized in sorted(groups):
        originals = groups[sanitized]
        lines.append(f"# HELP {sanitized} Harmony metric "
                     f"{_escape_label_value(originals[0])}")
        lines.append(f"# TYPE {sanitized} gauge")
        for original in originals:
            latest = metrics.series(original).latest()
            if latest is None:
                continue
            if len(originals) > 1:
                label = f'{{series="{_escape_label_value(original)}"}}'
            else:
                label = ""
            lines.append(f"{sanitized}{label} "
                         f"{_format_value(latest.value)}")

    for name, histogram in histograms:
        base = sanitize_metric_name(name)
        while base in groups:
            # A *different* dotted gauge name sanitized onto this base;
            # dodge the TYPE collision rather than emit invalid text.
            base += "_hist"
        snapshot = histogram.snapshot()
        lines.append(f"# HELP {base} Harmony histogram "
                     f"{_escape_label_value(name)}")
        lines.append(f"# TYPE {base} histogram")
        for bound, cumulative in zip(snapshot["bounds"],
                                     snapshot["counts"]):
            lines.append(f'{base}_bucket{{le="{_format_value(bound)}"}} '
                         f"{cumulative}")
        lines.append(f'{base}_bucket{{le="+Inf"}} {snapshot["count"]}')
        lines.append(f"{base}_sum {_format_value(snapshot['sum'])}")
        lines.append(f"{base}_count {snapshot['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def json_snapshot(metrics: "MetricInterface",
                  prefix: str | None = None) -> dict[str, Any]:
    """A JSON-serializable summary of every series under ``prefix``."""
    summary: dict[str, Any] = {}
    for name, series in metrics.walk(prefix):
        latest = series.latest()
        first = series.first()
        if latest is None:
            continue
        mean = series.mean()
        summary[name] = {
            "latest": _json_number(latest.value),
            "latest_time": latest.time,
            "first_time": first.time if first else None,
            "count": len(series),
            "mean": _json_number(mean) if mean is not None else None,
        }
    histograms = {name: histogram.snapshot()
                  for name, histogram in metrics.histograms(prefix)}
    return {"metrics": summary, "histograms": histograms}


def _json_number(value: float) -> float | None:
    """Strict-JSON float: non-finite values become None."""
    return value if math.isfinite(value) else None


def decision_traces_to_jsonl(traces: Iterable["DecisionTrace"]) -> str:
    """One JSON object per decision trace, newline-delimited."""
    return "".join(json.dumps(trace.to_dict(), sort_keys=True) + "\n"
                   for trace in traces)


def spans_to_jsonl(spans: Iterable["Span"]) -> str:
    """One JSON object per finished span, newline-delimited."""
    return "".join(json.dumps(span.to_dict(), sort_keys=True) + "\n"
                   for span in spans)
