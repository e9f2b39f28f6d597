"""Observability: traces, telemetry, histograms, flight recorder, exporters.

Five layers (see docs/observability.md):

* ``trace``      — span timing, wire-propagated trace contexts, and
                   per-reconfiguration decision traces;
* ``instrument`` — instrumented locks over the metric interface;
* ``flightrec``  — the bounded ring of recent runtime events, dumped
                   to JSONL on demand / error / chaos failure;
* ``health``     — SLO threshold checks over the runtime histograms;
* ``export``     — Prometheus text / JSON snapshot / JSONL dumps.
"""

from repro.obs.export import (decision_traces_to_jsonl, json_snapshot,
                              prometheus_text, sanitize_metric_name,
                              spans_to_jsonl)
from repro.obs.flightrec import (EVENT_BACKPRESSURE, EVENT_BATCH,
                                 EVENT_FAULT, EVENT_PUSH,
                                 EVENT_RPC_IN, EVENT_RPC_OUT,
                                 EVENT_SERVER_ERROR, EVENT_WAL_APPEND,
                                 FlightRecorder)
from repro.obs.health import (DEFAULT_SLOS, HealthResult, SloCheck,
                              evaluate_health, format_health)
from repro.obs.instrument import InstrumentedRLock
from repro.obs.trace import (NULL_TRACER, REJECT_INFEASIBLE,
                             REJECT_RULE_NOT_SELECTED,
                             REJECT_WORSE_OBJECTIVE, CandidateTrace,
                             DecisionTrace, DecisionTraceLog, NullTracer,
                             Span, TraceContext, Tracer)

__all__ = [
    "Tracer", "Span", "NullTracer", "NULL_TRACER", "TraceContext",
    "CandidateTrace", "DecisionTrace", "DecisionTraceLog",
    "REJECT_WORSE_OBJECTIVE", "REJECT_RULE_NOT_SELECTED",
    "REJECT_INFEASIBLE",
    "InstrumentedRLock",
    "FlightRecorder",
    "EVENT_RPC_IN", "EVENT_RPC_OUT", "EVENT_FAULT",
    "EVENT_BATCH",
    "EVENT_WAL_APPEND", "EVENT_BACKPRESSURE", "EVENT_PUSH",
    "EVENT_SERVER_ERROR",
    "SloCheck", "HealthResult", "DEFAULT_SLOS", "evaluate_health",
    "format_health",
    "prometheus_text", "json_snapshot", "sanitize_metric_name",
    "decision_traces_to_jsonl", "spans_to_jsonl",
]
