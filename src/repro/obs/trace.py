"""Decision tracing and span timing for the adaptation pipeline.

The paper's metric interface carries *measurements*; this module carries
*explanations*.  Two complementary record kinds:

* :class:`Span` / :class:`Tracer` — lightweight timing spans with
  monotonic clocks, attributes, and parent links, instrumented through
  the controller, optimizer, prediction engine, and allocation layers.
  The default is :data:`NULL_TRACER`, whose spans are a shared no-op
  object, so instrumented call sites cost one method call when tracing
  is disabled, and an untraced admission builds no span.

* :class:`DecisionTrace` / :class:`DecisionTraceLog` — one structured
  record per applied reconfiguration, listing **every candidate
  evaluated** with its predicted completion time, objective delta,
  friction cost, and a machine-readable rejection reason, ending in the
  chosen placement.  This is the "explain why QS beat DS" record for
  the Figure 7 database experiment: a tuner is only debuggable when
  each decision carries its evaluated alternatives and scores.

Decision traces are always on (they are per-reconfiguration, far off
the optimizer's hot path) and bounded by :data:`MAX_TRACES`; span
tracing is opt-in per controller.  :mod:`repro.obs.export` encodes both
record kinds as JSONL.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "TraceContext",
           "CandidateTrace", "DecisionTrace", "DecisionTraceLog",
           "REJECT_WORSE_OBJECTIVE", "REJECT_RULE_NOT_SELECTED",
           "REJECT_INFEASIBLE"]

#: Machine-readable rejection reasons carried by :class:`CandidateTrace`.
REJECT_WORSE_OBJECTIVE = "worse-objective"
REJECT_RULE_NOT_SELECTED = "rule-not-selected"
REJECT_INFEASIBLE = "infeasible"

#: Longest ``trace_id`` the wire decoder accepts (defensive bound).
MAX_TRACE_ID_CHARS = 64

#: Finished spans a :class:`Tracer` keeps; older ones are dropped first.
MAX_SPANS = 100_000

#: Decision traces a :class:`DecisionTraceLog` keeps.
MAX_TRACES = 1000


@dataclass(frozen=True)
class TraceContext:
    """A trace's wire-portable coordinates: who the next span's parent is.

    Clients stamp this onto protocol messages as the optional
    ``trace_ctx`` field (see docs/wire-protocol.md); the server and
    scheduler continue the trace from it.  The field is strictly
    additive — peers that do not understand it ignore it.
    """

    trace_id: str
    span_id: int
    sampled: bool = True

    def to_wire(self) -> dict[str, Any]:
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "sampled": self.sampled}

    @classmethod
    def from_wire(cls, raw: Any) -> "TraceContext | None":
        """Parse a ``trace_ctx`` payload; ``None`` for anything unusable.

        Old clients omit the field, broken ones may send garbage; both
        must degrade to "no trace" rather than an error (the wire spec
        keeps unknown/optional fields non-fatal).  An explicitly
        unsampled context is also ``None``: it carries no tracing
        obligation, so the receive path allocates nothing for it.
        """
        if not isinstance(raw, Mapping):
            return None
        trace_id = raw.get("trace_id")
        span_id = raw.get("span_id")
        sampled = raw.get("sampled", True)
        if not isinstance(trace_id, str) or not trace_id \
                or len(trace_id) > MAX_TRACE_ID_CHARS:
            return None
        if isinstance(span_id, bool) or not isinstance(span_id, int) \
                or span_id < 0:
            return None
        if sampled is not True:
            return None
        return cls(trace_id=trace_id, span_id=span_id, sampled=True)


class Span:
    """One timed operation; a context manager recording into its tracer.

    ``trace_id`` groups spans into one end-to-end trace across
    processes and hosts; it is inherited from the enclosing span (or a
    wire :class:`TraceContext`) and stays ``None`` for purely local
    timing spans that never joined a propagated trace.
    """

    __slots__ = ("tracer", "name", "span_id", "parent_id", "trace_id",
                 "start_seconds", "duration_seconds", "attributes")

    def __init__(self, tracer: "Tracer", name: str,
                 attributes: dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.span_id = next(tracer._ids)
        self.parent_id: int | None = None
        self.trace_id: str | None = None
        self.start_seconds: float = 0.0
        self.duration_seconds: float = 0.0
        self.attributes = attributes

    def set(self, key: str, value: Any) -> None:
        """Attach a computed attribute (no-op on the null span)."""
        self.attributes[key] = value

    def __enter__(self) -> "Span":
        tracer = self.tracer
        stack = tracer._stack
        if stack:
            parent = stack[-1]
            if self.parent_id is None:
                self.parent_id = parent.span_id
            if self.trace_id is None:
                self.trace_id = parent.trace_id
        self.start_seconds = tracer._clock() - tracer._epoch
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self.tracer
        self.duration_seconds = \
            tracer._clock() - tracer._epoch - self.start_seconds
        stack = tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        tracer._finish(self)

    def to_dict(self) -> dict[str, Any]:
        return {"span_id": self.span_id,
                "parent_id": self.parent_id,
                "trace_id": self.trace_id,
                "name": self.name,
                "start_seconds": self.start_seconds,
                "duration_seconds": self.duration_seconds,
                "attributes": dict(self.attributes)}


class Tracer:
    """Records spans against a monotonic clock.

    ``clock`` defaults to :func:`time.perf_counter`; span start times are
    relative to the tracer's construction (its *epoch*).  Finished spans
    are kept in completion order, the latest :data:`MAX_SPANS` of them
    (oldest dropped first); ``spans_started`` counts every span ever
    opened, so overhead projections survive the retention bound.

    The span *stack* — how nested spans find their parent — is
    per-thread: the request path now crosses connection reader threads,
    the scheduler thread, and executor pools, and each thread nests its
    own spans.  Cross-thread and cross-process edges are expressed
    explicitly through :class:`TraceContext` (see
    :meth:`current_context` / :meth:`span_from_context`).  Finished-span
    storage is a deque append under the GIL, safe from any thread.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._epoch = clock()
        self.spans: deque[Span] = deque(maxlen=MAX_SPANS)
        self.spans_started = 0
        self._local = threading.local()
        self._ids = itertools.count(1)

    @property
    def _stack(self) -> list[Span]:
        """This thread's stack of open spans (created lazily)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attributes: Any) -> Span:
        """Open a span; use as ``with tracer.span("controller.x"): ...``."""
        self.spans_started += 1
        return Span(self, name, attributes)

    def _finish(self, span: Span) -> None:
        self.spans.append(span)

    # -- cross-thread / cross-process propagation ---------------------------

    def new_trace_id(self) -> str:
        """A fresh 16-hex-char trace id (unique across processes)."""
        return uuid.uuid4().hex[:16]

    def wire_context(self, span: Span) -> dict[str, Any]:
        """The ``trace_ctx`` wire payload rooting a trace at ``span``.

        Assigns the span a fresh trace id if it has none yet (the span
        becomes the trace root).
        """
        if span.trace_id is None:
            span.trace_id = self.new_trace_id()
        return {"trace_id": span.trace_id, "span_id": span.span_id,
                "sampled": True}

    def span_from_context(self, name: str, ctx: TraceContext,
                          **attributes: Any) -> Span:
        """Open a span continuing a propagated trace (remote parent).

        The remote parent's ``span_id`` comes from the *sender's* id
        space; ids only need to be unique within one trace to link the
        tree back together.
        """
        self.spans_started += 1
        span = Span(self, name, attributes)
        span.parent_id = ctx.span_id
        span.trace_id = ctx.trace_id
        return span

    def current_context(self) -> TraceContext | None:
        """The innermost open span on *this thread* as a TraceContext.

        ``None`` when no span is open.  Lazily roots a trace at the
        current span so the context is always linkable.
        """
        stack = self._stack
        if not stack:
            return None
        span = stack[-1]
        if span.trace_id is None:
            span.trace_id = self.new_trace_id()
        return TraceContext(trace_id=span.trace_id, span_id=span.span_id,
                            sampled=True)

    def record_span(self, name: str, start_seconds: float,
                    duration_seconds: float, **attributes: Any) -> Span:
        """Record an already-measured span (explicit start/duration).

        For work timed outside a ``with`` block — e.g. a whole sweep,
        recorded after its loop so that the spans its commits open stay
        children of the caller's span.  ``start_seconds`` is relative to
        this tracer's epoch, like every other span.
        """
        self.spans_started += 1
        span = Span(self, name, attributes)
        span.start_seconds = start_seconds
        span.duration_seconds = duration_seconds
        stack = self._stack
        if stack:
            span.parent_id = stack[-1].span_id
            span.trace_id = stack[-1].trace_id
        self._finish(span)
        return span

    def elapsed(self) -> float:
        """Seconds since this tracer's epoch (for record_span starts)."""
        return self._clock() - self._epoch

    def find(self, name: str) -> list[Span]:
        """Finished spans with this name, in completion order."""
        return [span for span in self.spans if span.name == name]

    def to_dicts(self) -> list[dict[str, Any]]:
        return [span.to_dict() for span in self.spans]


class _NullSpan:
    """The shared do-nothing span handed out when tracing is disabled."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The zero-cost default: every ``span()`` is the same no-op object."""

    enabled = False
    spans: tuple = ()
    spans_started = 0

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return _NULL_SPAN

    def record_span(self, name: str, start_seconds: float,
                    duration_seconds: float,
                    **attributes: Any) -> _NullSpan:
        return _NULL_SPAN

    def span_from_context(self, name: str, ctx: "TraceContext",
                          **attributes: Any) -> _NullSpan:
        return _NULL_SPAN

    def current_context(self) -> None:
        return None

    def elapsed(self) -> float:
        return 0.0

    def find(self, name: str) -> list:
        return []

    def to_dicts(self) -> list:
        return []


#: Module-level singleton; ``controller.tracer`` defaults to this.
NULL_TRACER = NullTracer()


def _finite(value: float | None) -> float | None:
    """JSON-safe float: non-finite values become None."""
    if value is None or not math.isfinite(value):
        return None
    return value


@dataclass(frozen=True)
class CandidateTrace:
    """One evaluated alternative inside a :class:`DecisionTrace`.

    ``rejection_reason`` is a machine-readable code (one of the
    ``REJECT_*`` constants) for losers and ``None`` for the chosen
    candidate; ``detail`` carries the human-readable elaboration.
    ``objective_delta`` is the candidate's objective minus the objective
    before the decision — negative means the candidate improves it.
    """

    option_name: str
    variable_assignment: Mapping[str, float]
    placements: Mapping[str, str]
    predicted_seconds: float
    objective_value: float
    objective_delta: float
    friction_cost_seconds: float
    chosen: bool
    rejection_reason: str | None
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {"option": self.option_name,
                "variables": dict(self.variable_assignment),
                "placements": dict(self.placements),
                "predicted_seconds": _finite(self.predicted_seconds),
                "objective_value": _finite(self.objective_value),
                "objective_delta": _finite(self.objective_delta),
                "friction_cost_seconds": self.friction_cost_seconds,
                "chosen": self.chosen,
                "rejection_reason": self.rejection_reason,
                "detail": self.detail}


@dataclass(frozen=True)
class DecisionTrace:
    """Why one reconfiguration happened: alternatives, scores, winner."""

    time: float
    app_key: str
    bundle_name: str
    trigger: str                       # "initial", "reevaluation ...", ...
    objective_before: float
    objective_after: float
    chosen_option: str
    chosen_placements: Mapping[str, str]
    candidates: tuple[CandidateTrace, ...] = field(default_factory=tuple)
    #: ``ChosenConfiguration.describe()`` of the configuration replaced
    #: (``None`` for a first placement) and of the one installed.
    old_configuration: str | None = None
    new_configuration: str = ""

    def chosen_candidate(self) -> CandidateTrace | None:
        for candidate in self.candidates:
            if candidate.chosen:
                return candidate
        return None

    def rejected(self) -> list[CandidateTrace]:
        return [c for c in self.candidates if not c.chosen]

    def to_dict(self) -> dict[str, Any]:
        return {"time": self.time,
                "app_key": self.app_key,
                "bundle_name": self.bundle_name,
                "trigger": self.trigger,
                "objective_before": _finite(self.objective_before),
                "objective_after": _finite(self.objective_after),
                "chosen_option": self.chosen_option,
                "chosen_placements": dict(self.chosen_placements),
                "candidates": [c.to_dict() for c in self.candidates],
                "old_configuration": self.old_configuration,
                "new_configuration": self.new_configuration}


class DecisionTraceLog:
    """The controller's latest :data:`MAX_TRACES` decision traces."""

    def __init__(self):
        self._traces: deque[DecisionTrace] = deque(maxlen=MAX_TRACES)
        self.traces_recorded = 0

    def record(self, trace: DecisionTrace) -> None:
        self.traces_recorded += 1
        self._traces.append(trace)

    def amend_latest(self, **changes: Any) -> None:
        """Rewrite fields of the newest trace, for a fact its caller
        learns only after the commit that recorded it."""
        if self._traces:
            self._traces[-1] = replace(self._traces[-1], **changes)

    def traces(self) -> list[DecisionTrace]:
        return list(self._traces)

    def latest(self, count: int = 1) -> list[DecisionTrace]:
        """The most recent ``count`` traces, oldest first."""
        if count <= 0:
            return []
        return list(self._traces)[-count:]

    def for_app(self, app_key: str) -> list[DecisionTrace]:
        return [t for t in self._traces if t.app_key == app_key]

    def __len__(self) -> int:
        return len(self._traces)
