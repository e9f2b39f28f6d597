"""Span tracer and decision-trace containers."""

import json
import math

from repro.obs.export import decision_traces_to_jsonl, spans_to_jsonl
from repro.obs.trace import (
    MAX_SPANS,
    MAX_TRACES,
    NULL_TRACER,
    CandidateTrace,
    DecisionTrace,
    DecisionTraceLog,
    NullTracer,
    Tracer,
)


class FakeClock:
    """A controllable monotonic clock (seconds advance on demand)."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_candidate(**overrides):
    fields = dict(option_name="QS", variable_assignment={"lanes": 2},
                  placements={"server": "n0"}, predicted_seconds=9.0,
                  objective_value=9.0, objective_delta=-1.0,
                  friction_cost_seconds=0.5, chosen=True,
                  rejection_reason=None)
    fields.update(overrides)
    return CandidateTrace(**fields)


def make_trace(time=0.0, app_key="DBclient.1", **overrides):
    fields = dict(time=time, app_key=app_key, bundle_name="where",
                  trigger="initial", objective_before=10.0,
                  objective_after=9.0, chosen_option="QS",
                  chosen_placements={"server": "n0"},
                  candidates=(make_candidate(),
                              make_candidate(option_name="DS", chosen=False,
                                             rejection_reason="worse-objective")))
    fields.update(overrides)
    return DecisionTrace(**fields)


class TestSpan:
    def test_duration_from_monotonic_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("work") as span:
            clock.advance(2.5)
        assert span.duration_seconds == 2.5
        assert span.start_seconds == 0.0  # relative to tracer epoch

    def test_start_relative_to_epoch(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        clock.advance(7.0)
        with tracer.span("later") as span:
            pass
        assert span.start_seconds == 7.0

    def test_parent_links_nest(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_siblings_share_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("a") as first:
                pass
            with tracer.span("b") as second:
                pass
        assert first.parent_id == outer.span_id
        assert second.parent_id == outer.span_id

    def test_attributes_from_kwargs_and_set(self):
        tracer = Tracer()
        with tracer.span("op", app="A.1") as span:
            span.set("chosen", "QS")
        assert span.attributes == {"app": "A.1", "chosen": "QS"}

    def test_finished_on_exception(self):
        tracer = Tracer()
        try:
            with tracer.span("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        assert [span.name for span in tracer.spans] == ["boom"]


class TestTracer:
    def test_retention_bound_keeps_started_count(self):
        tracer = Tracer()
        for index in range(MAX_SPANS + 3):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer.spans) == MAX_SPANS
        assert [span.name for span in tracer.spans][:2] == ["s3", "s4"]
        assert tracer.spans[-1].name == f"s{MAX_SPANS + 2}"
        assert tracer.spans_started == MAX_SPANS + 3

    def test_find_by_name(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        with tracer.span("a"):
            pass
        assert len(tracer.find("a")) == 2
        assert tracer.find("missing") == []

    def test_jsonl_round_trips(self):
        tracer = Tracer()
        with tracer.span("op", app="A.1"):
            pass
        lines = spans_to_jsonl(tracer.spans).splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["name"] == "op"
        assert record["attributes"] == {"app": "A.1"}


class TestNullTracer:
    def test_disabled_and_shared_span(self):
        assert NULL_TRACER.enabled is False
        span_a = NULL_TRACER.span("a", key=1)
        span_b = NULL_TRACER.span("b")
        assert span_a is span_b  # one shared no-op object, no allocation

    def test_span_protocol_is_noop(self):
        with NULL_TRACER.span("anything") as span:
            span.set("key", "value")
        assert NULL_TRACER.to_dicts() == []
        assert spans_to_jsonl(NULL_TRACER.spans) == ""
        assert NULL_TRACER.find("anything") == []

    def test_fresh_instances_also_disabled(self):
        assert NullTracer().enabled is False

    def test_untraced_admission_constructs_no_span(self, monkeypatch):
        """Tracing is free when off: an admission under the default
        tracer builds no ``Span``, while the same admission traced
        builds some."""
        from repro.cluster import Cluster
        from repro.controller import AdaptationController
        from repro.obs import trace

        built = []
        init = trace.Span.__init__

        def counting_init(span, *args, **kwargs):
            built.append(span)
            init(span, *args, **kwargs)

        monkeypatch.setattr(trace.Span, "__init__", counting_init)
        rsl = """harmonyBundle App{index} size {{
            {{small {{node n {{seconds 60}} {{memory 24}}}}}}
            {{large {{node n {{seconds 35}} {{memory 24}} {{replicate 2}}}}
                    {{communication 4}}}}}}"""

        def admit(tracer):
            controller = AdaptationController(
                Cluster.full_mesh([f"n{i}" for i in range(8)],
                                  memory_mb=256.0), tracer=tracer)
            for index in range(4):
                instance = controller.register_app(f"App{index}")
                controller.setup_bundle(instance, rsl.format(index=index))

        admit(None)
        assert built == []
        admit(Tracer())
        assert built


class TestCandidateTrace:
    def test_to_dict_is_strict_json(self):
        record = make_candidate(predicted_seconds=math.inf,
                                objective_value=math.nan,
                                objective_delta=math.inf).to_dict()
        json.dumps(record)  # must not raise
        assert record["predicted_seconds"] is None
        assert record["objective_value"] is None
        assert record["objective_delta"] is None

    def test_to_dict_fields(self):
        record = make_candidate().to_dict()
        assert record["option"] == "QS"
        assert record["chosen"] is True
        assert record["rejection_reason"] is None
        assert record["variables"] == {"lanes": 2}


class TestDecisionTrace:
    def test_chosen_and_rejected_partition(self):
        trace = make_trace()
        assert trace.chosen_candidate().option_name == "QS"
        assert [c.option_name for c in trace.rejected()] == ["DS"]

    def test_to_dict_round_trips(self):
        record = json.loads(json.dumps(make_trace().to_dict()))
        assert record["chosen_option"] == "QS"
        assert len(record["candidates"]) == 2


class TestDecisionTraceLog:
    def test_bounded_with_total_count(self):
        log = DecisionTraceLog()
        for index in range(MAX_TRACES + 3):
            log.record(make_trace(time=float(index)))
        assert len(log) == MAX_TRACES
        assert [t.time for t in log.latest(2)] == [MAX_TRACES + 1.0,
                                                    MAX_TRACES + 2.0]
        assert log.traces()[0].time == 3.0
        assert log.traces_recorded == MAX_TRACES + 3

    def test_latest_oldest_first(self):
        log = DecisionTraceLog()
        for index in range(4):
            log.record(make_trace(time=float(index)))
        assert [t.time for t in log.latest(2)] == [2.0, 3.0]
        assert log.latest(0) == []

    def test_for_app_filters(self):
        log = DecisionTraceLog()
        log.record(make_trace(app_key="A.1"))
        log.record(make_trace(app_key="B.1"))
        log.record(make_trace(app_key="A.1"))
        assert len(log.for_app("A.1")) == 2

    def test_jsonl_one_object_per_line(self):
        log = DecisionTraceLog()
        log.record(make_trace())
        log.record(make_trace(time=1.0))
        lines = decision_traces_to_jsonl(log.traces()).splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["bundle_name"] == "where"
                   for line in lines)
