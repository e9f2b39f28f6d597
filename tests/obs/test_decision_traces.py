"""Decision traces and spans recorded through the live controller."""

import pytest

from repro.cluster import Cluster
from repro.controller import AdaptationController
from repro.controller.policies import ClientCountRulePolicy
from repro.obs.trace import (
    REJECT_RULE_NOT_SELECTED,
    REJECT_WORSE_OBJECTIVE,
    Tracer,
)
from tests.conftest import spans_named

TWO_OPTION_RSL = """
harmonyBundle demo size {
    {small {node n {seconds 60} {memory 24}}}
    {large {node n {seconds 35} {memory 24} {replicate 2}}
           {communication 4}}}
"""

DB_RSL = """
harmonyBundle DBclient where {
    {QS {node server {hostname server0} {seconds 9} {memory 20}}
        {node client {seconds 1} {memory 2}}
        {link client server 2}}
    {DS {node server {hostname server0} {seconds 1} {memory 20}}
        {node client {memory >=32} {seconds 18}}
        {link client server 51}}}
"""


@pytest.fixture
def cluster():
    return Cluster.full_mesh(["n0", "n1", "n2"], memory_mb=64.0)


@pytest.fixture
def db_cluster():
    cluster = Cluster()
    cluster.add_node("server0", speed=1.0, memory_mb=256.0)
    for index in range(3):
        cluster.add_node(f"c{index}", speed=0.5, memory_mb=128.0)
        cluster.add_link("server0", f"c{index}", 40.0)
    return cluster


class TestModelPolicyTraces:
    def test_initial_configuration_traced(self, cluster):
        controller = AdaptationController(cluster)
        instance = controller.register_app("demo")
        controller.setup_bundle(instance, TWO_OPTION_RSL)

        assert len(controller.trace_log) == 1
        trace = controller.trace_log.latest(1)[0]
        assert trace.trigger == "initial"
        assert trace.app_key == "demo.1"
        assert trace.chosen_option == "large"
        assert {c.option_name for c in trace.candidates} \
            == {"small", "large"}

    def test_loser_has_reason_and_scores(self, cluster):
        controller = AdaptationController(cluster)
        instance = controller.register_app("demo")
        controller.setup_bundle(instance, TWO_OPTION_RSL)

        trace = controller.trace_log.latest(1)[0]
        (winner,) = [c for c in trace.candidates if c.chosen]
        loser = [c for c in trace.candidates if not c.chosen][0]
        assert loser.option_name == "small"
        assert loser.rejection_reason == REJECT_WORSE_OBJECTIVE
        assert loser.predicted_seconds > winner.predicted_seconds
        assert "vs winner" in loser.detail

    def test_trace_carries_objectives(self, cluster):
        controller = AdaptationController(cluster)
        first = controller.register_app("demo")
        controller.setup_bundle(first, TWO_OPTION_RSL)
        second = controller.register_app("demo")
        controller.setup_bundle(second, TWO_OPTION_RSL)

        trace = controller.trace_log.latest(1)[0]
        # The second admission starts from the first one's objective.
        assert trace.objective_before > 0.0
        assert trace.objective_after >= trace.objective_before


class TestRulePolicyTraces:
    def make_controller(self, db_cluster, threshold=3):
        policy = ClientCountRulePolicy(
            app_name="DBclient", bundle_name="where", threshold=threshold,
            below_option="QS", at_or_above_option="DS")
        return AdaptationController(db_cluster, policy=policy)

    def test_both_options_traced_with_rule_reason(self, db_cluster):
        controller = self.make_controller(db_cluster)
        instance = controller.register_app("DBclient")
        controller.setup_bundle(instance, DB_RSL)

        trace = controller.trace_log.latest(1)[0]
        assert trace.chosen_option == "QS"
        by_option = {c.option_name: c for c in trace.candidates}
        assert by_option["QS"].chosen
        assert by_option["QS"].rejection_reason is None
        rejected = by_option["DS"]
        assert rejected.rejection_reason == REJECT_RULE_NOT_SELECTED
        assert "rule selected 'QS'" in rejected.detail
        # Alternatives are scored even though the rule ignored them.
        assert rejected.predicted_seconds > 0.0

    def test_switch_trace_rejects_qs(self, db_cluster):
        controller = self.make_controller(db_cluster, threshold=2)
        for _ in range(2):
            instance = controller.register_app("DBclient")
            controller.setup_bundle(instance, DB_RSL)
        controller.reevaluate()

        switches = [t for t in controller.trace_log.traces()
                    if t.chosen_option == "DS"]
        assert switches, "threshold reached but no DS trace recorded"
        rejected = [c for c in switches[-1].candidates if not c.chosen][0]
        assert rejected.option_name == "QS"
        assert rejected.rejection_reason == REJECT_RULE_NOT_SELECTED


class TestControllerSpans:
    def test_admission_spans(self, cluster):
        tracer = Tracer()
        controller = AdaptationController(cluster, tracer=tracer)
        instance = controller.register_app("demo")
        controller.setup_bundle(instance, TWO_OPTION_RSL)

        names = {span.name for span in tracer.spans}
        assert {"controller.register", "controller.setup_bundle",
                "optimizer.optimize_bundle"} <= names
        bundle_span = spans_named(tracer, "optimizer.optimize_bundle")[0]
        assert bundle_span.attributes["chosen"] == "large"
        assert bundle_span.attributes["candidates_evaluated"] == 2

    def test_reevaluate_span_and_timer_metric(self, cluster):
        tracer = Tracer()
        controller = AdaptationController(cluster, tracer=tracer)
        instance = controller.register_app("demo")
        controller.setup_bundle(instance, TWO_OPTION_RSL)
        controller.reevaluate()

        assert spans_named(tracer, "controller.reevaluate")
        latest = controller.metrics.latest(
            "controller.reevaluation_seconds")
        assert latest is not None and latest >= 0.0

    def test_evict_span(self, cluster):
        tracer = Tracer()
        controller = AdaptationController(cluster, tracer=tracer)
        instance = controller.register_app("demo")
        controller.setup_bundle(instance, TWO_OPTION_RSL)
        controller.evict_app(instance)
        assert spans_named(tracer, "controller.evict")

    def test_work_counters_published(self, cluster):
        controller = AdaptationController(cluster)
        instance = controller.register_app("demo")
        controller.setup_bundle(instance, TWO_OPTION_RSL)

        metrics = controller.metrics
        # Admission (2 candidates) plus the post-setup re-evaluation pass.
        assert metrics.latest("optimizer.candidates_evaluated") == 4.0
        assert metrics.latest("prediction.model_calls") > 0
        assert metrics.latest("optimizer.match_calls") > 0
        assert metrics.latest("optimizer.cache.space_misses") is not None

    def test_default_tracer_is_null(self, cluster):
        controller = AdaptationController(cluster)
        assert controller.tracer.enabled is False
