"""Applications exporting multiple bundles.

The namespace and registry are explicitly hierarchical per bundle
(``application.instance.bundle.option``); the greedy optimizer walks
"within each application through the list of options" — i.e. bundle by
bundle, in definition order.  These tests exercise an app with two
orthogonal tuning axes exported as two bundles.
"""

import pytest

from repro.cluster import Cluster
from repro.controller import AdaptationController, ModelDrivenPolicy
from tests.oracle import unpruned
from tests.oracle.naive import NaiveGreedyOptimizer

PLACEMENT_BUNDLE = """
harmonyBundle Service where {
    {onA {node n {hostname nodeA} {seconds 10} {memory 16}}}
    {onB {node n {hostname nodeB} {seconds 14} {memory 16}}}}
"""

ALGORITHM_BUNDLE = """
harmonyBundle Service algorithm {
    {table  {node n {hostname nodeA} {seconds 4} {memory 48}}}
    {search {node n {hostname nodeA} {seconds 9} {memory 8}}}}
"""


@pytest.fixture
def controller():
    cluster = Cluster()
    cluster.add_node("nodeA", memory_mb=128)
    cluster.add_node("nodeB", memory_mb=128)
    cluster.add_link("nodeA", "nodeB", 40.0)
    return AdaptationController(cluster)


class TestTwoBundles:
    def test_both_bundles_configured_independently(self, controller):
        instance = controller.register_app("Service")
        where = controller.setup_bundle(instance, PLACEMENT_BUNDLE)
        algorithm = controller.setup_bundle(instance, ALGORITHM_BUNDLE)
        assert where.chosen.option_name == "onA"       # faster node demand
        assert algorithm.chosen.option_name == "table"  # fewer seconds
        assert len(instance.bundles) == 2

    def test_namespace_holds_both_subtrees(self, controller):
        instance = controller.register_app("Service")
        controller.setup_bundle(instance, PLACEMENT_BUNDLE)
        controller.setup_bundle(instance, ALGORITHM_BUNDLE)
        ns = controller.namespace
        assert ns.get(f"{instance.key}.where.option") == "onA"
        assert ns.get(f"{instance.key}.algorithm.option") == "table"

    def test_memory_reserved_per_bundle(self, controller):
        instance = controller.register_app("Service")
        controller.setup_bundle(instance, PLACEMENT_BUNDLE)
        controller.setup_bundle(instance, ALGORITHM_BUNDLE)
        node_a = controller.cluster.node("nodeA")
        # where:onA holds 16 MB, algorithm:table holds 48 MB.
        assert node_a.memory.held_by(f"{instance.key}:where") == 16.0
        assert node_a.memory.held_by(f"{instance.key}:algorithm") == 48.0

    def test_bundles_reoptimized_in_definition_order(self, controller):
        instance = controller.register_app("Service")
        controller.setup_bundle(instance, PLACEMENT_BUNDLE)
        controller.setup_bundle(instance, ALGORITHM_BUNDLE)
        controller.reevaluate()
        bundle_names = list(instance.bundles)
        assert bundle_names == ["where", "algorithm"]

    def test_end_app_releases_both(self, controller):
        instance = controller.register_app("Service")
        controller.setup_bundle(instance, PLACEMENT_BUNDLE)
        controller.setup_bundle(instance, ALGORITHM_BUNDLE)
        controller.end_app(instance)
        for hostname in ("nodeA", "nodeB"):
            node = controller.cluster.node(hostname)
            assert node.memory.reserved_mb == pytest.approx(0.0)

    def test_memory_pressure_on_one_axis_moves_the_other(self, controller):
        """The algorithm bundle wants 48 MB on nodeA; when nodeA's memory
        is nearly exhausted the table option no longer fits and the
        controller falls back to the search option."""
        controller.cluster.node("nodeA").memory.reserve("outsider", 100.0)
        instance = controller.register_app("Service")
        controller.setup_bundle(instance, PLACEMENT_BUNDLE)
        algorithm = controller.setup_bundle(instance, ALGORITHM_BUNDLE)
        assert algorithm.chosen.option_name == "search"  # 8 MB still fits


RIVAL_BUNDLE = """
harmonyBundle Rival run {
    {onA {node n {hostname nodeA} {seconds 12} {memory 16}}}
    {onB {node n {hostname nodeB} {seconds 13} {memory 16}}}}
"""


def two_bundle_run(naive: bool):
    """A two-bundle service, then a rival that arrives and leaves; scored
    from scratch on the serial oracle when ``naive``."""
    cluster = Cluster()
    cluster.add_node("nodeA", memory_mb=128)
    cluster.add_node("nodeB", memory_mb=128)
    cluster.add_link("nodeA", "nodeB", 40.0)
    if naive:
        controller = unpruned(AdaptationController(
            cluster,
            policy=ModelDrivenPolicy(optimizer=NaiveGreedyOptimizer())))
    else:
        controller = AdaptationController(cluster)
    service = controller.register_app("Service")
    controller.setup_bundle(service, PLACEMENT_BUNDLE)
    controller.setup_bundle(service, ALGORITHM_BUNDLE)
    rival = controller.register_app("Rival")
    controller.setup_bundle(rival, RIVAL_BUNDLE)
    controller.reevaluate()
    return controller, service, rival


class TestIncumbentShortcutWithTwoBundles:
    """Both bundles share the application's one slot in the view, which
    holds whichever was placed last.  Only a candidate equal to *that*
    may be scored from the live predictions: the other bundle's current
    configuration differs from the slot and must still be trialled."""

    def test_bundle_not_in_the_view_slot_is_still_trialled(self):
        fast, service, _ = two_bundle_run(naive=False)
        slow, slow_service, _ = two_bundle_run(naive=True)
        slot = fast.view.configuration_of(service.key)
        assert slot.demands.option_name == "table"    # algorithm's, not where's
        assert service.bundles["where"].chosen is not None

        trials = []
        predict = fast._engine.trial_predictions
        fast._engine.trial_predictions = \
            lambda base, tokens: trials.append(1) or predict(base, tokens)
        for bundle_name, expected_trials in (("where", 2), ("algorithm", 1)):
            del trials[:]
            scored, oracle = (
                controller.policy.optimizer.optimize_bundle(
                    instance, instance.bundles[bundle_name],
                    controller.optimization_context())
                for controller, instance in ((fast, service),
                                             (slow, slow_service)))
            assert len(trials) == expected_trials
            assert scored.current_objective == oracle.current_objective
            assert [(c.option_name, c.objective_value, c.predicted_seconds)
                    for c in scored.evaluated] \
                == [(c.option_name, c.objective_value, c.predicted_seconds)
                    for c in oracle.evaluated]

    def test_decision_log_equals_the_naive_oracle(self):
        logs = []
        for naive in (False, True):
            controller, service, rival = two_bundle_run(naive)
            controller.end_app(rival)
            controller.reevaluate()
            logs.append([(r.app_key, r.old_configuration,
                          r.new_configuration, r.reason)
                         for r in controller.decision_log])
        assert logs[0] == logs[1]
        assert len(logs[0]) >= 3
