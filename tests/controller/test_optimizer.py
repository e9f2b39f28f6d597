"""Greedy and pairwise optimizers, against the exhaustive oracle."""

import pytest

from repro.cluster import Cluster
from repro.controller import (
    AdaptationController,
    GreedyOptimizer,
    enumerate_candidates,
)
from repro.rsl import build_bundle
from tests.oracle.exhaustive import MAX_COMBINATIONS, ExhaustiveOptimizer


DB_RSL = """
harmonyBundle DBclient where {
    {QS {node server {hostname server0} {seconds 9} {memory 20}}
        {node client {seconds 1} {memory 2}}
        {link client server 2}}
    {DS {node server {hostname server0} {seconds 1} {memory 20}}
        {node client {memory >=32} {seconds 18}}
        {link client server 51}}}
"""

BAG_RSL = """
harmonyBundle Bag parallelism {
    {run {variable workerNodes {1 2 4 8}}
         {node worker {seconds {2400 / workerNodes}} {memory 32}
                      {replicate workerNodes}}
         {performance workerNodes {1 2400} {2 1212} {4 708} {8 888}}}}
"""


def make_context(cluster):
    """A controller's optimization context and registry; apps added to
    the registry are scored, placements go straight into the view."""
    controller = AdaptationController(cluster)
    return controller.optimization_context(), controller.registry


def add_app(registry, app_name, rsl):
    instance = registry.register(app_name, now=0.0)
    state = registry.add_bundle(instance, build_bundle(rsl))
    return instance, state


class TestEnumeration:
    def test_every_option_and_variable_value_enumerated(self):
        cluster = Cluster.full_mesh([f"n{i}" for i in range(8)],
                                    memory_mb=128)
        context, registry = make_context(cluster)
        instance, state = add_app(registry, "Bag", BAG_RSL)
        candidates = list(enumerate_candidates(instance, state, context))
        worker_counts = sorted(
            c.variable_assignment["workerNodes"] for c in candidates)
        assert worker_counts == [1.0, 2.0, 4.0, 8.0]

    def test_infeasible_configurations_skipped(self):
        cluster = Cluster.full_mesh(["n0", "n1"], memory_mb=128)
        context, registry = make_context(cluster)
        instance, state = add_app(registry, "Bag", BAG_RSL)
        candidates = list(enumerate_candidates(instance, state, context))
        worker_counts = {c.variable_assignment["workerNodes"]
                         for c in candidates}
        assert worker_counts == {1.0, 2.0}  # 4 and 8 do not fit

    def test_memory_grant_probe_for_traffic_reducing_links(self):
        """The Figure 3 memory/bandwidth trade: when a link's traffic
        *falls* with granted client memory, the enumeration offers a boosted
        grant at the point where traffic stops improving."""
        rsl = """harmonyBundle DBclient where {
            {DS {node server {hostname server0} {seconds 1} {memory 20}}
                {node client {memory >=17} {seconds 9}}
                {link client server
                    {44 + 17 - (client.memory > 24 ? 24 : client.memory)}}}}
        """
        cluster = Cluster.star("server0", ["c1"], memory_mb=128)
        context, registry = make_context(cluster)
        instance, state = add_app(registry, "DBclient", rsl)
        candidates = list(enumerate_candidates(instance, state, context))
        grants = [c.memory_grants for c in candidates]
        assert {} in grants
        boosted = [g for g in grants if g]
        # Traffic flattens above 24 MB: the probe lands exactly there.
        assert boosted and boosted[0]["client.memory"] == pytest.approx(24.0)

    def test_no_grant_offered_when_memory_does_not_reduce_traffic(
            self, figure3_rsl):
        """The figure's as-printed expression is non-decreasing in memory,
        so granting extra memory cannot help: only the minimum is offered."""
        rsl = figure3_rsl.replace(">=32", ">=17")
        cluster = Cluster.star("harmony.cs.umd.edu", ["c1"], memory_mb=128)
        for node in cluster.nodes():
            node.os = "linux"
        context, registry = make_context(cluster)
        instance, state = add_app(registry, "DBclient", rsl)
        candidates = [c for c in
                      enumerate_candidates(instance, state, context)
                      if c.option_name == "DS"]
        assert [c.memory_grants for c in candidates] == [{}]


class TestGreedy:
    def test_picks_objective_minimizing_option(self):
        cluster = Cluster.star("server0", ["c1"], memory_mb=128)
        context, registry = make_context(cluster)
        instance, state = add_app(registry, "DBclient", DB_RSL)
        result = GreedyOptimizer().optimize_bundle(instance, state, context)
        assert result.best.option_name == "QS"  # 9.05 s beats ~19 s
        assert result.candidates_evaluated >= 2

    def test_bag_picks_best_curve_point(self):
        cluster = Cluster.full_mesh([f"n{i}" for i in range(8)],
                                    memory_mb=128)
        context, registry = make_context(cluster)
        instance, state = add_app(registry, "Bag", BAG_RSL)
        result = GreedyOptimizer().optimize_bundle(instance, state, context)
        assert result.best.variable_assignment["workerNodes"] == 4.0

    def test_accounts_for_other_apps(self):
        """With two QS residents, a third DB client prefers DS."""
        cluster = Cluster.star("server0", ["c1", "c2", "c3"],
                               memory_mb=128)
        context, registry = make_context(cluster)
        for index in range(2):
            instance, state = add_app(registry, "DBclient", DB_RSL)
            result = GreedyOptimizer().optimize_bundle(instance, state,
                                                       context)
            context.view.place(instance.key, result.best.demands,
                               result.best.assignment)
        third, third_state = add_app(registry, "DBclient", DB_RSL)
        result = GreedyOptimizer().optimize_bundle(third, third_state,
                                                   context)
        # All-QS would give the third client 9 + 9 + 9 = 27 s; DS ~19.3 s.
        assert result.best.option_name == "DS"


class TestPairwise:
    def test_escapes_5_3_local_optimum(self):
        """The Figure 4 equal-partition case: (5, 3) -> (4, 4)."""
        from repro.apps.bag import bag_bundle_rsl
        rsl = bag_bundle_rsl("Bag", 2400, list(range(1, 9)), 32, 0.5, 12)
        cluster = Cluster.full_mesh([f"n{i}" for i in range(8)],
                                    memory_mb=128)
        context, registry = make_context(cluster)
        optimizer = GreedyOptimizer()

        first, first_state = add_app(registry, "BagA", rsl)
        result = optimizer.optimize_bundle(first, first_state, context)
        assert result.best.variable_assignment["workerNodes"] == 5.0
        context.view.place(first.key, result.best.demands,
                           result.best.assignment)

        second, second_state = add_app(registry, "BagB", rsl)
        result_b = optimizer.optimize_bundle(second, second_state, context)
        assert result_b.best.variable_assignment["workerNodes"] == 3.0
        context.view.place(second.key, result_b.best.demands,
                           result_b.best.assignment)

        best = optimizer.optimize_pair(
            (first, first_state), (second, second_state), context)
        assert best is not None
        cand_a, cand_b, objective = best
        assert cand_a.variable_assignment["workerNodes"] == 4.0
        assert cand_b.variable_assignment["workerNodes"] == 4.0
        # Placements must not overlap: equal halves of the machine.
        assert not (set(cand_a.assignment.hostnames())
                    & set(cand_b.assignment.hostnames()))
        assert objective == pytest.approx(708.0)


class TestExhaustive:
    def test_matches_greedy_on_single_app(self):
        cluster = Cluster.star("server0", ["c1"], memory_mb=128)
        context, registry = make_context(cluster)
        instance, state = add_app(registry, "DBclient", DB_RSL)
        greedy = GreedyOptimizer().optimize_bundle(instance, state, context)
        choice, objective, combos = ExhaustiveOptimizer().optimize_all(
            [instance], context)
        assert choice[instance.key].option_name == \
            greedy.best.option_name
        assert objective == pytest.approx(greedy.best.objective_value)

    def test_greedy_sweep_matches_the_oracle_on_figure_4(self):
        """Figure 4's two Bags on eight like nodes: the controller
        settles on the best objective the oracle's search finds."""
        from repro.apps.bag import bag_bundle_rsl
        rsl = bag_bundle_rsl("Bag", 2400, list(range(1, 9)), 32, 0.5, 12)

        def cluster():
            return Cluster.full_mesh([f"n{i}" for i in range(8)],
                                     memory_mb=128)

        controller = AdaptationController(cluster())
        for name in ("BagA", "BagB"):
            instance = controller.register_app(name)
            controller.setup_bundle(instance, build_bundle(rsl))
        settled = controller.current_objective()

        context, registry = make_context(cluster())
        instances = [add_app(registry, name, rsl)[0]
                     for name in ("BagA", "BagB")]
        choice, optimum, _ = ExhaustiveOptimizer().optimize_all(
            instances, context)
        assert sorted(candidate.variable_assignment["workerNodes"]
                      for candidate in choice.values()) == [4.0, 4.0]
        assert optimum == pytest.approx(settled)
        assert settled == pytest.approx(708.0)

    def test_combination_cap_enforced(self):
        from repro.errors import AllocationError
        cluster = Cluster.full_mesh([f"n{i}" for i in range(8)],
                                    memory_mb=128)
        context, registry = make_context(cluster)
        instances = []
        # Four configurations a Bag: 4**9 combinations, in any of 9!
        # orders, pass the cap.
        for index in range(9):
            instance, _state = add_app(registry, f"Bag{index}", BAG_RSL)
            instances.append(instance)
        assert 4 ** 9 > MAX_COMBINATIONS
        with pytest.raises(AllocationError, match="exceeds cap"):
            ExhaustiveOptimizer().optimize_all(instances, context)


def test_one_optimizer_path_ships():
    """The trial engine, configuration cache and partition index are
    always on; the from-scratch scorer lives in ``tests.oracle``."""
    import inspect

    from repro.allocation import Matcher
    from repro.controller import MeanResponseTime, OptimizationContext
    from repro.controller import optimizer
    from repro.persistence.recovery import restore_controller
    from repro.prediction import SystemView

    for constructor in (AdaptationController, restore_controller):
        parameters = inspect.signature(constructor).parameters
        assert "incremental" not in parameters
        assert "partitioned" not in parameters
    cluster = Cluster.full_mesh(["n0", "n1"], memory_mb=64)
    with pytest.raises(TypeError, match="engine"):
        OptimizationContext(view=SystemView(cluster),
                            matcher=Matcher(cluster),
                            objective=MeanResponseTime(),
                            predict_all=lambda view: {})
    for name in ("_optimize_bundle_naive", "_optimize_pair_naive",
                 "_load_order_key"):
        assert not hasattr(optimizer, name)
