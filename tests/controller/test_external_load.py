"""Adapting to load outside Harmony's control (paper Section 4.3).

"During application execution, we continue this process on a periodic
basis to adapt the system due to changes out of Harmony's control (such as
network traffic due to other applications)."

The controller observes such load only through the metric interface; these
tests drive the full loop: background load -> collector samples -> metrics
-> external-load estimate in the system view -> prediction change ->
reconfiguration.
"""

import pytest

from repro.cluster import BackgroundCpuLoad, Cluster, LoadPhase
from repro.controller import AdaptationController
from repro.metrics import ClusterCollector
from repro.prediction import DefaultModel, SystemView
from tests.oracle.naive import copy_view
from tests.oracle.per_hop import cpu_effective_seconds, transfer_effective_mb


TWO_CHOICES = """
harmonyBundle App where {
    {onA {node n {hostname nodeA} {seconds 10} {memory 16}}}
    {onB {node n {hostname nodeB} {seconds 10} {memory 16}}}}
"""


def make_world():
    cluster = Cluster()
    cluster.add_node("nodeA", memory_mb=128)
    cluster.add_node("nodeB", memory_mb=128)
    cluster.add_link("nodeA", "nodeB", 40.0)
    controller = AdaptationController(cluster,
                                      reevaluation_period_seconds=20.0)
    collector = ClusterCollector(cluster, controller.metrics,
                                 period_seconds=5.0)
    return cluster, controller, collector


class TestSystemViewExternalLoad:
    def test_external_cpu_stretches_effective_seconds(self):
        cluster = Cluster.full_mesh(["a"], memory_mb=128)
        view = SystemView(cluster)
        assert cpu_effective_seconds(view, "a", 10.0) == 10.0
        view.set_external_cpu_load("a", 2.0)
        assert cpu_effective_seconds(view, "a", 10.0) == pytest.approx(30.0)
        # contention_factor counts placed consumers (none here) + external.
        assert view.contention_factor("a") == pytest.approx(2.0)

    def test_external_link_stretches_transfers(self):
        cluster = Cluster.full_mesh(["a", "b"], memory_mb=128)
        view = SystemView(cluster)
        view.set_external_link_load("a", "b", 1.0)
        assert transfer_effective_mb(view, "a", "b", 8.0) == \
            pytest.approx(16.0)
        assert view.flows_between("b", "a") == 0  # no own flows

    def test_zero_load_clears_entry(self):
        cluster = Cluster.full_mesh(["a"], memory_mb=128)
        view = SystemView(cluster)
        view.set_external_cpu_load("a", 2.0)
        view.set_external_cpu_load("a", 0.0)
        assert view.external_cpu_load("a") == 0.0

    def test_copy_carries_external_load(self):
        cluster = Cluster.full_mesh(["a"], memory_mb=128)
        view = SystemView(cluster)
        view.set_external_cpu_load("a", 1.5)
        copy = copy_view(view)
        assert copy.external_cpu_load("a") == 1.5
        copy.set_external_cpu_load("a", 0.0)
        assert view.external_cpu_load("a") == 1.5


class TestControllerIngestion:
    def test_update_external_load_reads_metrics(self):
        cluster, controller, collector = make_world()
        # Fake a sustained measured load of 3 jobs on nodeA.
        for t in range(5):
            controller.metrics.report("node.nodeA.cpu_load", float(t), 3.0)
        controller.update_external_load()
        assert controller.view.external_cpu_load("nodeA") == \
            pytest.approx(3.0)
        assert controller.view.external_cpu_load("nodeB") == 0.0

    def test_own_load_subtracted(self):
        cluster, controller, collector = make_world()
        instance = controller.register_app("App")
        controller.setup_bundle(instance, TWO_CHOICES)
        chosen_host = next(iter(
            instance.bundles["where"].chosen.assignment.hostnames()))
        # Measured load equals our own placed demand -> no external load.
        controller.metrics.report(f"node.{chosen_host}.cpu_load", 0.0, 1.0)
        controller.update_external_load()
        assert controller.view.external_cpu_load(chosen_host) == 0.0

    def test_no_metrics_is_a_noop(self):
        cluster, controller, collector = make_world()
        controller.update_external_load()
        assert controller.view.external_cpu_load("nodeA") == 0.0


class TestEndToEndAdaptation:
    def test_app_migrates_away_from_background_load(self):
        """Background load appears on the app's node; the periodic
        re-evaluation observes it via the collector and moves the app."""
        cluster, controller, collector = make_world()
        instance = controller.register_app("App")
        state = controller.setup_bundle(instance, TWO_CHOICES)
        assert state.chosen.option_name == "onA"  # first fit

        collector.start()
        controller.start_periodic_reevaluation()
        # Non-aligned job lengths avoid aliasing with the 5 s sampler;
        # parallelism 3 leaves clear external load even after the
        # controller subtracts its own placed demand.
        load = BackgroundCpuLoad(cluster, "nodeA", [
            LoadPhase(duration_seconds=500.0, parallelism=3, demand=7.3)])
        load.start()
        cluster.run(until=120.0)
        controller.stop_periodic_reevaluation()
        collector.stop()

        assert state.chosen.option_name == "onB"
        moves = [trace for trace in controller.trace_log.traces()
                 if trace.new_configuration == "onB"]
        assert moves and "reevaluation" in moves[0].trigger

    def test_app_stays_without_load(self):
        cluster, controller, collector = make_world()
        instance = controller.register_app("App")
        state = controller.setup_bundle(instance, TWO_CHOICES)
        collector.start()
        controller.start_periodic_reevaluation()
        cluster.run(until=120.0)
        controller.stop_periodic_reevaluation()
        collector.stop()
        assert state.chosen.option_name == "onA"
        assert state.switch_count == 1  # only the initial configuration

    def test_app_returns_when_load_ends(self):
        cluster, controller, collector = make_world()
        instance = controller.register_app("App")
        state = controller.setup_bundle(instance, TWO_CHOICES)
        collector.start()
        controller.start_periodic_reevaluation()
        load = BackgroundCpuLoad(cluster, "nodeA", [
            LoadPhase(duration_seconds=100.0, parallelism=3, demand=7.3)])
        load.start()
        cluster.run(until=400.0)
        controller.stop_periodic_reevaluation()
        collector.stop()
        # Load gone; with the trailing window drained the app is free to
        # return (options are symmetric, so either A or B is optimal; what
        # matters is that it left B-lock only if beneficial — check it is
        # not stuck on a stale external estimate).
        assert controller.view.external_cpu_load("nodeA") < 0.5
