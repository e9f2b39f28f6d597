"""Performance-event-driven re-evaluation."""

import pytest

from repro.cluster import BackgroundCpuLoad, Cluster, LoadPhase
from repro.controller import AdaptationController
from repro.controller.events import PerformanceEventMonitor
from repro.metrics import ClusterCollector


TWO_CHOICES = """
harmonyBundle App where {
    {onA {node n {hostname nodeA} {seconds 10} {memory 16}}}
    {onB {node n {hostname nodeB} {seconds 10} {memory 16}}}}
"""


@pytest.fixture
def world():
    cluster = Cluster()
    cluster.add_node("nodeA", memory_mb=128)
    cluster.add_node("nodeB", memory_mb=128)
    cluster.add_link("nodeA", "nodeB", 40.0)
    controller = AdaptationController(cluster)
    return cluster, controller


def report_response(controller, key, value):
    controller.metrics.report(f"app.{key}.response_time",
                              controller.now, value)


class TestViolationDetection:
    def test_three_violations_trigger_event(self, world):
        _cluster, controller = world
        instance = controller.register_app("App")
        controller.setup_bundle(instance, TWO_CHOICES)
        monitor = PerformanceEventMonitor(controller).start()
        for _ in range(3):
            report_response(controller, instance.key, 100.0)  # 10x promise
        assert len(monitor.events) == 1
        event = monitor.events[0]
        assert event.app_key == instance.key
        assert event.slowdown == pytest.approx(10.0)

    def test_fewer_violations_do_not_trigger(self, world):
        _cluster, controller = world
        instance = controller.register_app("App")
        controller.setup_bundle(instance, TWO_CHOICES)
        monitor = PerformanceEventMonitor(controller).start()
        report_response(controller, instance.key, 100.0)
        report_response(controller, instance.key, 100.0)
        assert monitor.events == []

    def test_good_report_resets_the_count(self, world):
        _cluster, controller = world
        instance = controller.register_app("App")
        controller.setup_bundle(instance, TWO_CHOICES)
        monitor = PerformanceEventMonitor(controller).start()
        report_response(controller, instance.key, 100.0)
        report_response(controller, instance.key, 100.0)
        report_response(controller, instance.key, 10.0)   # within promise
        report_response(controller, instance.key, 100.0)
        report_response(controller, instance.key, 100.0)
        assert monitor.events == []

    def test_within_tolerance_never_triggers(self, world):
        _cluster, controller = world
        instance = controller.register_app("App")
        controller.setup_bundle(instance, TWO_CHOICES)
        monitor = PerformanceEventMonitor(controller).start()
        for _ in range(10):
            report_response(controller, instance.key, 14.0)  # < 1.5x of 10
        assert monitor.events == []

    def test_cooldown_limits_trigger_rate(self, world):
        _cluster, controller = world
        instance = controller.register_app("App")
        controller.setup_bundle(instance, TWO_CHOICES)
        monitor = PerformanceEventMonitor(controller).start()
        for _ in range(20):
            report_response(controller, instance.key, 100.0)
        assert len(monitor.events) == 1

    def test_metrics_for_other_apps_ignored(self, world):
        _cluster, controller = world
        instance = controller.register_app("App")
        controller.setup_bundle(instance, TWO_CHOICES)
        monitor = PerformanceEventMonitor(controller).start()
        for _ in range(5):
            controller.metrics.report("app.Ghost.9.response_time",
                                      controller.now, 999.0)
            controller.metrics.report(f"app.{instance.key}.throughput",
                                      controller.now, 999.0)
        assert monitor.events == []

    def test_stop_unsubscribes(self, world):
        _cluster, controller = world
        instance = controller.register_app("App")
        controller.setup_bundle(instance, TWO_CHOICES)
        monitor = PerformanceEventMonitor(controller).start()
        monitor.stop()
        for _ in range(5):
            report_response(controller, instance.key, 100.0)
        assert monitor.events == []

    def test_event_counter_metric(self, world):
        _cluster, controller = world
        instance = controller.register_app("App")
        controller.setup_bundle(instance, TWO_CHOICES)
        monitor = PerformanceEventMonitor(controller).start()
        for _ in range(3):
            report_response(controller, instance.key, 100.0)
        assert controller.metrics.latest(
            "controller.performance_events") == 1.0


class TestEndToEnd:
    def test_event_beats_the_periodic_timer(self):
        """Hidden load slows the app; its own slow reports trigger the
        move long before a (deliberately glacial) periodic loop would."""
        cluster = Cluster()
        cluster.add_node("nodeA", memory_mb=128)
        cluster.add_node("nodeB", memory_mb=128)
        cluster.add_link("nodeA", "nodeB", 40.0)
        controller = AdaptationController(
            cluster, reevaluation_period_seconds=10_000.0)
        collector = ClusterCollector(cluster, controller.metrics,
                                     period_seconds=5.0)
        instance = controller.register_app("App")
        state = controller.setup_bundle(instance, TWO_CHOICES)
        monitor = PerformanceEventMonitor(controller).start()
        collector.start()
        load = BackgroundCpuLoad(cluster, "nodeA", [
            LoadPhase(duration_seconds=500.0, parallelism=3, demand=7.3)])
        load.start()

        # The application itself: runs its 10 s job on the chosen node and
        # reports each response through the Figure 5 metric path.
        def app_loop():
            while cluster.now < 300.0:
                hostname = state.chosen.assignment.hostname_of("n")
                sojourn = yield cluster.node(hostname).compute(10.0)
                report_response(controller, instance.key, sojourn)

        cluster.kernel.spawn(app_loop())
        cluster.run(until=300.0)
        collector.stop()
        monitor.stop()

        assert monitor.events, "the slowdown should have fired an event"
        assert state.chosen.option_name == "onB"
        first_event = monitor.events[0].time
        assert first_event < 300.0  # long before the 10,000 s timer
