"""Heterogeneous clusters: speed-aware placement and prediction."""

import pytest

from repro.cluster import Cluster
from repro.controller import AdaptationController

ANYWHERE = """
harmonyBundle App b {
    {only {node n {seconds 10} {memory 16}}}}
"""

SPREAD = """
harmonyBundle Wide b {
    {only {node w {seconds 10} {memory 16} {replicate 2}}}}
"""


def make_cluster(speeds):
    cluster = Cluster()
    for index, speed in enumerate(speeds):
        cluster.add_node(f"h{index}", speed=speed, memory_mb=128)
    hostnames = cluster.hostnames()
    for i, a in enumerate(hostnames):
        for b in hostnames[i + 1:]:
            cluster.add_link(a, b, 40.0)
    return cluster


class TestSpeedAwarePlacement:
    def test_single_app_lands_on_fastest_node(self):
        cluster = make_cluster([1.0, 3.0, 2.0])
        controller = AdaptationController(cluster)
        instance = controller.register_app("App")
        state = controller.setup_bundle(instance, ANYWHERE)
        assert state.chosen.assignment.hostname_of("n") == "h1"
        predictions = controller.predict_all(controller.view)
        assert predictions[instance.key] == pytest.approx(10.0 / 3.0)

    def test_replicas_take_the_two_fastest(self):
        cluster = make_cluster([1.0, 3.0, 2.0, 0.5])
        controller = AdaptationController(cluster)
        instance = controller.register_app("Wide")
        state = controller.setup_bundle(instance, SPREAD)
        assert state.chosen.assignment.hostnames() == {"h1", "h2"}

    def test_second_app_takes_next_fastest_free_node(self):
        cluster = make_cluster([1.0, 3.0, 2.0])
        controller = AdaptationController(cluster)
        first = controller.register_app("App")
        controller.setup_bundle(first, ANYWHERE)
        second = controller.register_app("App")
        second_state = controller.setup_bundle(second, ANYWHERE)
        assert second_state.chosen.assignment.hostname_of("n") == "h2"

    def test_external_load_overrides_speed_preference(self):
        """A fast-but-busy node loses to a slower idle one when the
        measured load makes it the worse predicted choice."""
        cluster = make_cluster([1.0, 2.0])
        controller = AdaptationController(cluster)
        # Fast node h1 carries 3 measured external consumers.
        for t in range(3):
            controller.metrics.report("node.h1.cpu_load", float(t), 3.0)
        controller.update_external_load()
        instance = controller.register_app("App")
        state = controller.setup_bundle(instance, ANYWHERE)
        # 10s at speed 1 idle (10.0) beats 10*(1+3)/2 = 20.0 on h1.
        assert state.chosen.assignment.hostname_of("n") == "h0"


class TestSpeedInPrediction:
    def test_reference_seconds_scale_by_speed(self):
        cluster = make_cluster([0.5])
        controller = AdaptationController(cluster)
        instance = controller.register_app("App")
        controller.setup_bundle(instance, ANYWHERE)
        predictions = controller.predict_all(controller.view)
        assert predictions[instance.key] == pytest.approx(20.0)
