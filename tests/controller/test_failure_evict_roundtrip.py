"""Node failure → restoration round-trips interleaved with evictions.

The degraded-mode triangle: a node dies (stranding or displacing apps),
a client's lease lapses while the cluster is degraded (eviction), the
node returns (stranded apps reconfigure onto it).  Lifecycle flight
events and the ``controller.evictions`` / ``controller.node_*`` counters
must tell the whole story.
"""

import pytest

from repro.cluster import Cluster
from repro.controller import AdaptationController
from tests.conftest import lifecycle_events

PINNED = """
harmonyBundle Pinned only {
    {home {node n {hostname nodeA} {seconds 5} {memory 16}}}}
"""

FLEXIBLE = """
harmonyBundle Flexible place {
    {onA {node n {hostname nodeA} {seconds 10} {memory 16}}}
    {onB {node n {hostname nodeB} {seconds 14} {memory 16}}}}
"""


def make_controller():
    cluster = Cluster()
    cluster.add_node("nodeA", memory_mb=128)
    cluster.add_node("nodeB", memory_mb=128)
    cluster.add_link("nodeA", "nodeB", 40.0)
    return AdaptationController(cluster)


def lifecycle_kinds(controller):
    return [(event["kind"], event["client"])
            for event in lifecycle_events(controller)]


class TestFailureRestoreRoundTrip:
    def test_stranded_app_reconfigures_onto_restored_node(self):
        controller = make_controller()
        pinned = controller.register_app("Pinned")
        state = controller.setup_bundle(pinned, PINNED)

        stranded = controller.handle_node_failure("nodeA")
        assert stranded == [pinned.key]
        assert state.chosen is None

        controller.handle_node_restored("nodeA")
        assert controller.configure_stranded() == 1
        assert state.chosen is not None
        assert state.chosen.assignment.hostnames() == {"nodeA"}
        assert controller.metrics.latest("controller.node_failures") == 1.0
        assert controller.metrics.latest(
            "controller.node_restorations") == 1.0

    def test_eviction_while_degraded_then_restore(self):
        controller = make_controller()
        pinned = controller.register_app("Pinned")
        pinned_state = controller.setup_bundle(pinned, PINNED)
        flexible = controller.register_app("Flexible")
        flexible_state = controller.setup_bundle(flexible, FLEXIBLE)
        # Pinned occupies nodeA, so sharing it (2x contention) loses to
        # the slower-but-idle nodeB.
        assert flexible_state.chosen.option_name == "onB"

        stranded = controller.handle_node_failure("nodeA")
        assert stranded == [pinned.key]
        assert flexible_state.chosen.option_name == "onB"

        # The stranded client's lease lapses while the node is down.
        controller.evict_app(pinned, reason="lease expired")
        assert controller.metrics.latest("controller.evictions") == 1.0
        assert ("evicted", pinned.key) in lifecycle_kinds(controller)

        controller.handle_node_restored("nodeA")
        assert controller.configure_stranded() == 0  # nothing left to fix
        # The survivor claims the restored node back.
        assert flexible_state.chosen.option_name == "onA"
        assert pinned.key not in controller.predict_all(controller.view)
        assert len(controller.registry) == 1

    def test_repeated_roundtrips_with_evictions_stay_consistent(self):
        controller = make_controller()
        survivor = controller.register_app("Flexible")
        survivor_state = controller.setup_bundle(survivor, FLEXIBLE)

        for round_index in range(1, 4):
            victim = controller.register_app("Pinned")
            controller.setup_bundle(victim, PINNED)
            controller.handle_node_failure("nodeA")
            assert survivor_state.chosen.option_name == "onB"
            controller.evict_app(victim, reason="lease expired")
            controller.handle_node_restored("nodeA")
            controller.configure_stranded()
            assert survivor_state.chosen.option_name == "onA"
            assert controller.metrics.latest(
                "controller.evictions") == round_index
            assert len(controller.metrics.series(
                "controller.evictions")) == round_index
            assert controller.metrics.latest(
                "controller.node_failures") == round_index
            assert len(controller.metrics.series(
                "controller.node_failures")) == round_index

        evictions = [e for e in lifecycle_events(controller)
                     if e["kind"] == "evicted"]
        assert len(evictions) == 3
        assert len(controller.registry) == 1
        # No leaked reservations: only the survivor's allocation remains.
        reserved = sum(node.memory.reserved_mb
                       for node in controller.cluster.nodes())
        assert reserved == pytest.approx(16.0)

    def test_failure_restore_is_idempotent_per_node_state(self):
        controller = make_controller()
        instance = controller.register_app("Flexible")
        state = controller.setup_bundle(instance, FLEXIBLE)
        controller.handle_node_failure("nodeA")
        controller.handle_node_failure("nodeA")  # already down: no-op
        assert state.chosen.option_name == "onB"
        controller.handle_node_restored("nodeA")
        controller.handle_node_restored("nodeA")
        assert state.chosen.option_name == "onA"
        assert len(controller.metrics.series(
            "controller.node_failures")) == 2
