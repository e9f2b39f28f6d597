"""Adapting to node deletion and addition (paper abstract).

"applications can be made to adapt to changes in their execution
environment due to other programs, or the addition or deletion of nodes,
communication links etc."
"""

import pytest

from repro.cluster import Cluster
from repro.controller import AdaptationController
from repro.errors import AllocationError
from repro.persistence import DurabilityJournal

TWO_CHOICES = """
harmonyBundle App where {
    {onA {node n {hostname nodeA} {seconds 10} {memory 16}}}
    {onB {node n {hostname nodeB} {seconds 14} {memory 16}}}}
"""

WIDE = """
harmonyBundle Wide size {
    {narrow {node w {seconds 60} {memory 16}}}
    {wide   {node w {seconds 35} {memory 16} {replicate 2}}}}
"""


def make_controller(extra_nodes=()):
    cluster = Cluster()
    cluster.add_node("nodeA", memory_mb=128)
    cluster.add_node("nodeB", memory_mb=128)
    cluster.add_link("nodeA", "nodeB", 40.0)
    for name in extra_nodes:
        cluster.add_node(name, memory_mb=128)
    return AdaptationController(cluster)


class TestNodeFailure:
    def test_app_displaced_to_surviving_node(self):
        controller = make_controller()
        instance = controller.register_app("App")
        state = controller.setup_bundle(instance, TWO_CHOICES)
        assert state.chosen.option_name == "onA"

        stranded = controller.handle_node_failure("nodeA")
        assert stranded == []
        assert state.chosen.option_name == "onB"
        assert controller.cluster.node("nodeA").memory.reserved_mb == 0.0

    def test_failure_decision_logged_with_reason(self, tmp_path):
        controller = make_controller()
        journal = DurabilityJournal(str(tmp_path), fsync="never")
        journal.attach(controller)
        instance = controller.register_app("App")
        controller.setup_bundle(instance, TWO_CHOICES)
        controller.handle_node_failure("nodeA")
        # One trace for the re-placement, naming what the failure
        # displaced.
        failure_traces = [trace for trace in controller.trace_log.traces()
                          if "node failure" in trace.trigger]
        assert len(failure_traces) == 1
        assert failure_traces[0].old_configuration == "onA"
        assert failure_traces[0].new_configuration == "onB"
        assert failure_traces[0].chosen_option == "onB"
        # The trace and the WAL record carry the same reason.
        reasons = ["initial", "node failure: nodeA"]
        assert controller.trace_log.traces_recorded == 2
        assert [trace.trigger for trace in controller.trace_log.traces()] \
            == reasons
        assert [record.data["reason"] for record in journal.wal.records()
                if record.kind == "apply"] == reasons
        journal.close()
        restored = AdaptationController.restore(str(tmp_path),
                                                fsync="never")
        restored.journal.close()
        # Replay rebuilds the re-placement, not its history: a restore's
        # traces do not depend on where the last snapshot fell.
        chosen = restored.registry.instance(instance.key).bundles[
            "where"].chosen
        assert chosen.option_name == "onB"
        assert restored.trace_log.traces_recorded == 0

    def test_unaffected_apps_left_alone(self):
        controller = make_controller()
        on_b = controller.register_app("App")
        state_b = controller.setup_bundle(on_b, """
harmonyBundle App pin {
    {only {node n {hostname nodeB} {seconds 5} {memory 16}}}}""")
        switch_count_before = state_b.switch_count
        controller.handle_node_failure("nodeA")
        assert state_b.chosen.option_name == "only"
        assert state_b.switch_count == switch_count_before

    def test_stranded_app_reported_and_unconfigured(self):
        controller = make_controller()
        instance = controller.register_app("App")
        state = controller.setup_bundle(instance, """
harmonyBundle App pin {
    {only {node n {hostname nodeA} {seconds 5} {memory 16}}}}""")
        stranded = controller.handle_node_failure("nodeA")
        assert stranded == [instance.key]
        assert state.chosen is None

    def test_failed_node_invisible_to_new_apps(self):
        controller = make_controller()
        controller.handle_node_failure("nodeA")
        instance = controller.register_app("App")
        with pytest.raises(AllocationError):
            controller.setup_bundle(instance, """
harmonyBundle App pin {
    {only {node n {hostname nodeA} {seconds 5} {memory 16}}}}""")


class TestNodeRestore:
    def test_stranded_app_recovers_after_restore(self):
        controller = make_controller()
        instance = controller.register_app("App")
        state = controller.setup_bundle(instance, """
harmonyBundle App pin {
    {only {node n {hostname nodeA} {seconds 5} {memory 16}}}}""")
        controller.handle_node_failure("nodeA")
        assert state.chosen is None

        controller.handle_node_restored("nodeA")
        assert controller.configure_stranded() == 1
        assert state.chosen.option_name == "only"

    def test_displaced_app_returns_to_better_node(self):
        controller = make_controller()
        instance = controller.register_app("App")
        state = controller.setup_bundle(instance, TWO_CHOICES)
        controller.handle_node_failure("nodeA")
        assert state.chosen.option_name == "onB"  # 14 s fallback
        changes = controller.handle_node_restored("nodeA")
        assert changes >= 1
        assert state.chosen.option_name == "onA"  # back to 10 s


class TestNodeAddition:
    def test_new_node_lets_app_widen(self):
        """An app stuck on the narrow option upgrades when a machine
        joins — adaptation to node *addition*."""
        cluster = Cluster()
        cluster.add_node("n0", memory_mb=128)
        controller = AdaptationController(cluster)
        instance = controller.register_app("Wide")
        state = controller.setup_bundle(instance, WIDE)
        assert state.chosen.option_name == "narrow"  # one node only

        cluster.add_node("n1", memory_mb=128)
        cluster.add_link("n0", "n1", 40.0)
        changes = controller.reevaluate()
        assert changes >= 1
        assert state.chosen.option_name == "wide"
        assert len(state.chosen.assignment.hostnames()) == 2
