"""Unit tests for the partition index.

The serial-equivalence suite (test_optimizer_equivalence.py) proves the
partitioned sweep *decides* identically; these tests pin down the
index's own mechanics — component structure, merge, epochs, watermarks,
rebuilds, and opacity.
"""

import pytest

from repro.controller.partition import REBUILD_AFTER_REMOVALS
from repro.prediction import CallableModel
from repro.rsl import build_bundle
from tests.pods import POD_RSL, pod_controller

BRIDGE_RSL = """
harmonyBundle Bridge span {
    {solo {node n {hostname p*} {seconds 30} {memory 16}}}}
"""


def keys_by_pod(index, pod):
    return {key for key in
            (k for part in index.partitions() for k in part.members)
            if key[0].startswith(f"Pod{pod}")}


class TestComponentStructure:
    def test_disjoint_pods_stay_separate(self):
        controller = pod_controller(pods=3)
        index = controller.partition_index
        assert index.partition_count == 3
        # Every member of a partition belongs to the same pod.
        for part in index.partitions():
            pods = {key[0][:4] for key in part.members}
            assert len(pods) == 1

    def test_same_pod_bundles_share_a_partition(self):
        controller = pod_controller(pods=2, apps_per_pod=3)
        index = controller.partition_index
        keys = list(index._member_pid)
        pod0 = [k for k in keys if k[0].startswith("Pod0")]
        pids = {index.partition_of(k).pid for k in pod0}
        assert len(pids) == 1

    def test_spanning_bundle_merges_components(self):
        controller = pod_controller(pods=2)
        index = controller.partition_index
        assert index.partition_count == 2
        bridge = controller.register_app("Bridge")
        controller.setup_bundle(bridge, BRIDGE_RSL)
        assert index.partition_count == 1
        assert index.merges == 1

    def test_merge_invalidates_watermarks(self):
        controller = pod_controller(pods=2)
        index = controller.partition_index
        key = next(iter(index._member_pid))
        index.mark_clean(key)
        assert index.is_clean(key)
        bridge = controller.register_app("Bridge")
        controller.setup_bundle(bridge, BRIDGE_RSL)
        # The survivor's epoch was bumped past both sides' watermarks.
        assert not index.is_clean(key)


class TestWatermarks:
    def test_clean_until_partition_epoch_moves(self):
        controller = pod_controller(pods=2)
        index = controller.partition_index
        pod0_key = sorted(keys_by_pod(index, 0))[0]
        pod1_key = sorted(keys_by_pod(index, 1))[0]
        index.mark_clean(pod0_key)
        index.mark_clean(pod1_key)

        # An event inside pod 1 dirties only pod 1's component.
        index.touch_host("p1n0")
        assert index.is_clean(pod0_key)
        assert not index.is_clean(pod1_key)

    def test_touch_all_dirties_everything(self):
        controller = pod_controller(pods=2)
        index = controller.partition_index
        for key in list(index._member_pid):
            index.mark_clean(key)
        index.touch_all()
        assert not any(index.is_clean(k) for k in index._member_pid)

    def test_pair_watermark_holds_until_the_epoch_moves(self):
        controller = pod_controller(pods=2)      # 2 + 2 bundles: 6 pairs
        controller.policy.pairwise_exchange = True
        index = controller.partition_index
        controller.reevaluate()
        assert all(part.settled_epoch == part.epoch
                   for part in index.partitions())
        searched = controller.stats.pairs_evaluated
        controller.reevaluate()
        assert controller.stats.pairs_evaluated == searched
        # Pod 1 changed: its own pair is searched again, and only that —
        # the four cross-pod pairs are between bundles at their optimum.
        index.touch_host("p1n0")
        pruned = controller.stats.pruned_pairs
        controller.reevaluate()
        assert controller.stats.pairs_evaluated == searched + 1
        assert controller.stats.pruned_pairs == pruned + 5

    def test_unknown_bundle_is_never_clean(self):
        controller = pod_controller(pods=1)
        index = controller.partition_index
        assert not index.is_clean(("ghost.1", "size"))


class TestLifecycle:
    def test_removal_keeps_component_until_rebuild(self):
        controller = pod_controller(pods=2)
        index = controller.partition_index
        bridge = controller.register_app("Bridge")
        controller.setup_bundle(bridge, BRIDGE_RSL)
        assert index.partition_count == 1
        controller.end_app(bridge)
        # Lazy removal never splits; over-broad components are safe.
        assert index.partition_count == 1
        index.rebuild()
        assert index.partition_count == 2

    def test_enough_removals_trigger_rebuild_on_refresh(self):
        controller = pod_controller(pods=2, apps_per_pod=1)
        index = controller.partition_index
        rebuilds_before = index.rebuilds
        for round_index in range(REBUILD_AFTER_REMOVALS):
            app = controller.register_app(f"Churn{round_index}")
            controller.setup_bundle(
                app, POD_RSL.format(pod=0, index=100 + round_index))
            controller.end_app(app)
        controller.reevaluate()
        assert index.rebuilds > rebuilds_before

    def test_topology_change_rebuilds_and_dirties(self):
        controller = pod_controller(pods=2)
        index = controller.partition_index
        for key in list(index._member_pid):
            index.mark_clean(key)
        controller.cluster.add_node("p0n9", memory_mb=256.0)
        controller.cluster.add_link("p0n9", "p0n0", bandwidth_mbps=100.0)
        index.refresh()
        assert not any(index.is_clean(k) for k in index._member_pid)


def scored_keys(controller):
    """Record every bundle the sweep scores (evaluates, not prunes)."""
    scored = []
    policy = controller.policy
    evaluate = policy._reevaluate_bundle_outcome

    def counting(controller, instance, state):
        scored.append((instance.key, state.bundle.bundle_name))
        return evaluate(controller, instance, state)

    policy._reevaluate_bundle_outcome = counting
    return scored


def churn_through_rebuild(controller, pod=0):
    """Admit and end apps in one pod until removals trigger a rebuild.

    Returns the bundles the triggering departure's sweep scored and the
    optimizer counters from just before it.
    """
    index = controller.partition_index
    for round_index in range(REBUILD_AFTER_REMOVALS):
        app = controller.register_app(f"Churn{round_index}")
        controller.setup_bundle(
            app, POD_RSL.format(pod=pod, index=100 + round_index))
        if round_index == REBUILD_AFTER_REMOVALS - 1:
            rebuilds = index.rebuilds
            before = controller.stats.snapshot()
            scored = scored_keys(controller)
        controller.end_app(app)
    assert index.rebuilds == rebuilds + 1
    return scored, before


class TestRebuildKeepsWhatItProved:
    """A removal rebuild splits components without touching anything an
    evaluation reads, so it keeps every valid watermark and settled pair.

    Mutation-checked: marking every member clean, carrying
    ``settled_epoch`` from an unsettled component, carrying into a
    component with an unindexed member and carrying through a topology
    rebuild (``test_topology_change_rebuilds_and_dirties``) each fail a
    test here.
    """

    def test_only_the_churned_pod_is_scored(self):
        controller = pod_controller(pods=12, apps_per_pod=1)
        controller.reevaluate()
        scored, before = churn_through_rebuild(controller)
        assert scored == [("Pod0App0.1", "size")]
        # The eleven other pods were proved clean before the rebuild.
        assert controller.stats.pruned_bundles - \
            before["pruned_bundles"] == 11

    def test_settled_pods_keep_their_pairs(self):
        controller = pod_controller(pods=6, apps_per_pod=2)
        controller.policy.pairwise_exchange = True
        controller.reevaluate()
        scored, before = churn_through_rebuild(controller)
        assert sorted(scored) == [("Pod0App0.1", "size"),
                                  ("Pod0App1.2", "size")]
        # Twelve bundles, 66 pairs: only pod 0's own pair is searched
        # again; the other five pods stayed settled through the split.
        stats = controller.stats
        assert stats.pairs_evaluated - before["pairs_evaluated"] == 1
        assert stats.pruned_pairs - before["pruned_pairs"] == 65

    def test_bridge_split_rescores_once_then_stays_clean(self):
        controller = pod_controller(pods=2)
        index = controller.partition_index
        bridge = controller.register_app("Bridge")
        controller.setup_bundle(bridge, BRIDGE_RSL)
        scored = scored_keys(controller)
        controller.end_app(bridge)
        # The departure re-scores the merged component; once settled,
        # every member is proved clean.
        controller.reevaluate()
        members = sorted(index._member_pid)
        assert sorted(set(scored)) == members
        assert all(index.is_clean(key) for key in members)
        index.rebuild()
        assert index.partition_count == 2
        assert all(index.is_clean(key) for key in members)
        del scored[:]
        controller.reevaluate()
        assert scored == []

    def test_unindexed_member_carries_nothing_into_its_component(self):
        controller = pod_controller(pods=2)
        index = controller.partition_index
        controller.reevaluate()
        # A replayed setup_bundle (crash recovery, a standby) registers
        # and places a bundle without indexing it or moving an epoch.
        late = controller.register_app("Late")
        state = controller.registry.add_bundle(
            late, build_bundle(POD_RSL.format(pod=0, index=9)))
        controller.policy.configure_new_bundle(controller, late, state)
        rebuilds = index.rebuilds
        scored = scored_keys(controller)
        controller.reevaluate()
        assert index.rebuilds == rebuilds + 1
        # Pod 0 holds the newcomer and re-scores; pod 1 stays clean.
        assert sorted(scored) == sorted(
            keys_by_pod(index, 0) | {(late.key, "size")})


class TestPrunability:
    def test_decomposable_objective_is_prunable(self):
        controller = pod_controller(pods=2)
        index = controller.partition_index
        assert index.prunable(controller.objective)

    def test_custom_model_disables_pruning(self):
        controller = pod_controller(pods=2)
        index = controller.partition_index
        instance = controller.registry.instances()[0]
        controller.register_model(
            instance, "size",
            CallableModel(lambda demands, assignment, view: 42.0))
        controller.reevaluate()  # refresh() performs the opacity rescan
        assert not index.prunable(controller.objective)

    def test_pruned_sweep_skips_clean_partitions(self):
        controller = pod_controller(pods=2, apps_per_pod=2)
        controller.reevaluate()  # settle; everything marked clean
        pruned_before = controller.stats.pruned_bundles
        controller.reevaluate()
        assert controller.stats.pruned_bundles >= pruned_before + 4

