"""Partition telemetry: fixed-cardinality metrics, one sweep span.

The partitioned optimizer reports only *aggregates* to the metric
interface and one ``optimizer.sweep`` span per sweep, so a system that
fragments into thousands of components cannot blow up exporter
cardinality.  Its counters also show what partitioning buys: the work
an admission costs does not grow with the number of pods.
"""

import pytest

from repro.controller import (
    AdaptationController,
    CoalescingScheduler,
    ModelDrivenPolicy,
)
from repro.controller.partition import bundle_key
from repro.obs import Tracer, json_snapshot, prometheus_text
from tests.oracle import unpruned
from tests.pods import POD_RSL, build_pod_cluster

#: The complete partition metric surface: these names, and nothing else
#: under ``optimizer.partition``/``optimizer.partitions``, regardless of
#: how many components exist.
PARTITION_METRICS = {
    "optimizer.partition.sweeps",
    "optimizer.partition.pruned_bundles",
    "optimizer.partition.pruned_pairs",
}


def run_pods(pods, tracer=None, pairwise=False, serial=False):
    controller = AdaptationController(
        build_pod_cluster(pods), tracer=tracer,
        policy=ModelDrivenPolicy(pairwise_exchange=pairwise))
    if serial:
        unpruned(controller)
    for index in range(pods * 2):
        pod = index % pods
        instance = controller.register_app(f"Pod{pod}App{index}")
        controller.setup_bundle(instance,
                                POD_RSL.format(pod=pod, index=index))
    controller.reevaluate()
    return controller


def partition_metric_names(metrics):
    return {name for name in metrics.names()
            if name == "optimizer.partitions"
            or name.startswith("optimizer.partition.")}


def components(controller):
    return controller.partition_index.components(
        (bundle_key(instance, state), state)
        for instance in controller.registry.instances()
        for state in instance.bundles.values())


class TestMetricSurface:
    def test_aggregates_are_published(self):
        controller = run_pods(pods=3)
        assert partition_metric_names(controller.metrics) == \
            PARTITION_METRICS
        assert sorted(len(members) for members, _ in
                      components(controller)) == [2, 2, 2]
        assert controller.metrics.latest(
            "optimizer.partition.sweeps") >= 1.0
        assert controller.metrics.latest(
            "optimizer.partition.pruned_bundles") > 0.0

    def test_pairwise_skips_are_counted(self):
        """Three pods of two: 15 pairs a pass, 3 of them inside a pod."""
        scoped = run_pods(pods=3, pairwise=True)
        stats = scoped.stats.snapshot()
        assert stats["pairs_evaluated"] > 0
        assert stats["pruned_pairs"] > stats["pairs_evaluated"]
        assert scoped.metrics.latest(
            "optimizer.partition.pruned_pairs") == stats["pruned_pairs"]
        # The serial pass visits the same pairs and searches them all.
        serial = run_pods(pods=3, pairwise=True, serial=True)
        assert serial.stats.pruned_pairs == 0
        assert serial.stats.pairs_evaluated == \
            stats["pairs_evaluated"] + stats["pruned_pairs"]
        assert scoped.stats.candidates_evaluated < \
            serial.stats.candidates_evaluated

    def test_cardinality_is_independent_of_component_count(self):
        few = run_pods(pods=2)
        many = run_pods(pods=8)
        assert partition_metric_names(few.metrics) == \
            partition_metric_names(many.metrics) == PARTITION_METRICS


class TestPartitionedAdmission:
    """A pod-by-pod rollout through the coalescing scheduler, flushed
    every 64 admissions: each batched sweep prunes the pods the batch
    never touched, so the work an admission costs does not grow with
    the pod count."""

    APPS_PER_POD = 16

    def admit(self, pods):
        controller = AdaptationController(
            build_pod_cluster(pods, nodes_per_pod=8),
            policy=ModelDrivenPolicy(pairwise_exchange=False))
        scheduler = CoalescingScheduler(controller, coalesce_window=0.0,
                                        max_delay=0.0)
        for index in range(pods * self.APPS_PER_POD):
            pod = index // self.APPS_PER_POD
            instance = controller.register_app(f"Pod{pod}App{index}")
            controller.setup_bundle(instance,
                                    POD_RSL.format(pod=pod, index=index))
            if index % 64 == 63:
                scheduler.flush()
        scheduler.flush()
        return controller, scheduler

    def test_work_per_app_does_not_grow_with_the_pods(self):
        per_app = []
        for pods in (8, 16):
            controller, scheduler = self.admit(pods)
            apps = pods * self.APPS_PER_POD
            assert all(state.chosen is not None
                       for instance in controller.registry.instances()
                       for state in instance.bundles.values())
            assert len(components(controller)) == pods
            stats = controller.stats.snapshot()
            assert stats["partition_sweeps"] == scheduler.batches_run > 0
            assert stats["pruned_bundles"] > 0
            for node in controller.cluster.nodes():
                assert node.memory.reserved_mb <= \
                    node.memory.total_mb + 1e-9
            per_app.append((stats["candidates_evaluated"] / apps,
                            stats["predictions_recomputed"] / apps))
        assert per_app[0] == per_app[1]
        candidates, predictions = per_app[0]
        assert candidates <= 4.0 and predictions <= 11.5


class TestExporters:
    def test_prometheus_text_sanitizes_names(self):
        controller = run_pods(pods=2)
        text = prometheus_text(controller.metrics,
                               prefix="optimizer.partition")
        assert "optimizer_partition_sweeps" in text
        assert "optimizer_partition_pruned_bundles" in text
        # No per-partition series leaked into the exposition.
        assert "partition_1" not in text and "partition_2" not in text

    def test_json_snapshot_round_trips(self):
        import json

        controller = run_pods(pods=2)
        snapshot = json_snapshot(controller.metrics, prefix="optimizer")
        encoded = json.loads(json.dumps(snapshot))
        assert encoded["metrics"]["optimizer.partition.sweeps"][
            "latest"] == controller.stats.partition_sweeps
        assert "optimizer.partition.pruned_bundles" in encoded["metrics"]


class TestSpans:
    def test_one_sweep_span_per_sweep_carries_totals(self):
        tracer = Tracer()
        controller = run_pods(pods=3, tracer=tracer)
        spans = tracer.find("optimizer.sweep")
        assert len(spans) == controller.stats.partition_sweeps
        for span in spans:
            assert set(span.attributes) == {
                "evaluated", "changes", "pruned"}
            assert span.attributes["changes"] <= \
                span.attributes["evaluated"]
        # The last sweep visits every bundle once: scored or pruned.
        last = spans[-1].attributes
        assert last["evaluated"] + last["pruned"] == 6
        assert sum(span.attributes["pruned"] for span in spans) == \
            controller.stats.pruned_bundles
        assert not [s for s in tracer.spans
                    if s.name.startswith("optimizer.partition")]

    def test_scheduler_batch_span_reports_pruned_candidates(self):
        from repro.controller import CoalescingScheduler

        tracer = Tracer()
        controller = run_pods(pods=2, tracer=tracer)
        scheduler = CoalescingScheduler(controller, coalesce_window=0.0,
                                        max_delay=0.0)
        scheduler.request("test")
        assert scheduler.flush()
        batch = tracer.find("scheduler.batch")[-1]
        assert "partitions" not in batch.attributes
        assert batch.attributes["pruned_candidates"] > 0
