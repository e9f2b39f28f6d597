"""Partition telemetry: fixed-cardinality metrics, per-partition spans.

The partitioned optimizer reports only *aggregates* to the metric
interface — partition ids appear as span attributes (bounded by span
retention), never as metric names, so a system that fragments into
thousands of partitions cannot blow up exporter cardinality.
"""

import pytest

from repro.controller import AdaptationController, ModelDrivenPolicy
from repro.obs import Tracer, json_snapshot, prometheus_text
from tests.oracle import unpruned
from tests.pods import POD_RSL, build_pod_cluster

#: The complete partition metric surface: these names, and nothing else
#: under ``optimizer.partition``/``optimizer.partitions``, regardless of
#: how many partitions exist.
PARTITION_METRICS = {
    "optimizer.partitions",
    "optimizer.partition.sweeps",
    "optimizer.partition.pruned_bundles",
    "optimizer.partition.pruned_pairs",
    "optimizer.partition.merges",
    "optimizer.partition.rebuilds",
    "optimizer.partition.largest",
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


class TestMetricSurface:
    def test_aggregates_are_published(self):
        controller = run_pods(pods=3)
        assert partition_metric_names(controller.metrics) == \
            PARTITION_METRICS
        assert controller.metrics.latest("optimizer.partitions") == 3.0
        assert controller.metrics.latest(
            "optimizer.partition.sweeps") >= 1.0
        assert controller.metrics.latest(
            "optimizer.partition.pruned_bundles") > 0.0
        assert controller.metrics.latest(
            "optimizer.partition.largest") == 2.0

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

    def test_cardinality_is_independent_of_partition_count(self):
        few = run_pods(pods=2)
        many = run_pods(pods=8)
        assert partition_metric_names(few.metrics) == \
            partition_metric_names(many.metrics) == PARTITION_METRICS


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
        assert encoded["metrics"]["optimizer.partitions"]["latest"] == 2.0
        assert "optimizer.partition.sweeps" in encoded["metrics"]


class TestSpans:
    def test_partition_sweep_spans_carry_ids_as_attributes(self):
        tracer = Tracer()
        controller = run_pods(pods=3, tracer=tracer)
        spans = tracer.find("optimizer.partition_sweep")
        assert spans
        for span in spans:
            assert set(span.attributes) == {
                "partition", "size", "evaluated", "changes", "pruned"}
        # The span name is shared; ids live in attributes only.
        names = {s.name for s in tracer.spans
                 if s.name.startswith("optimizer.partition")}
        assert names == {"optimizer.partition_sweep"}

    def test_scheduler_batch_span_reports_partition_counts(self):
        from repro.controller import CoalescingScheduler

        tracer = Tracer()
        controller = run_pods(pods=2, tracer=tracer)
        scheduler = CoalescingScheduler(controller, coalesce_window=0.0,
                                        max_delay=0.0)
        scheduler.request("test")
        assert scheduler.flush()
        batch = tracer.find("scheduler.batch")[-1]
        assert batch.attributes["partitions"] == 2
        assert batch.attributes["pruned_candidates"] >= 0
