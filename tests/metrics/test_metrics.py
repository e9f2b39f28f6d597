"""Metric interface: time series, registry, pub/sub, collectors."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster import Cluster
from repro.metrics import (
    ClusterCollector,
    MetricInterface,
    TimeSeries,
    link_metric_name,
    node_metric_name,
)


class TestTimeSeries:
    def test_append_and_latest(self):
        series = TimeSeries("t")
        series.append(1.0, 10.0)
        series.append(2.0, 20.0)
        assert series.latest().value == 20.0
        assert series.first().value == 10.0
        assert len(series) == 2

    def test_non_monotonic_append_rejected(self):
        series = TimeSeries("t")
        series.append(5.0, 1.0)
        with pytest.raises(ValueError):
            series.append(4.0, 1.0)

    def test_equal_timestamps_allowed(self):
        series = TimeSeries("t")
        series.append(5.0, 1.0)
        series.append(5.0, 2.0)
        assert len(series) == 2

    def test_mean_window_is_inclusive(self):
        series = TimeSeries("t")
        for t in range(10):
            series.append(float(t), float(t * t))
        assert series.mean(3.0, 6.0) == pytest.approx((9 + 16 + 25 + 36) / 4)

    def test_mean_whole_series(self):
        series = TimeSeries("t")
        for value in (1, 2, 3):
            series.append(float(value), float(value))
        assert series.mean() == pytest.approx(2.0)

    def test_mean_empty_window_is_none(self):
        series = TimeSeries("t")
        series.append(1.0, 1.0)
        assert series.mean(10.0, 20.0) is None

    def test_windowed_mean(self):
        series = TimeSeries("t")
        for t in range(10):
            series.append(float(t), float(t))
        assert series.windowed_mean(now=9.0, window_seconds=2.0) == \
            pytest.approx(8.0)

    def test_latest_of_empty_is_none(self):
        assert TimeSeries("t").latest() is None

    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=40))
    def test_mean_matches_arithmetic(self, values):
        series = TimeSeries("t")
        for index, value in enumerate(values):
            series.append(float(index), value)
        assert series.mean() == pytest.approx(sum(values) / len(values))


class TestMetricInterface:
    def test_report_and_query(self):
        metrics = MetricInterface()
        metrics.report("app.x.response", 1.0, 5.0)
        metrics.report("app.x.response", 2.0, 7.0)
        assert metrics.latest("app.x.response") == 7.0

    def test_latest_of_unreported_is_none(self):
        assert MetricInterface().latest("ghost") is None

    def test_names_with_prefix(self):
        metrics = MetricInterface()
        metrics.report("node.a.cpu", 0, 1)
        metrics.report("node.b.cpu", 0, 1)
        metrics.report("link.a--b.x", 0, 1)
        assert metrics.names("node") == ["node.a.cpu", "node.b.cpu"]
        assert len(metrics.names()) == 3

    def test_prefix_does_not_match_partial_component(self):
        metrics = MetricInterface()
        metrics.report("node.abc.cpu", 0, 1)
        assert metrics.names("node.ab") == []

    def test_forget_drops_the_series_under_a_prefix(self):
        metrics = MetricInterface()
        for name in ("controller.A.1.size.option", "controller.A.1.x",
                     "controller.A.11.size.option", "controller.objective"):
            metrics.report(name, 0, 1)
        metrics.forget("controller.A.1")
        assert metrics.names() == ["controller.A.11.size.option",
                                   "controller.objective"]
        metrics.forget("controller.nobody")      # nothing to drop: fine
        metrics.report("controller.A.1.x", 1, 2)  # a name may come back
        assert metrics.latest("controller.A.1.x") == 2

    def test_subscription_pushes_matching(self):
        metrics = MetricInterface()
        seen = []
        metrics.subscribe("app.x", lambda name, obs: seen.append(
            (name, obs.value)))
        metrics.report("app.x.response", 1.0, 5.0)
        metrics.report("app.y.response", 1.0, 9.0)
        assert seen == [("app.x.response", 5.0)]

    def test_unsubscribe(self):
        metrics = MetricInterface()
        seen = []
        cancel = metrics.subscribe("a", lambda n, o: seen.append(n))
        cancel()
        metrics.report("a.b", 0, 1)
        assert seen == []

    def test_windowed_mean_via_interface(self):
        metrics = MetricInterface()
        for t in range(5):
            metrics.report("m", float(t), float(t))
        assert metrics.windowed_mean("m", now=4.0, window_seconds=1.0) == \
            pytest.approx(3.5)


class TestClusterCollector:
    def test_samples_all_nodes_and_links(self, kernel):
        cluster = Cluster.full_mesh(["a", "b"], kernel=kernel)
        metrics = MetricInterface()
        collector = ClusterCollector(cluster, metrics, period_seconds=10.0)
        collector.start()
        kernel.run(until=35.0)
        assert collector.samples_taken == 4  # t = 0, 10, 20, 30
        assert metrics.latest(node_metric_name("a", "cpu_load")) == 0.0
        assert metrics.latest(
            link_metric_name("a", "b", "available_mbps")) == 40.0

    def test_idle_links_report_zero_transfers_without_a_pipe(self, kernel):
        cluster = Cluster.full_mesh(["a", "b", "c"], kernel=kernel)
        metrics = MetricInterface()
        ClusterCollector(cluster, metrics).sample_once()
        assert metrics.latest(
            link_metric_name("a", "b", "active_transfers")) == 0.0
        assert all(link._pipe is None for link in cluster.links())

    def test_observes_a_running_transfer(self, kernel):
        cluster = Cluster.full_mesh(["a", "b"], bandwidth_mbps=10.0,
                                    kernel=kernel)
        metrics = MetricInterface()
        ClusterCollector(cluster, metrics, period_seconds=1.0).start()

        def job():
            yield cluster.link_between("a", "b").transfer(20.0)
        kernel.spawn(job())
        kernel.run(until=4.0)
        series = metrics.series(
            link_metric_name("a", "b", "active_transfers"))
        values = [obs.value for obs in series]
        assert max(values) == 1.0 and values[-1] == 0.0

    def test_observes_running_work(self, kernel):
        cluster = Cluster.full_mesh(["a", "b"], kernel=kernel)
        metrics = MetricInterface()
        collector = ClusterCollector(cluster, metrics, period_seconds=1.0)
        collector.start()

        def job():
            yield cluster.node("a").compute(5.0)
        kernel.spawn(job())
        kernel.run(until=3.0)
        series = metrics.series(node_metric_name("a", "cpu_load"))
        assert max(obs.value for obs in series) == 1.0

    def test_memory_reservation_visible(self, kernel):
        cluster = Cluster.full_mesh(["a"], memory_mb=100, kernel=kernel)
        cluster.node("a").memory.reserve("app", 60)
        metrics = MetricInterface()
        ClusterCollector(cluster, metrics).sample_once()
        assert metrics.latest(
            node_metric_name("a", "memory_available_mb")) == 40.0

    def test_stop_halts_sampling(self, kernel):
        cluster = Cluster.full_mesh(["a"], kernel=kernel)
        metrics = MetricInterface()
        collector = ClusterCollector(cluster, metrics, period_seconds=1.0)
        collector.start()
        kernel.run(until=5.0)
        collector.stop()
        kernel.run(until=20.0)
        assert collector.samples_taken <= 7

    def test_invalid_period_rejected(self, kernel):
        cluster = Cluster.full_mesh(["a"], kernel=kernel)
        with pytest.raises(ValueError):
            ClusterCollector(cluster, MetricInterface(), period_seconds=0)

    def test_link_name_is_order_free(self):
        assert link_metric_name("b", "a", "x") == link_metric_name(
            "a", "b", "x")
