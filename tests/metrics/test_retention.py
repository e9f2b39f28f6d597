"""Retention bounds and cumulative counters on the metric store."""

import pytest

from repro.metrics import MetricInterface
from repro.metrics.history import DEFAULT_MAX_OBSERVATIONS, TimeSeries


class TestTimeSeriesRetention:
    def test_unbounded_by_default(self):
        series = TimeSeries("s")
        for tick in range(100):
            series.append(float(tick), 1.0)
        assert len(series) == 100
        assert series.observations_dropped == 0

    def test_bound_drops_oldest(self):
        series = TimeSeries("s", max_observations=3)
        for tick in range(5):
            series.append(float(tick), float(tick * 10))
        assert len(series) == 3
        assert series.first().time == 2.0
        assert series.latest().value == 40.0
        assert series.observations_dropped == 2

    def test_queries_see_trimmed_window(self):
        series = TimeSeries("s", max_observations=4)
        for tick in range(10):
            series.append(float(tick), float(tick))
        assert series.values() == [6.0, 7.0, 8.0, 9.0]
        assert series.mean() == 7.5
        assert [obs.time for obs in series.between(0.0, 100.0)] \
            == [6.0, 7.0, 8.0, 9.0]

    @pytest.mark.parametrize("bad", [0, -1])
    def test_bound_must_be_positive(self, bad):
        with pytest.raises(ValueError):
            TimeSeries("s", max_observations=bad)

    def test_bound_of_one(self):
        series = TimeSeries("s", max_observations=1)
        series.append(0.0, 1.0)
        series.append(1.0, 2.0)
        assert len(series) == 1
        assert series.latest().value == 2.0


class TestInterfaceRetention:
    def test_default_bound_applied(self):
        metrics = MetricInterface()
        assert metrics.series("anything").max_observations \
            == DEFAULT_MAX_OBSERVATIONS

    def test_the_bound_trims_every_series(self):
        metrics = MetricInterface()
        for tick in range(DEFAULT_MAX_OBSERVATIONS + 3):
            metrics.report("s", float(tick), float(tick))
        assert len(metrics.series("s")) == DEFAULT_MAX_OBSERVATIONS
        assert metrics.series("s").observations_dropped == 3


class TestIncrement:
    def test_running_total(self):
        metrics = MetricInterface()
        assert metrics.increment("c", time=0.0) == 1.0
        assert metrics.increment("c", time=1.0) == 2.0
        assert metrics.increment("c", time=2.0, amount=3.0) == 5.0
        assert metrics.latest("c") == 5.0
        # Stored as samples of the running total (counter semantics).
        assert metrics.series("c").values() == [1.0, 2.0, 5.0]

    def test_total_survives_trimming(self):
        metrics = MetricInterface()
        for tick in range(DEFAULT_MAX_OBSERVATIONS + 8):
            metrics.increment("c", time=float(tick))
        assert metrics.latest("c") == DEFAULT_MAX_OBSERVATIONS + 8.0
