"""Objective functions."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.controller import (
    MaxResponseTime,
    MeanResponseTime,
    ThroughputObjective,
    WeightedMeanResponseTime,
)
from repro.errors import ControllerError


class TestMeanResponseTime:
    def test_mean(self):
        assert MeanResponseTime().evaluate({"a": 10, "b": 20}) == 15.0

    def test_empty_is_zero(self):
        assert MeanResponseTime().evaluate({}) == 0.0

    def test_single(self):
        assert MeanResponseTime().evaluate({"a": 7}) == 7.0


class TestMaxResponseTime:
    def test_max(self):
        assert MaxResponseTime().evaluate({"a": 10, "b": 20}) == 20.0

    def test_empty(self):
        assert MaxResponseTime().evaluate({}) == 0.0


class TestThroughput:
    def test_negated_sum_of_rates(self):
        value = ThroughputObjective().evaluate({"a": 10, "b": 20})
        assert value == pytest.approx(-(0.1 + 0.05))

    def test_faster_apps_score_better(self):
        slow = ThroughputObjective().evaluate({"a": 100})
        fast = ThroughputObjective().evaluate({"a": 10})
        assert fast < slow  # lower is better

    def test_non_positive_prediction_rejected(self):
        with pytest.raises(ControllerError):
            ThroughputObjective().evaluate({"a": 0})


class TestWeightedMean:
    def test_defaults_to_plain_mean(self):
        weighted = WeightedMeanResponseTime()
        assert weighted.evaluate({"a": 10, "b": 20}) == 15.0

    def test_weights_shift_the_mean(self):
        weighted = WeightedMeanResponseTime({"a": 3.0})
        assert weighted.evaluate({"a": 10, "b": 20}) == \
            pytest.approx((3 * 10 + 20) / 4)

    def test_weight_by_app_name_matches_instances(self):
        weighted = WeightedMeanResponseTime({"DBclient": 2.0})
        assert weighted.weight_of("DBclient.7") == 2.0
        assert weighted.weight_of("Other.1") == 1.0

    def test_full_key_beats_app_name(self):
        weighted = WeightedMeanResponseTime({"DBclient": 2.0,
                                             "DBclient.7": 5.0})
        assert weighted.weight_of("DBclient.7") == 5.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ControllerError):
            WeightedMeanResponseTime({"a": -1})

    def test_all_zero_weights(self):
        weighted = WeightedMeanResponseTime({"a": 0.0})
        assert weighted.evaluate({"a": 10}) == 0.0


@given(st.dictionaries(st.text(min_size=1, max_size=5),
                       st.floats(min_value=0.1, max_value=1e5),
                       min_size=1, max_size=10))
def test_mean_bounded_by_min_and_max(predictions):
    value = MeanResponseTime().evaluate(predictions)
    assert min(predictions.values()) - 1e-9 <= value \
        <= max(predictions.values()) + 1e-9


@given(st.dictionaries(st.text(min_size=1, max_size=5),
                       st.floats(min_value=0.1, max_value=1e5),
                       min_size=1, max_size=10))
def test_improving_one_app_never_hurts_objectives(predictions):
    """Monotonicity: making any single app faster improves (or keeps) both
    the mean and throughput objectives."""
    key = sorted(predictions)[0]
    improved = dict(predictions)
    improved[key] = predictions[key] / 2
    assert MeanResponseTime().evaluate(improved) <= \
        MeanResponseTime().evaluate(predictions)
    assert ThroughputObjective().evaluate(improved) <= \
        ThroughputObjective().evaluate(predictions)


#: Predictions whose left-to-right ``sum`` depends on their order (the
#: 129.60000000000002-style values contention arithmetic produces).
ORDER_SENSITIVE = {"a.1": 129.60000000000002, "b.2": 35.04, "c.3": 61.5,
                   "d.4": 0.1, "e.5": 33.3, "f.6": 58.7}


@pytest.mark.parametrize("objective", [
    MeanResponseTime(), ThroughputObjective(),
    WeightedMeanResponseTime({"a": 3.0, "d.4": 0.7})],
    ids=lambda objective: objective.name)
def test_decomposable_objectives_ignore_mapping_order(objective):
    """A sweep that skips a trial leaves the prediction dictionary in
    another order than its oracle; both must read the same float, or a
    2e-14 "gain" decides under zero hysteresis."""
    assert objective.decomposable
    orders = list(itertools.permutations(ORDER_SENSITIVE.items()))
    values = {objective.evaluate(dict(order)) for order in orders}
    assert len(values) == 1
    # The inputs do tell the two apart: a plain sum reads several values.
    assert len({sum(dict(order).values()) for order in orders}) > 1
