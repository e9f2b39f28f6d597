"""Piecewise-linear interpolation model."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import PredictionError
from repro.prediction import PiecewiseLinearModel
from repro.rsl.model import PerformancePoint, PerformanceSpec


def model(*pairs):
    return PiecewiseLinearModel([PerformancePoint(x, y) for x, y in pairs])


class TestInterpolation:
    def test_exact_points(self):
        curve = model((1, 2400), (2, 1212), (4, 708), (8, 888))
        assert curve.predict(1) == 2400
        assert curve.predict(4) == 708

    def test_midpoint_interpolation(self):
        curve = model((2, 100), (4, 200))
        assert curve.predict(3) == pytest.approx(150.0)

    def test_paper_interpolation_between_4_and_8(self):
        curve = model((4, 708), (8, 888))
        assert curve.predict(6) == pytest.approx(798.0)

    def test_extrapolation_below_extends_first_segment(self):
        curve = model((2, 100), (4, 200))
        assert curve.predict(1) == pytest.approx(50.0)

    def test_extrapolation_above_extends_last_segment(self):
        curve = model((2, 100), (4, 200))
        assert curve.predict(6) == pytest.approx(300.0)

    def test_extrapolation_never_negative(self):
        curve = model((2, 100), (4, 10))
        assert curve.predict(10) == 0.0

    def test_single_point_is_constant(self):
        curve = model((4, 99))
        assert curve.predict(1) == 99
        assert curve.predict(100) == 99

    def test_domain(self):
        assert model((2, 1), (8, 1)).domain == (2, 8)


class TestValidation:
    def test_empty_points_rejected(self):
        with pytest.raises(PredictionError):
            PiecewiseLinearModel([])

    def test_duplicate_x_rejected(self):
        with pytest.raises(PredictionError):
            model((2, 1), (2, 3))

    def test_unsorted_input_accepted_and_sorted(self):
        curve = model((4, 200), (2, 100))
        assert curve.predict(3) == pytest.approx(150.0)

    def test_from_spec(self):
        spec = PerformanceSpec(points=(PerformancePoint(1, 10),
                                       PerformancePoint(2, 5)))
        assert PiecewiseLinearModel.from_spec(spec).predict(2) == 5.0

    def test_from_spec_without_points_rejected(self):
        from repro.rsl import parse_expression
        spec = PerformanceSpec(expression=parse_expression("1"))
        with pytest.raises(PredictionError):
            PiecewiseLinearModel.from_spec(spec)


class TestMinimum:
    def test_picks_minimum_runtime(self):
        curve = model((1, 2400), (2, 1212), (4, 708), (5, 672), (8, 888))
        assert min([1, 2, 4, 5, 8], key=curve.predict) == 5

    def test_figure4_curve_minimum_at_five(self):
        from repro.apps.bag import speedup_curve_points
        points = speedup_curve_points(2400, range(1, 9), overhead_alpha=12)
        curve = model(*points)
        assert min(range(1, 9), key=curve.predict) == 5


@given(st.lists(
    st.tuples(st.integers(1, 100), st.integers(0, 10_000)),
    min_size=2, max_size=8,
    unique_by=lambda pair: pair[0]))
def test_interpolation_stays_within_segment_bounds(points):
    curve = PiecewiseLinearModel(
        [PerformancePoint(float(x), float(y)) for x, y in points])
    ordered = sorted(points)
    for (x0, y0), (x1, y1) in zip(ordered, ordered[1:]):
        mid = (x0 + x1) / 2
        low, high = min(y0, y1), max(y0, y1)
        assert low - 1e-9 <= curve.predict(mid) <= high + 1e-9
