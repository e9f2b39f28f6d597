"""Piecewise-linear performance models (the ``performance`` tag).

"The 'performance' tag expects a list of data-points, that specify the
expected running time of the application when using a specific number of
nodes.  Rather than requiring the user to specify all of the points
explicitly, Harmony will interpolate using a piecewise linear curve based on
the supplied values."
"""

from __future__ import annotations

import bisect

from repro.errors import PredictionError
from repro.rsl.model import PerformancePoint, PerformanceSpec

__all__ = ["PiecewiseLinearModel"]


class PiecewiseLinearModel:
    """Interpolates (x, seconds) data points with a piecewise-linear curve.

    Outside the sampled range the nearest segment is extended linearly, but
    never below zero — extrapolated runtimes are clamped at 0.  A
    single-point model is constant.
    """

    def __init__(self, points: list[PerformancePoint] | tuple[PerformancePoint, ...]):
        if not points:
            raise PredictionError("piecewise model needs at least one point")
        ordered = sorted(points, key=lambda p: p.x)
        xs = [p.x for p in ordered]
        if len(set(xs)) != len(xs):
            raise PredictionError("piecewise model has duplicate x values")
        self._xs = xs
        self._ys = [p.seconds for p in ordered]

    @classmethod
    def from_spec(cls, spec: PerformanceSpec) -> "PiecewiseLinearModel":
        if not spec.points:
            raise PredictionError(
                "performance spec has no data points to interpolate")
        return cls(list(spec.points))

    @property
    def domain(self) -> tuple[float, float]:
        return self._xs[0], self._xs[-1]

    def predict(self, x: float) -> float:
        """Runtime (seconds) at ``x``, interpolated or extrapolated."""
        xs, ys = self._xs, self._ys
        if len(xs) == 1:
            return max(0.0, ys[0])
        if x <= xs[0]:
            return max(0.0, self._extend(xs[0], ys[0], xs[1], ys[1], x))
        if x >= xs[-1]:
            return max(0.0, self._extend(xs[-2], ys[-2], xs[-1], ys[-1], x))
        index = bisect.bisect_right(xs, x)
        return max(0.0, self._extend(xs[index - 1], ys[index - 1],
                                     xs[index], ys[index], x))

    @staticmethod
    def _extend(x0: float, y0: float, x1: float, y1: float, x: float) -> float:
        slope = (y1 - y0) / (x1 - x0)
        return y0 + slope * (x - x0)
