"""Objective functions (paper Section 4.2).

"Our objective function currently minimizes the average completion time of
the jobs currently in the system" — that is :class:`MeanResponseTime`, the
default.  The paper also names system throughput as the usual overall
objective and asks only that an objective "be a single variable that
represents the overall behavior of the system ... a measure of goodness for
each application scaled into a common currency"; :class:`ThroughputObjective`
and :class:`WeightedMeanResponseTime` provide that flexibility.

Conventions: objectives consume a mapping of application key to predicted
response seconds and return a scalar where **lower is better** (throughput
is negated).  The decomposable objectives sum with :func:`math.fsum`, so
their value depends on *which* predictions they are given and never on the
mapping's order: a path that skips a trial leaves the prediction dictionary
in another order than its oracle, and must still read the same float.
"""

from __future__ import annotations

import math
from typing import Mapping, Protocol

from repro.errors import ControllerError

__all__ = ["Objective", "MeanResponseTime", "ThroughputObjective",
           "WeightedMeanResponseTime", "MaxResponseTime"]


class Objective(Protocol):
    """Scalarizes per-application predictions; lower is better.

    An objective may declare ``decomposable = True`` to assert it is a
    monotone function of a per-application sum: changing one
    application's prediction shifts every candidate's score equally and
    never reorders candidates that differ only elsewhere.  The
    partitioned sweep relies on this to skip provably-clean bundles
    (:meth:`repro.controller.partition.PartitionIndex.prunable`);
    objectives without the attribute (e.g. :class:`MaxResponseTime`)
    disable pruning and always get the full sweep.
    """

    name: str

    def evaluate(self, predictions: Mapping[str, float]) -> float:
        ...  # pragma: no cover - protocol


class MeanResponseTime:
    """The paper's default: average predicted completion time."""

    name = "mean-response-time"
    decomposable = True

    def evaluate(self, predictions: Mapping[str, float]) -> float:
        if not predictions:
            return 0.0
        return math.fsum(predictions.values()) / len(predictions)


class MaxResponseTime:
    """Makespan-style objective: the slowest application's response."""

    name = "max-response-time"
    # max() is not shift-invariant under other partitions' changes.
    decomposable = False

    def evaluate(self, predictions: Mapping[str, float]) -> float:
        if not predictions:
            return 0.0
        return max(predictions.values())


class ThroughputObjective:
    """System throughput: jobs per second, negated so lower is better."""

    name = "throughput"
    decomposable = True

    def evaluate(self, predictions: Mapping[str, float]) -> float:
        for key, seconds in predictions.items():
            if seconds <= 0:
                raise ControllerError(
                    f"non-positive prediction {seconds} for {key!r}")
        return -math.fsum(1.0 / seconds for seconds in predictions.values())


class WeightedMeanResponseTime:
    """Mean response with per-application importance weights.

    Unknown applications get weight 1.0 — "a measure of goodness for each
    application scaled into a common currency".
    """

    name = "weighted-mean-response-time"
    decomposable = True

    def __init__(self, weights: Mapping[str, float] | None = None):
        self.weights = dict(weights or {})
        for key, weight in self.weights.items():
            if weight < 0:
                raise ControllerError(
                    f"negative weight {weight} for {key!r}")

    def weight_of(self, app_key: str) -> float:
        # Allow weights keyed by app name as well as full app.instance keys.
        if app_key in self.weights:
            return self.weights[app_key]
        app_name = app_key.split(".", 1)[0]
        return self.weights.get(app_name, 1.0)

    def evaluate(self, predictions: Mapping[str, float]) -> float:
        if not predictions:
            return 0.0
        weights = [self.weight_of(key) for key in predictions]
        total_weight = math.fsum(weights)
        if total_weight == 0:
            return 0.0
        return math.fsum(
            weight * seconds for weight, seconds
            in zip(weights, predictions.values())) / total_weight
