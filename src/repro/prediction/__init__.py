"""Performance prediction (paper Section 4.2).

The default model combines CPU and network requirements under a simple
contention model; applications override it with explicit piecewise-linear
curves (the ``performance`` tag) or arbitrary callables.
"""

from repro.prediction.contention import PlacedConfiguration, SystemView
from repro.prediction.models import (
    CallableModel,
    DefaultModel,
    ExplicitSpecModel,
    ExpressionSpecModel,
    PerformanceModel,
    model_for_spec,
)
from repro.prediction.piecewise import PiecewiseLinearModel

__all__ = [
    "SystemView", "PlacedConfiguration",
    "PerformanceModel", "DefaultModel", "ExplicitSpecModel",
    "ExpressionSpecModel", "CallableModel",
    "model_for_spec",
    "PiecewiseLinearModel",
]
