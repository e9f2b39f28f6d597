"""Performance-model interfaces and the default Harmony model.

Section 4.2: "Harmony has a very simple default performance model that
combines resource usage with a simple contention model."  The default model
here computes, for one placed configuration:

* per node demand: the processor-sharing sojourn estimate
  ``sum_j min(s_j, s) / speed(node)`` over all demands sharing the node —
  the CPU phase;
* per link demand: the same estimate over flows sharing each hop,
  ``sum_j min(mb_j, mb) / bandwidth`` at the bottleneck — the network phase;
* general ``communication`` traffic is charged at the worst placed pair.

Node phases of a parallel configuration overlap (max), the network phase is
additive: ``response = max(cpu phases) + network``.

Applications with richer behaviour provide an *explicit* model — a
piecewise-linear curve from the ``performance`` tag (see
:class:`ExplicitSpecModel`) or an arbitrary callable
(:class:`CallableModel`) — exactly the paper's escape hatch for "complex
interactions between constituent processes".
"""

from __future__ import annotations

from typing import Callable, Mapping, Protocol

from repro.allocation.instantiate import ConcreteDemands
from repro.allocation.matcher import Assignment
from repro.errors import PredictionError
from repro.prediction.contention import SystemView, sojourn
from repro.prediction.piecewise import PiecewiseLinearModel
from repro.rsl.model import PerformanceSpec

__all__ = ["PerformanceModel", "DefaultModel", "ExplicitSpecModel",
           "ExpressionSpecModel", "CallableModel", "model_for_spec"]


class PerformanceModel(Protocol):
    """Predicts a configuration's response time under a system view."""

    def predict(self, demands: ConcreteDemands, assignment: Assignment,
                view: SystemView, app_key: str | None = None) -> float:
        """Projected completion seconds for one job/query/iteration.

        ``app_key`` identifies this configuration inside ``view`` so that
        contention estimates do not double-count the job against itself.
        """
        ...  # pragma: no cover - protocol


class DefaultModel:
    """Harmony's default CPU + network contention model.

    CPU contention uses the processor-sharing sojourn estimate
    :func:`~repro.prediction.contention.sojourn` (``sum_j min(s_j, s)``), so a
    short competitor adds only its own length while an equal competitor
    doubles the job — the asymmetry that drives the database crossover.

    The model evaluates the rows of the configuration's compiled
    :class:`~repro.prediction.contention.PlacementFootprint` — the view's
    indexed one when it is placed there, else one compiled for the call —
    so a prediction walks no cluster path.  A transfer costs its slowest
    hop, ``effective / bandwidth + latency``.
    """

    def predict(self, demands: ConcreteDemands, assignment: Assignment,
                view: SystemView, app_key: str | None = None) -> float:
        footprint = view.compiled(demands, assignment, app_key)
        if footprint.fault is not None:
            error, message = footprint.fault
            raise error(message)
        host_entries, external_cpu, link_entries, external_flows = \
            view.contention_tables()
        cpu_phase = 0.0
        for hostname, seconds, speed in footprint.cpu_rows:
            cpu_phase = max(cpu_phase, sojourn(
                seconds, host_entries.get(hostname), app_key,
                external_cpu.get(hostname, 0.0)) / speed)
        network_phase = 0.0
        for megabytes, hops in footprint.link_rows:
            network_phase += _slowest_hop(hops, megabytes, app_key,
                                          link_entries, external_flows)
        if footprint.comm_hops:
            # All-pairs traffic, charged at the slowest placed pair.
            network_phase += _slowest_hop(
                footprint.comm_hops, footprint.comm_mb, app_key,
                link_entries, external_flows)
        return cpu_phase + network_phase


def _slowest_hop(hops: tuple, megabytes: float, app_key: str | None,
                 link_entries: Mapping, external_flows: Mapping) -> float:
    """Seconds of a transfer at its slowest ``(key, bandwidth, latency)``
    hop, its megabytes shared fairly with the flows on each."""
    worst = 0.0
    for key, bandwidth, latency in hops:
        worst = max(worst, sojourn(
            megabytes, link_entries.get(key), app_key,
            external_flows.get(key, 0.0)) / bandwidth + latency)
    return worst


class ExplicitSpecModel:
    """An application-supplied piecewise-linear model over one parameter.

    The parameter is a variable of the configuration (e.g. ``workerNodes``);
    when the spec names none, the number of placed nodes is used — matching
    the paper's Bag example, whose data points map node counts to expected
    running times.  Contention on the placed nodes still stretches the
    curve's prediction: the user curve describes the *unloaded* runtime.
    """

    def __init__(self, spec: PerformanceSpec, apply_contention: bool = True):
        self.spec = spec
        self.curve = PiecewiseLinearModel.from_spec(spec)
        self.apply_contention = apply_contention

    def predict(self, demands: ConcreteDemands, assignment: Assignment,
                view: SystemView, app_key: str | None = None) -> float:
        x = self._parameter_value(demands)
        base = self.curve.predict(x)
        if not self.apply_contention:
            return base
        stretch = 1.0
        for demand in demands.nodes:
            if not demand.seconds:
                continue
            hostname = assignment.hostname_of(demand.local_name)
            node = view.cluster.node(hostname)
            stretch = max(stretch,
                          view.contention_factor(hostname) / node.speed)
        return base * stretch

    def _parameter_value(self, demands: ConcreteDemands) -> float:
        if self.spec.parameter is not None:
            value = demands.variable_assignment.get(self.spec.parameter)
            if value is None:
                raise PredictionError(
                    f"performance parameter {self.spec.parameter!r} is not "
                    f"a variable of configuration {demands.option_name!r}")
            return value
        if len(demands.variable_assignment) == 1:
            return next(iter(demands.variable_assignment.values()))
        return float(len(demands.nodes))


class ExpressionSpecModel:
    """An application-supplied closed-form runtime expression.

    The paper's alternative to data points: "an explicit specification
    might include either an expression or a function".  The expression is
    evaluated against the configuration's variable assignment plus the
    per-node memory the controller granted (under ``<node>.memory``) and
    the placed node count (``nodes``); node contention stretches the
    result exactly as for the piecewise model.
    """

    def __init__(self, spec: PerformanceSpec, apply_contention: bool = True):
        if spec.expression is None:
            raise PredictionError(
                "ExpressionSpecModel needs a performance expression")
        self.spec = spec
        self.expression = spec.expression
        self.apply_contention = apply_contention

    def predict(self, demands: ConcreteDemands, assignment: Assignment,
                view: SystemView, app_key: str | None = None) -> float:
        env = dict(demands.variable_assignment)
        env["nodes"] = float(len(demands.nodes))
        for demand in demands.nodes:
            env.setdefault(f"{demand.local_name}.memory",
                           demand.memory_min_mb)
        base = self.expression.evaluate(env)
        if base < 0:
            raise PredictionError(
                f"performance expression produced negative time {base}")
        if not self.apply_contention:
            return base
        stretch = 1.0
        for demand in demands.nodes:
            if not demand.seconds:
                continue
            hostname = assignment.hostname_of(demand.local_name)
            node = view.cluster.node(hostname)
            stretch = max(stretch,
                          view.contention_factor(hostname) / node.speed)
        return base * stretch


class CallableModel:
    """Adapts an arbitrary function into a performance model.

    The callable receives ``(demands, assignment, view)`` keyword-free and
    returns seconds — the Python analogue of the paper's TCL prediction
    scripts.
    """

    def __init__(self, func: Callable[[ConcreteDemands, Assignment,
                                       SystemView], float]):
        self._func = func

    def predict(self, demands: ConcreteDemands, assignment: Assignment,
                view: SystemView, app_key: str | None = None) -> float:
        value = float(self._func(demands, assignment, view))
        if value < 0:
            raise PredictionError(
                f"callable model returned negative time {value}")
        return value


def model_for_spec(spec: PerformanceSpec | None,
                   default: PerformanceModel | None = None,
                   ) -> PerformanceModel:
    """The model to use for an option: explicit when a spec exists.

    This is the dispatch rule of Section 3.1's "performance prediction":
    Harmony's default model unless the application overrides it — with
    data points (piecewise interpolation) or a closed-form expression.
    """
    if spec is not None and spec.points:
        return ExplicitSpecModel(spec)
    if spec is not None and spec.expression is not None:
        return ExpressionSpecModel(spec)
    return default if default is not None else DefaultModel()
