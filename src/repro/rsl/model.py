"""Semantic model of Harmony RSL declarations.

The builder (:mod:`repro.rsl.builder`) turns parsed RSL lists into the
classes here.  These are what the rest of the system consumes: the matcher
reads :class:`NodeRequirement` and :class:`LinkRequirement`, the prediction
package reads :class:`PerformanceSpec`, and the controller walks
:class:`Bundle`/:class:`TuningOption` to enumerate the configuration space.

Terminology follows the paper:

* a **bundle** is a set of mutually exclusive configuration alternatives;
* each alternative is a **tuning option**;
* options may declare **variables** (the ``variable`` tag) whose values span
  an additional axis — e.g. Bag's ``workerNodes in {1 2 4 8}``;
* quantities (seconds, memory, bandwidth) are **parametric**: constants,
  interval constraints (``>= 32``), or expressions over allocated resources.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.errors import RslSemanticError
from repro.rsl.constraints import Constraint
from repro.rsl.expressions import Environment, Expression, MapEnvironment

__all__ = [
    "Quantity",
    "NodeRequirement",
    "LinkRequirement",
    "CommunicationRequirement",
    "PerformancePoint",
    "PerformanceSpec",
    "GranularitySpec",
    "VariableSpec",
    "FrictionSpec",
    "TuningOption",
    "Bundle",
    "NodeAdvertisement",
]


@dataclass(frozen=True)
class Quantity:
    """A resource amount: a constraint, a parametric expression, or both.

    Exactly one of ``constraint``/``expression`` is set.  Constraints cover
    constants (``20``) and elastic intervals (``>= 32``); expressions cover
    parametric amounts (``2400 / workerNodes``).
    """

    constraint: Constraint | None = None
    expression: Expression | None = None

    def __post_init__(self) -> None:
        if (self.constraint is None) == (self.expression is None):
            raise RslSemanticError(
                "Quantity requires exactly one of constraint or expression")

    @classmethod
    def of(cls, value: float) -> "Quantity":
        """An exact constant quantity."""
        return cls(constraint=Constraint.exact(value))

    @classmethod
    def parametric(cls, expression: Expression) -> "Quantity":
        return cls(expression=expression)

    @property
    def elastic(self) -> bool:
        """True when the controller may choose the allocated amount."""
        return self.constraint is not None and self.constraint.elastic

    def value(self, env: Environment | Mapping[str, float] | None = None,
              ) -> float:
        """The concrete amount.

        For an exact constraint this is the constant.  For an elastic
        constraint it is the minimum (the default allocation before the
        controller decides to give more).  For an expression it evaluates
        against ``env``.
        """
        if self.constraint is not None:
            return self.constraint.minimum
        assert self.expression is not None
        return self.expression.evaluate(_as_env(env))

    def free_variables(self) -> frozenset[str]:
        if self.expression is not None:
            return self.expression.free_variables()
        return frozenset()

    def describe(self) -> str:
        if self.constraint is not None:
            return self.constraint.describe()
        assert self.expression is not None
        return "{" + self.expression.source + "}"


def _as_env(env: Environment | Mapping[str, float] | None) -> Environment:
    if env is None:
        return MapEnvironment()
    if isinstance(env, Mapping):
        return MapEnvironment(env)
    return env


@dataclass(frozen=True)
class NodeRequirement:
    """One ``node`` tag: a machine the option needs.

    ``name`` is the option-local resource name (``server``, ``client``,
    ``worker``) used in the namespace and referenced by links.  ``replicate``
    asks the matcher to instantiate this definition N times; it may be an
    expression over option variables (Bag replicates its worker node
    ``workerNodes`` times).
    """

    name: str
    hostname: str = "*"
    os: str | None = None
    seconds: Quantity | None = None
    memory: Quantity | None = None
    replicate: Quantity = field(default_factory=lambda: Quantity.of(1))
    attributes: Mapping[str, str] = field(default_factory=dict)

    def replica_count(self, env: Environment | Mapping[str, float] | None = None,
                      ) -> int:
        count = self.replicate.value(env)
        if count < 1 or count != int(count):
            raise RslSemanticError(
                f"node {self.name!r}: replicate must be a positive integer, "
                f"got {count}")
        return int(count)

    def replica_names(self, env: Environment | Mapping[str, float] | None = None,
                      ) -> list[str]:
        """Names of the instantiated replicas.

        A single instance keeps the bare name; replicas get ``name[i]``.
        """
        count = self.replica_count(env)
        if count == 1:
            return [self.name]
        return [f"{self.name}[{i}]" for i in range(count)]


@dataclass(frozen=True)
class LinkRequirement:
    """One ``link`` tag: total bytes (MB) moved between two named nodes."""

    endpoint_a: str
    endpoint_b: str
    megabytes: Quantity

    def endpoints(self) -> tuple[str, str]:
        return (self.endpoint_a, self.endpoint_b)


@dataclass(frozen=True)
class CommunicationRequirement:
    """The ``communication`` tag: whole-application traffic (MB).

    Used when specific endpoints are not given; the paper's semantics is that
    communication is then general and all nodes must be fully connected.
    Usually parameterized by allocated resources, e.g. Bag's quadratic
    ``0.5 * workerNodes * workerNodes``.
    """

    megabytes: Quantity


@dataclass(frozen=True)
class PerformancePoint:
    """One user-supplied (resource amount, runtime seconds) data point."""

    x: float
    seconds: float


@dataclass(frozen=True)
class PerformanceSpec:
    """The ``performance`` tag: an explicit response-time model.

    Either a list of data points that Harmony interpolates with a piecewise
    linear curve (the paper's stated behaviour), or an expression evaluated
    against the allocation environment.  ``parameter`` names the x-axis
    (defaults to the node count variable when one exists).
    """

    points: tuple[PerformancePoint, ...] = ()
    expression: Expression | None = None
    parameter: str | None = None

    def __post_init__(self) -> None:
        if not self.points and self.expression is None:
            raise RslSemanticError(
                "performance tag needs data points or an expression")
        if self.points:
            xs = [p.x for p in self.points]
            if sorted(xs) != xs or len(set(xs)) != len(xs):
                raise RslSemanticError(
                    "performance data points must have strictly increasing x")


@dataclass(frozen=True)
class GranularitySpec:
    """The ``granularity`` tag: minimum seconds between option switches."""

    min_interval_seconds: float

    def __post_init__(self) -> None:
        if self.min_interval_seconds < 0:
            raise RslSemanticError("granularity must be non-negative")


@dataclass(frozen=True)
class VariableSpec:
    """The ``variable`` tag: a named tuning axis with a discrete domain.

    The paper's Bag example declares ``workerNodes`` over {1, 2, 4, 8} and
    then parameterizes other tags on it.
    """

    name: str
    values: tuple[float, ...]
    default: float | None = None

    def __post_init__(self) -> None:
        if not self.values:
            raise RslSemanticError(
                f"variable {self.name!r} has an empty domain")
        if self.default is not None and self.default not in self.values:
            raise RslSemanticError(
                f"variable {self.name!r}: default {self.default} is not in "
                f"its domain {self.values}")

    def default_value(self) -> float:
        return self.default if self.default is not None else self.values[0]


@dataclass(frozen=True)
class FrictionSpec:
    """The frictional cost of switching *into* an option (seconds).

    The paper requires the interface to express the cost of reconfiguration
    (data re-layout, index rebuilds, process migration) so the controller can
    weigh it against projected gains.
    """

    seconds: Quantity

    def cost(self, env: Environment | Mapping[str, float] | None = None,
             ) -> float:
        return self.seconds.value(env)


@dataclass(frozen=True)
class TuningOption:
    """One mutually-exclusive alternative inside a bundle."""

    name: str
    nodes: tuple[NodeRequirement, ...] = ()
    links: tuple[LinkRequirement, ...] = ()
    communication: CommunicationRequirement | None = None
    performance: PerformanceSpec | None = None
    granularity: GranularitySpec | None = None
    variables: tuple[VariableSpec, ...] = ()
    friction: FrictionSpec | None = None

    def node_named(self, name: str) -> NodeRequirement:
        for node in self.nodes:
            if node.name == name:
                return node
        raise RslSemanticError(
            f"option {self.name!r} has no node named {name!r}")

    def variable_named(self, name: str) -> VariableSpec | None:
        for variable in self.variables:
            if variable.name == name:
                return variable
        return None

    def variable_assignments(self) -> Iterator[dict[str, float]]:
        """Iterate the cartesian product of all variable domains.

        With no variables, yields a single empty assignment, so callers can
        treat every option uniformly as a set of *configurations*.
        """
        def rec(index: int, bound: dict[str, float]) -> Iterator[dict[str, float]]:
            if index == len(self.variables):
                yield dict(bound)
                return
            spec = self.variables[index]
            for value in spec.values:
                bound[spec.name] = value
                yield from rec(index + 1, bound)
            del bound[spec.name]

        yield from rec(0, {})

    def configuration_count(self) -> int:
        count = 1
        for variable in self.variables:
            count *= len(variable.values)
        return count


@dataclass(frozen=True)
class Bundle:
    """A named set of mutually exclusive tuning options for one application.

    ``app_name`` and ``declared_instance`` come from the ``App:instance``
    syntax in ``harmonyBundle App:1 where {...}``; Harmony assigns its own
    runtime instance id when the application registers.
    """

    app_name: str
    bundle_name: str
    options: tuple[TuningOption, ...]
    declared_instance: int | None = None

    def __post_init__(self) -> None:
        if not self.options:
            raise RslSemanticError(
                f"bundle {self.bundle_name!r} declares no options")
        names = [option.name for option in self.options]
        if len(set(names)) != len(names):
            raise RslSemanticError(
                f"bundle {self.bundle_name!r} has duplicate option names")

    def option_named(self, name: str) -> TuningOption:
        for option in self.options:
            if option.name == name:
                return option
        raise RslSemanticError(
            f"bundle {self.bundle_name!r} has no option named {name!r}")

    def option_names(self) -> list[str]:
        return [option.name for option in self.options]

    def configuration_count(self) -> int:
        """Total number of concrete configurations across all options."""
        return sum(option.configuration_count() for option in self.options)


@dataclass(frozen=True)
class NodeAdvertisement:
    """A ``harmonyNode`` declaration: one machine's published capacity.

    ``speed`` is relative to the paper's reference machine (a 400 MHz
    Pentium II); ``memory`` is in MB.
    """

    hostname: str
    speed: float = 1.0
    memory: float = math.inf
    os: str | None = None
    attributes: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise RslSemanticError(
                f"node {self.hostname!r}: speed must be positive")
        if self.memory < 0:
            raise RslSemanticError(
                f"node {self.hostname!r}: memory must be non-negative")
