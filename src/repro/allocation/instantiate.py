"""Instantiate a tuning option into concrete resource demands.

A :class:`~repro.rsl.model.TuningOption` is parametric: node counts may come
from ``variable`` tags, CPU seconds may be expressions over those variables,
and link bandwidth may depend on the memory Harmony actually grants
(Figure 3's data-shipping option).  This module resolves one *configuration*
— an option plus a variable assignment plus any memory grants — into flat
:class:`NodeDemand` and :class:`LinkDemand` lists the matcher can work with.

Resolution is two-phase by nature: node demands can be computed from the
variable assignment alone, while link demands may reference granted
resources (``client.memory``).  :func:`instantiate_option` therefore takes
an optional ``grants`` mapping; absent a grant, elastic quantities resolve
to their minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import RslSemanticError
from repro.rsl.expressions import MapEnvironment
from repro.rsl.model import Quantity, TuningOption

__all__ = ["NodeDemand", "LinkDemand", "ConcreteDemands",
           "instantiate_option", "InstantiationCache"]


@dataclass(frozen=True)
class NodeDemand:
    """One machine the configuration needs (replicas already expanded)."""

    local_name: str
    hostname_pattern: str = "*"
    os: str | None = None
    seconds: float | None = None
    memory_min_mb: float = 0.0
    memory_max_mb: float = math.inf
    memory_elastic: bool = False

    def memory_granted(self, grants: Mapping[str, float] | None) -> float:
        """The memory this demand receives under ``grants`` (MB)."""
        if grants is not None:
            granted = grants.get(f"{self.local_name}.memory")
            if granted is not None:
                if granted < self.memory_min_mb - 1e-9:
                    raise RslSemanticError(
                        f"grant of {granted} MB for {self.local_name!r} is "
                        f"below the minimum {self.memory_min_mb} MB")
                return min(granted, self.memory_max_mb)
        return self.memory_min_mb


@dataclass(frozen=True)
class LinkDemand:
    """Total traffic between two named nodes of the configuration."""

    endpoint_a: str
    endpoint_b: str
    total_mb: float


@dataclass(frozen=True)
class ConcreteDemands:
    """A fully resolved configuration, ready for matching and prediction."""

    option_name: str
    variable_assignment: Mapping[str, float] = field(default_factory=dict)
    nodes: tuple[NodeDemand, ...] = ()
    links: tuple[LinkDemand, ...] = ()
    communication_mb: float | None = None

    def total_cpu_seconds(self) -> float:
        """Sum of reference-machine CPU seconds across all nodes."""
        return sum(node.seconds or 0.0 for node in self.nodes)

    def total_traffic_mb(self) -> float:
        """Sum of explicit link traffic plus general communication."""
        total = sum(link.total_mb for link in self.links)
        if self.communication_mb is not None:
            total += self.communication_mb
        return total

    def demand_named(self, local_name: str) -> NodeDemand:
        for node in self.nodes:
            if node.local_name == local_name:
                return node
        raise RslSemanticError(
            f"configuration {self.option_name!r} has no node demand "
            f"{local_name!r}")


def instantiate_option(option: TuningOption,
                       variable_assignment: Mapping[str, float] | None = None,
                       grants: Mapping[str, float] | None = None,
                       ) -> ConcreteDemands:
    """Resolve ``option`` under a variable assignment and memory grants.

    ``grants`` maps ``<local_name>.memory`` to granted MB; it also feeds any
    expressions that reference allocated resources.  Elastic quantities
    default to their minimum when no grant is present.
    """
    assignment = dict(variable_assignment or {})
    for spec in option.variables:
        if spec.name not in assignment:
            assignment[spec.name] = spec.default_value()
        elif assignment[spec.name] not in spec.values:
            raise RslSemanticError(
                f"variable {spec.name!r}: value {assignment[spec.name]} "
                f"is outside its domain {spec.values}")

    env_values: dict[str, float] = dict(assignment)
    if grants:
        env_values.update(grants)

    nodes: list[NodeDemand] = []
    for requirement in option.nodes:
        replica_env = MapEnvironment(env_values)
        for replica_name in requirement.replica_names(replica_env):
            memory_min, memory_max, elastic = _memory_bounds(
                requirement.memory, env_values)
            seconds = None
            if requirement.seconds is not None:
                seconds = requirement.seconds.value(replica_env)
                if seconds < 0:
                    raise RslSemanticError(
                        f"node {replica_name!r}: negative seconds {seconds}")
            nodes.append(NodeDemand(
                local_name=replica_name,
                hostname_pattern=requirement.hostname,
                os=requirement.os,
                seconds=seconds,
                memory_min_mb=memory_min,
                memory_max_mb=memory_max,
                memory_elastic=elastic))

    # Make every node's (possibly granted) memory visible to link and
    # communication expressions under its local name.
    link_env_values = dict(env_values)
    for demand in nodes:
        key = f"{demand.local_name}.memory"
        link_env_values.setdefault(key, demand.memory_granted(grants))
    link_env = MapEnvironment(link_env_values)

    links: list[LinkDemand] = []
    for link in option.links:
        total_mb = link.megabytes.value(link_env)
        if total_mb < 0:
            raise RslSemanticError(
                f"link {link.endpoint_a}-{link.endpoint_b}: negative "
                f"traffic {total_mb}")
        links.append(LinkDemand(endpoint_a=link.endpoint_a,
                                endpoint_b=link.endpoint_b,
                                total_mb=total_mb))

    communication_mb: float | None = None
    if option.communication is not None:
        communication_mb = option.communication.megabytes.value(link_env)
        if communication_mb < 0:
            raise RslSemanticError(
                f"communication: negative traffic {communication_mb}")

    return ConcreteDemands(
        option_name=option.name,
        variable_assignment=assignment,
        nodes=tuple(nodes),
        links=tuple(links),
        communication_mb=communication_mb)


class InstantiationCache:
    """Memoizes :func:`instantiate_option` per (option, assignment, grants).

    Instantiation is pure — the same option under the same assignment and
    grants always yields the same demands (or raises the same semantic
    error) — so the optimizer can resolve each configuration once and
    reuse it across trials, re-evaluation sweeps, and the pairwise pass.
    Failed resolutions are cached too and re-raised on every hit.

    Keys use option *identity*; each entry holds a strong reference to its
    option so the id stays valid until the option is :meth:`forget`-ten.
    """

    def __init__(self) -> None:
        self._results: dict[int, tuple[TuningOption, dict[
            tuple, ConcreteDemands | RslSemanticError]]] = {}
        self.hits = 0
        self.misses = 0

    def instantiate(self, option: TuningOption,
                    variable_assignment: Mapping[str, float] | None = None,
                    grants: Mapping[str, float] | None = None,
                    ) -> ConcreteDemands:
        results = self._results.setdefault(id(option), (option, {}))[1]
        key = (tuple(sorted((variable_assignment or {}).items())),
               tuple(sorted((grants or {}).items())))
        cached = results.get(key)
        if cached is None:
            self.misses += 1
            try:
                cached = instantiate_option(option, variable_assignment,
                                            grants=grants)
            except RslSemanticError as error:
                cached = error
            results[key] = cached
        else:
            self.hits += 1
        if isinstance(cached, RslSemanticError):
            raise cached
        return cached

    def forget(self, option: TuningOption) -> None:
        """Drop a released option's results (and the reference to it)."""
        self._results.pop(id(option), None)


def _memory_bounds(quantity: Quantity | None,
                   env_values: Mapping[str, float],
                   ) -> tuple[float, float, bool]:
    if quantity is None:
        return 0.0, math.inf, False
    if quantity.constraint is not None:
        constraint = quantity.constraint
        return constraint.minimum, constraint.maximum, constraint.elastic
    value = quantity.value(MapEnvironment(env_values))
    return value, value, False
