"""Allocation records: applying and releasing matched resources.

Once the matcher produces an :class:`~repro.allocation.matcher.Assignment`,
an :class:`Allocation` reserves the matched memory (and, when a predicted
duration is known, link bandwidth at the average required rate) against the
cluster, mirroring the paper's "as nodes and links are matched, we decrease
the available resources based on the application's RSL entries".

Allocations are context managers; releasing twice is a no-op.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

from repro.allocation.instantiate import ConcreteDemands
from repro.allocation.matcher import Assignment
from repro.cluster.link import SimLink
from repro.cluster.topology import Cluster
from repro.errors import AllocationError

__all__ = ["Allocation", "allocate"]

_holder_ids = itertools.count(1)


@dataclass
class Allocation:
    """Applied reservations for one configuration of one application."""

    cluster: Cluster
    demands: ConcreteDemands
    assignment: Assignment
    holder: str
    memory_by_node: dict[str, float] = field(init=False, default_factory=dict)
    reserved_links: list[SimLink] = field(init=False, default_factory=list)
    _released: bool = field(init=False, default=False)

    def memory_grants(self) -> dict[str, float]:
        """Grant mapping (``<local_name>.memory`` -> MB) for re-instantiation."""
        grants: dict[str, float] = {}
        for demand in self.demands.nodes:
            hostname = self.assignment.hostname_of(demand.local_name)
            key = f"{demand.local_name}.memory"
            grants[key] = self.memory_by_node.get(
                f"{demand.local_name}@{hostname}", demand.memory_min_mb)
        return grants

    def release(self) -> None:
        """Return all reserved memory and bandwidth to the cluster."""
        if self._released:
            return
        self._released = True
        for key in self.memory_by_node:
            _, hostname = key.split("@", 1)
            self.cluster.node(hostname).memory.release(self.holder)
        for link in self.reserved_links:
            link.release(self.holder)

    def __enter__(self) -> "Allocation":
        return self

    def __exit__(self, *_exc) -> None:
        self.release()


def allocate(cluster: Cluster, demands: ConcreteDemands,
             assignment: Assignment,
             memory_grants: Mapping[str, float] | None = None,
             predicted_duration_seconds: float | None = None,
             holder: str | None = None) -> Allocation:
    """Reserve the resources of ``assignment`` against the cluster.

    ``memory_grants`` may exceed each demand's minimum (elastic memory).
    When ``predicted_duration_seconds`` is given, each link demand reserves
    bandwidth at rate ``total_mb / duration`` along the placement's path.

    All-or-nothing: on any reservation failure everything already reserved
    is rolled back and :class:`AllocationError` propagates.
    """
    holder = holder or f"alloc-{next(_holder_ids)}"
    allocation = Allocation(cluster=cluster, demands=demands,
                            assignment=assignment, holder=holder)
    try:
        for demand in demands.nodes:
            hostname = assignment.hostname_of(demand.local_name)
            amount = demand.memory_granted(memory_grants)
            cluster.node(hostname).memory.reserve(holder, amount)
            allocation.memory_by_node[f"{demand.local_name}@{hostname}"] = amount
        if predicted_duration_seconds and predicted_duration_seconds > 0:
            for link_demand in demands.links:
                host_a = assignment.hostname_of(link_demand.endpoint_a)
                host_b = assignment.hostname_of(link_demand.endpoint_b)
                if host_a == host_b or link_demand.total_mb <= 0:
                    continue
                rate = link_demand.total_mb / predicted_duration_seconds
                for link in cluster.path_links(host_a, host_b):
                    link.reserve(holder, rate)
                    allocation.reserved_links.append(link)
    except AllocationError:
        allocation.release()
        raise
    return allocation
