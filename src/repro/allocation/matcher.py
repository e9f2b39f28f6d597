"""Matching resource demands to cluster nodes (paper Section 4.1).

"We start by finding nodes that meet the minimum resource requirements
required by the application.  When considering nodes, we also verify that
the network links between nodes of the application meet the requirements
specified in the RSL.  Our current approach uses a simple first-fit
allocation strategy."

:class:`Matcher` implements first-fit as the paper describes, plus the
best-fit and worst-fit policies the paper lists as future work (used by the
fragmentation ablation benchmark).  Matching is a backtracking search: node
demands are assigned in order, candidates are filtered by hostname pattern,
OS, and available memory, ordered by the active strategy, and link
feasibility is re-checked as each assignment is extended.
"""

from __future__ import annotations

import enum
import fnmatch
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

from repro.allocation.instantiate import ConcreteDemands, NodeDemand
from repro.cluster.node import SimNode
from repro.cluster.topology import Cluster
from repro.errors import AllocationError, SimulationError

__all__ = ["MatchStrategy", "Assignment", "MatchPreparation", "Matcher"]


class MatchStrategy(enum.Enum):
    """Node-ordering policy for candidate selection."""

    FIRST_FIT = "first-fit"
    BEST_FIT = "best-fit"
    WORST_FIT = "worst-fit"


@dataclass(frozen=True)
class Assignment:
    """A successful match: local resource name -> cluster hostname."""

    placements: Mapping[str, str]

    def hostname_of(self, local_name: str) -> str:
        if local_name not in self.placements:
            raise AllocationError(
                f"assignment has no placement for {local_name!r}")
        return self.placements[local_name]

    def hostnames(self) -> set[str]:
        return set(self.placements.values())

    def __len__(self) -> int:
        return len(self.placements)


@dataclass
class MatchPreparation:
    """What matching derives from cluster state alone, not from demands.

    Reservations and load hold still while one bundle's configurations
    are matched, so the caller passes one preparation to every
    :meth:`Matcher.match` of the bundle: node orders (per pattern set) and
    free memory (per node looked at) are derived once, inside the first
    match that needs them.
    """

    ignore_holders: frozenset[str] = frozenset()
    #: Reads candidates off a maintained order: takes the reachable nodes
    #: in strategy order (``None``: all, insertion order), returns them
    #: in candidate order, stably.
    load_order: Callable[[list[SimNode] | None], list[SimNode]] | None = None
    ordered: dict[frozenset[str], list[SimNode]] = field(
        init=False, default_factory=dict)
    free_mb: dict[str, float] = field(init=False, default_factory=dict)
    #: Pattern set -> the furthest position any match examined in its
    #: ordered list (absent: none).
    scanned: dict[frozenset[str], int] = field(init=False,
                                               default_factory=dict)

    def examined(self) -> tuple[set[str], list[SimNode]]:
        """What the matches so far read of the nodes: the hostnames at
        or before the furthest position of each ordered list, and the
        node at each furthest position."""
        prefix: set[str] = set()
        furthest = []
        for patterns, position in self.scanned.items():
            ordered = self.ordered[patterns]
            prefix.update(node.hostname for node in ordered[:position + 1])
            furthest.append(ordered[position])
        return prefix, furthest


class Matcher:
    """Matches :class:`ConcreteDemands` against a cluster."""

    def __init__(self, cluster: Cluster,
                 strategy: MatchStrategy = MatchStrategy.FIRST_FIT):
        self.cluster = cluster
        self.strategy = strategy
        self._prepared = MatchPreparation()
        self._ordered: list[SimNode] = []
        #: The furthest position of ``_ordered`` the current match has
        #: examined.
        self._furthest = -1
        #: (patterns, topology_version) -> nodes any pattern matches, in
        #: cluster insertion order.  Pattern-restricted demands (pods,
        #: racks) then pay O(|matching nodes|) per match instead of
        #: O(cluster).
        self._pattern_memo: dict[frozenset[str],
                                 tuple[int, list[SimNode]]] = {}

    def match(self, demands: ConcreteDemands,
              extra_memory: Mapping[str, float] | None = None,
              ignore_holders: frozenset[str] | set[str] | None = None,
              prepared: MatchPreparation | None = None,
              ) -> Assignment:
        """Find a placement for every node demand, verifying links.

        ``extra_memory`` maps local names to additional MB beyond each
        demand's minimum (the controller's elastic-memory exploration).

        ``ignore_holders`` names allocation holders whose reservations
        should be treated as free — the controller passes the application's
        own holder when re-optimizing it, so a running app can re-use the
        memory it currently occupies.

        ``prepared`` carries the holders instead, with the candidate
        order the optimizer biases by current load so placements prefer
        idle nodes; the caller shares it between the configurations it
        matches against one unchanged state, and it notes how far each
        match scanned (:meth:`MatchPreparation.examined`).

        Raises:
            AllocationError: when no feasible placement exists; the message
                names the first unsatisfiable demand.
        """
        placements: dict[str, str] = {}
        self._prepared = prepared if prepared is not None else \
            MatchPreparation(frozenset(ignore_holders or ()))
        patterns = frozenset(d.hostname_pattern for d in demands.nodes)
        self._ordered = self._ordered_nodes(patterns)
        self._furthest = -1
        found = self._search(list(demands.nodes), demands, placements,
                             extra_memory or {})
        # First-fit reads the nodes up to the furthest one it examined;
        # the other strategies order by every node's free memory.
        furthest = self._furthest \
            if self.strategy is MatchStrategy.FIRST_FIT \
            else len(self._ordered) - 1
        scanned = self._prepared.scanned
        if furthest > scanned.get(patterns, -1):
            scanned[patterns] = furthest
        if found:
            return Assignment(placements=dict(placements))
        raise AllocationError(
            f"no feasible placement for configuration "
            f"{demands.option_name!r} "
            f"({len(demands.nodes)} node demands on "
            f"{len(self.cluster.hostnames())} cluster nodes)")

    # -- search -----------------------------------------------------------

    def _search(self, remaining: list[NodeDemand], demands: ConcreteDemands,
                placements: dict[str, str],
                extra_memory: Mapping[str, float]) -> bool:
        if not remaining:
            return self._links_feasible(demands, placements, partial=False)
        demand = remaining[0]
        for node in self._candidates(demand, placements, extra_memory):
            placements[demand.local_name] = node.hostname
            if self._links_feasible(demands, placements, partial=True) and \
                    self._search(remaining[1:], demands, placements,
                                 extra_memory):
                return True
            del placements[demand.local_name]
        return False

    def reachable_nodes(self, patterns: frozenset[str],
                         ) -> list[SimNode] | None:
        """Nodes some demand's hostname pattern can match, memoized.

        Restricting the candidate base to the union of the demands'
        patterns is exact — ``_candidates`` re-filters per demand, and a
        node matching no pattern can never be placed — and turns the
        per-match cost from O(cluster) into O(|matching nodes|) for
        pattern-scoped bundles.  A ``*`` anywhere short-circuits to the
        whole cluster (``None``).  The memo is keyed by the pattern set,
        guarded by the topology version (add_node/add_links invalidate it).
        """
        if "*" in patterns or not patterns:
            return None
        version = self.cluster.topology_version
        hit = self._pattern_memo.get(patterns)
        if hit is not None and hit[0] == version:
            return hit[1]
        nodes = [node for node in self.cluster.nodes()
                 if any(_hostname_matches(p, node.hostname)
                        for p in patterns)]
        self._pattern_memo[patterns] = (version, nodes)
        return nodes

    def _ordered_nodes(self, patterns: frozenset[str]) -> list[SimNode]:
        """The nodes demands with these patterns can reach, in candidate
        order.

        Strategy key first, then the caller's order, both stable; derived
        once per pattern set of a preparation.  Per-demand filtering
        preserves this order: a stable sort of a subsequence equals the
        restriction of the stably sorted full list, and the strategy keys
        differ from the per-demand form only by a constant
        (``needed_mb``) shift.
        """
        prepared = self._prepared
        ordered = prepared.ordered.get(patterns)
        if ordered is None:
            base = self.reachable_nodes(patterns)
            if self.strategy is not MatchStrategy.FIRST_FIT:
                sign = 1 if self.strategy is MatchStrategy.BEST_FIT else -1
                base = sorted(self.cluster.nodes() if base is None else base,
                              key=lambda n: sign * self._free_mb(n))
            # FIRST_FIT keeps cluster insertion order as the base.
            if prepared.load_order is not None:
                ordered = prepared.load_order(base)
            else:
                ordered = list(self.cluster.nodes()) if base is None else base
            prepared.ordered[patterns] = ordered
        return ordered

    def _free_mb(self, node: SimNode) -> float:
        """Free memory with ignored holders' reservations counted back."""
        free = self._prepared.free_mb.get(node.hostname)
        if free is None:
            free = node.memory.available_mb
            for holder in self._prepared.ignore_holders:
                free += node.memory.held_by(holder)
            self._prepared.free_mb[node.hostname] = free
        return free

    def _candidates(self, demand: NodeDemand,
                    placements: dict[str, str],
                    extra_memory: Mapping[str, float]) -> Iterator[SimNode]:
        """Feasible nodes in candidate order, lazily: the search stops at
        the first that fits, so most nodes are never looked at.  Each
        node yielded, and the end of the list, moves ``_furthest``."""
        needed_mb = demand.memory_min_mb + extra_memory.get(
            demand.local_name, 0.0)
        # Every node demand of a configuration lands on a distinct
        # machine ("four distinct nodes, all meeting the same
        # requirements").
        taken = set(placements.values())
        ordered = self._ordered
        for position, node in enumerate(ordered):
            if node.available \
                    and node.hostname not in taken \
                    and _hostname_matches(demand.hostname_pattern,
                                          node.hostname) \
                    and (demand.os is None or node.os == demand.os) \
                    and self._free_mb(node) + 1e-9 >= needed_mb:
                if position > self._furthest:
                    self._furthest = position
                yield node
        self._furthest = len(ordered) - 1

    def _links_feasible(self, demands: ConcreteDemands,
                        placements: dict[str, str], partial: bool) -> bool:
        """Check link connectivity/availability among placed endpoints."""
        for link in demands.links:
            host_a = placements.get(link.endpoint_a)
            host_b = placements.get(link.endpoint_b)
            if host_a is None or host_b is None:
                if partial:
                    continue
                return False
            if host_a == host_b:
                continue  # co-located endpoints need no network
            try:
                if link.total_mb > 0 and \
                        self.cluster.path_available_mbps(host_a, host_b) <= 0:
                    return False
            except SimulationError:
                return False  # disconnected
        if demands.communication_mb and not partial \
                and demands.communication_mb > 0:
            # General communication: all placed nodes must be mutually
            # reachable (the paper: "the system assumes that communication
            # is general and that all nodes must be fully connected").
            hosts = sorted(set(placements.values()))
            for i, a in enumerate(hosts):
                for b in hosts[i + 1:]:
                    try:
                        if self.cluster.path_available_mbps(a, b) <= 0:
                            return False
                    except SimulationError:
                        return False
        return True


def _hostname_matches(pattern: str, hostname: str) -> bool:
    if pattern == "*":
        return True
    return fnmatch.fnmatchcase(hostname, pattern)
