"""Cluster topology: the set of nodes and the links joining them.

:class:`Cluster` owns the simulation kernel, the nodes, and the links, and
answers the topology questions the matcher asks ("is there a path between
these two assigned nodes with enough bandwidth?").  Convenience constructors
build the shapes the paper's experiments need: a full mesh behind a single
switch (the SP-2's high-performance switch) and a star around a server.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Iterator

from repro.cluster.kernel import Kernel
from repro.cluster.link import SimLink
from repro.cluster.node import SimNode
from repro.errors import SimulationError

__all__ = ["Cluster"]


class Cluster:
    """A simulated collection of nodes and links with a shared clock."""

    def __init__(self, kernel: Kernel | None = None):
        self.kernel = kernel or Kernel()
        self._nodes: dict[str, SimNode] = {}
        self._links: list[SimLink] = []
        #: host -> {peer: the direct link}; answers every one-hop question.
        self._adjacent: dict[str, dict[str, SimLink]] = {}
        #: Bumped whenever the graph itself changes: once per node added,
        #: once per batch of links.  Memos of routing-derived results (the
        #: matcher's candidate nodes, the partition index's reach, the
        #: trial engine's read sets) record it and stop holding when it
        #: moves; they compare it only for equality.  Node failure and
        #: restoration do not change the graph, only availability.
        self.topology_version: int = 0
        #: Views whose indexes follow the graph (see :meth:`watch`).
        self._watchers: weakref.WeakSet = weakref.WeakSet()

    # -- construction ----------------------------------------------------------

    def add_node(self, hostname: str, speed: float = 1.0,
                 memory_mb: float = 256.0, os: str = "linux",
                 attributes: dict[str, str] | None = None) -> SimNode:
        if hostname in self._nodes:
            raise SimulationError(f"duplicate node {hostname!r}")
        node = SimNode(self.kernel, hostname, speed=speed,
                       memory_mb=memory_mb, os=os, attributes=attributes)
        self._nodes[hostname] = node
        self._adjacent[hostname] = {}
        self._changed()
        return node

    def add_link(self, host_a: str, host_b: str, bandwidth_mbps: float,
                 latency_seconds: float = 0.0) -> SimLink:
        return self.add_links(
            [(host_a, host_b, bandwidth_mbps, latency_seconds)])[0]

    def add_links(self, rows: Iterable[tuple[str, str, float, float]]
                  ) -> list[SimLink]:
        """Add ``(host_a, host_b, bandwidth_mbps, latency_seconds)`` rows
        as one topology change: one :attr:`topology_version` step and one
        ``topology_changed()`` per watcher, however many links.

        Links join in row order, so :meth:`links`, peer order and
        :meth:`path_links`' ties are those of adding them one by one.  A
        row that fails raises the :class:`SimulationError` that
        :meth:`add_link` would; the rows before it stay added, as they
        would one by one, and are still one topology change.
        """
        nodes, adjacent, links = self._nodes, self._adjacent, self._links
        start = len(links)
        try:
            for host_a, host_b, bandwidth_mbps, latency_seconds in rows:
                if host_a not in nodes or host_b not in nodes:
                    unknown = host_a if host_a not in nodes else host_b
                    raise SimulationError(
                        f"link endpoint {unknown!r} is not a cluster node")
                if host_a == host_b:
                    raise SimulationError(f"self-link on {host_a!r}")
                peers = adjacent[host_a]
                if host_b in peers:
                    raise SimulationError(
                        f"duplicate link {host_a!r} -- {host_b!r}")
                link = SimLink(self.kernel, host_a, host_b, bandwidth_mbps,
                               latency_seconds)
                links.append(link)
                peers[host_b] = link
                adjacent[host_b][host_a] = link
        finally:
            if len(links) > start:
                self._changed()
        return links[start:]

    def watch(self, watcher) -> None:
        """Call ``watcher.topology_changed()`` after every node added and
        every batch of links (:meth:`add_links`) from now on, on the
        thread that adds it.  The cluster holds
        watchers weakly: a discarded
        :class:`~repro.prediction.contention.SystemView` stops being
        told."""
        self._watchers.add(watcher)

    def _changed(self) -> None:
        self.topology_version += 1
        if self._watchers:
            for watcher in list(self._watchers):
                watcher.topology_changed()

    @classmethod
    def full_mesh(cls, hostnames: Iterable[str], speed: float = 1.0,
                  memory_mb: float = 256.0, bandwidth_mbps: float = 40.0,
                  latency_seconds: float = 0.0,
                  kernel: Kernel | None = None) -> "Cluster":
        """All-pairs connectivity — a switch-backed machine room.

        The default 40 MB/s matches the paper's 320 Mbps SP-2 switch.
        """
        cluster = cls(kernel)
        names = list(hostnames)
        for name in names:
            cluster.add_node(name, speed=speed, memory_mb=memory_mb)
        cluster.add_links((a, b, bandwidth_mbps, latency_seconds)
                          for i, a in enumerate(names)
                          for b in names[i + 1:])
        return cluster

    @classmethod
    def star(cls, center: str, leaves: Iterable[str], speed: float = 1.0,
             memory_mb: float = 256.0, bandwidth_mbps: float = 40.0,
             latency_seconds: float = 0.0,
             kernel: Kernel | None = None) -> "Cluster":
        """A hub-and-spoke topology around ``center``."""
        cluster = cls(kernel)
        cluster.add_node(center, speed=speed, memory_mb=memory_mb)
        names = list(leaves)
        for leaf in names:
            cluster.add_node(leaf, speed=speed, memory_mb=memory_mb)
        cluster.add_links((center, leaf, bandwidth_mbps, latency_seconds)
                          for leaf in names)
        return cluster

    # -- queries ---------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.kernel.now

    def node(self, hostname: str) -> SimNode:
        if hostname not in self._nodes:
            raise SimulationError(f"unknown node {hostname!r}")
        return self._nodes[hostname]

    def nodes(self) -> Iterator[SimNode]:
        return iter(self._nodes.values())

    def hostnames(self) -> list[str]:
        return list(self._nodes)

    def links(self) -> Iterator[SimLink]:
        return iter(self._links)

    def link_between(self, host_a: str, host_b: str) -> SimLink | None:
        """The direct link joining two hosts, or ``None``."""
        peers = self._adjacent.get(host_a)
        return None if peers is None else peers.get(host_b)

    def path_links(self, host_a: str, host_b: str) -> list[SimLink]:
        """Links along a fewest-hops path between two hosts.

        Raises :class:`SimulationError` when the hosts are disconnected or
        either one is not a cluster node.  Used by the matcher when nodes
        are not directly linked: bandwidth must be reservable on *every*
        hop.
        """
        if host_a == host_b:
            return []
        direct = self.link_between(host_a, host_b)
        if direct is not None:
            return [direct]
        path = self._shortest_hop_path(host_a, host_b)
        return [self._adjacent[u][v] for u, v in zip(path, path[1:])]

    def _shortest_hop_path(self, source: str, target: str) -> list[str]:
        """A fewest-hops path, ties broken as ``networkx.shortest_path``.

        networkx's bidirectional BFS: grow the smaller fringe (forward on
        a tie), visit peers in link insertion order, and stop at the
        first peer the other side has reached.
        """
        for host in (source, target):
            self.node(host)  # an unknown host raises SimulationError
        pred: dict[str, str | None] = {source: None}
        succ: dict[str, str | None] = {target: None}
        forward, reverse, meet = [source], [target], None
        while forward and reverse and meet is None:
            if len(forward) <= len(reverse):
                forward, meet = self._bfs_level(forward, pred, succ)
            else:
                reverse, meet = self._bfs_level(reverse, succ, pred)
        if meet is None:
            raise SimulationError(
                f"no path between {source!r} and {target!r}")
        path = [meet]
        while pred[path[-1]] is not None:
            path.append(pred[path[-1]])
        path.reverse()
        while succ[path[-1]] is not None:
            path.append(succ[path[-1]])
        return path

    def _bfs_level(self, fringe: list[str], seen: dict, other: dict
                   ) -> tuple[list[str], str | None]:
        """Grow ``fringe`` one hop into ``seen``: the next fringe, and the
        first peer ``other`` has already reached (or ``None``)."""
        grown = []
        for host in fringe:
            for peer in self._adjacent[host]:
                if peer not in seen:
                    seen[peer] = host
                    grown.append(peer)
                if peer in other:
                    return grown, peer
        return grown, None

    def path_available_mbps(self, host_a: str, host_b: str) -> float:
        """Bottleneck available bandwidth between two hosts (inf if same)."""
        links = self.path_links(host_a, host_b)
        if not links:
            return float("inf")
        return min(link.available_mbps for link in links)

    def run(self, until=None):
        """Delegate to the kernel's run loop."""
        return self.kernel.run(until)
