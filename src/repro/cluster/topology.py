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
        #: Bumped whenever the graph itself changes (nodes/links added).
        #: Memos of routing-derived results (the matcher's candidate
        #: nodes, the partition index's reach, the trial engine's read
        #: sets) record it and stop holding when it moves.  Node failure
        #: and restoration do not change the graph, only availability.
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
        for host in (host_a, host_b):
            if host not in self._nodes:
                raise SimulationError(
                    f"link endpoint {host!r} is not a cluster node")
        if host_a == host_b:
            raise SimulationError(f"self-link on {host_a!r}")
        if host_b in self._adjacent[host_a]:
            raise SimulationError(
                f"duplicate link {host_a!r} -- {host_b!r}")
        link = SimLink(self.kernel, host_a, host_b, bandwidth_mbps,
                       latency_seconds)
        self._links.append(link)
        self._adjacent[host_a][host_b] = link
        self._adjacent[host_b][host_a] = link
        self._changed()
        return link

    def watch(self, watcher) -> None:
        """Call ``watcher.topology_changed()`` after every node or link
        added from now on, on the thread that adds it.  The cluster holds
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
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                cluster.add_link(a, b, bandwidth_mbps, latency_seconds)
        return cluster

    @classmethod
    def star(cls, center: str, leaves: Iterable[str], speed: float = 1.0,
             memory_mb: float = 256.0, bandwidth_mbps: float = 40.0,
             latency_seconds: float = 0.0,
             kernel: Kernel | None = None) -> "Cluster":
        """A hub-and-spoke topology around ``center``."""
        cluster = cls(kernel)
        cluster.add_node(center, speed=speed, memory_mb=memory_mb)
        for leaf in leaves:
            cluster.add_node(leaf, speed=speed, memory_mb=memory_mb)
            cluster.add_link(center, leaf, bandwidth_mbps, latency_seconds)
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

    def advertisements(self) -> list:
        """RSL ``harmonyNode`` advertisements for every node."""
        return [node.advertisement() for node in self._nodes.values()]

    def run(self, until=None):
        """Delegate to the kernel's run loop."""
        return self.kernel.run(until)
