"""Cluster topology: the set of nodes and the links joining them.

:class:`Cluster` owns the simulation kernel, the nodes, and the links, and
answers the topology questions the matcher asks ("is there a path between
these two assigned nodes with enough bandwidth?").  Convenience constructors
build the shapes the paper's experiments need: a full mesh behind a single
switch (the SP-2's high-performance switch) and a star around a server.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import networkx as nx

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
        self._graph = nx.Graph()
        #: Bumped whenever the graph itself changes (nodes/links added).
        #: Consumers caching routing-derived state (SystemView's per-link
        #: indexes) compare against it and rebuild lazily.  Node failure
        #: and restoration do not change the graph, only availability.
        self.topology_version: int = 0

    # -- construction ----------------------------------------------------------

    def add_node(self, hostname: str, speed: float = 1.0,
                 memory_mb: float = 256.0, os: str = "linux",
                 attributes: dict[str, str] | None = None) -> SimNode:
        if hostname in self._nodes:
            raise SimulationError(f"duplicate node {hostname!r}")
        node = SimNode(self.kernel, hostname, speed=speed,
                       memory_mb=memory_mb, os=os, attributes=attributes)
        self._nodes[hostname] = node
        self._graph.add_node(hostname)
        self.topology_version += 1
        return node

    def add_link(self, host_a: str, host_b: str, bandwidth_mbps: float,
                 latency_seconds: float = 0.0) -> SimLink:
        for host in (host_a, host_b):
            if host not in self._nodes:
                raise SimulationError(
                    f"link endpoint {host!r} is not a cluster node")
        if host_a == host_b:
            raise SimulationError(f"self-link on {host_a!r}")
        if self._graph.has_edge(host_a, host_b):
            raise SimulationError(
                f"duplicate link {host_a!r} -- {host_b!r}")
        link = SimLink(self.kernel, host_a, host_b, bandwidth_mbps,
                       latency_seconds)
        self._links.append(link)
        self._graph.add_edge(host_a, host_b, link=link)
        self.topology_version += 1
        return link

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
        data = self._graph.get_edge_data(host_a, host_b)
        if data is None:
            return None
        return data["link"]

    def path_links(self, host_a: str, host_b: str) -> list[SimLink]:
        """Links along a max-bottleneck-bandwidth path between two hosts.

        Raises :class:`SimulationError` when the hosts are disconnected.
        Used by the matcher when nodes are not directly linked: bandwidth
        must be reservable on *every* hop.
        """
        if host_a == host_b:
            return []
        direct = self.link_between(host_a, host_b)
        if direct is not None:
            return [direct]
        try:
            # Widest path: maximize the minimum available bandwidth by
            # searching over -available as edge weight via Dijkstra on the
            # bottleneck criterion (simple approach: shortest hop path among
            # those with positive availability).
            path = nx.shortest_path(self._graph, host_a, host_b)
        except nx.NetworkXNoPath:
            raise SimulationError(
                f"no path between {host_a!r} and {host_b!r}") from None
        return [self._graph.edges[u, v]["link"]
                for u, v in zip(path, path[1:])]

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
