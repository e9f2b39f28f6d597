"""Periodic samplers that feed environment data into the metric interface.

The adaptation controller does not read the simulated cluster directly; it
sees node and link conditions through these collectors, exactly as the real
Harmony observed its environment through the metric interface.  Metric names
produced:

* ``node.<host>.cpu_utilization`` — fraction busy (cumulative),
* ``node.<host>.cpu_load`` — instantaneous active job count,
* ``node.<host>.memory_available_mb``,
* ``link.<a>--<b>.active_transfers``,
* ``link.<a>--<b>.available_mbps`` (reservation headroom).
"""

from __future__ import annotations

from typing import Iterator

from repro.cluster.kernel import Interrupted, Process
from repro.cluster.topology import Cluster
from repro.metrics.interface import MetricInterface

__all__ = ["ClusterCollector", "link_metric_name", "node_metric_name"]


def node_metric_name(hostname: str, quantity: str) -> str:
    return f"node.{hostname}.{quantity}"


def link_metric_name(host_a: str, host_b: str, quantity: str) -> str:
    a, b = sorted((host_a, host_b))
    return f"link.{a}--{b}.{quantity}"


class ClusterCollector:
    """Samples every node and link on a fixed period."""

    def __init__(self, cluster: Cluster, metrics: MetricInterface,
                 period_seconds: float = 10.0):
        if period_seconds <= 0:
            raise ValueError("collector period must be positive")
        self.cluster = cluster
        self.metrics = metrics
        self.period_seconds = period_seconds
        self.samples_taken = 0
        self._process: Process | None = None

    def start(self) -> Process:
        """Begin sampling; returns the collector process."""
        self._process = self.cluster.kernel.spawn(
            self._run(), name="cluster-collector")
        return self._process

    def stop(self) -> None:
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("stop")

    def sample_once(self) -> None:
        """Take one sample immediately (also used by the run loop)."""
        now = self.cluster.now
        for node in self.cluster.nodes():
            host = node.hostname
            self.metrics.report(node_metric_name(host, "cpu_utilization"),
                                now, node.cpu.utilization())
            self.metrics.report(node_metric_name(host, "cpu_load"),
                                now, float(node.cpu.active_jobs))
            self.metrics.report(
                node_metric_name(host, "memory_available_mb"),
                now, node.memory.available_mb)
        for link in self.cluster.links():
            self.metrics.report(
                link_metric_name(link.host_a, link.host_b,
                                 "active_transfers"),
                now, float(link.active_transfers))
            self.metrics.report(
                link_metric_name(link.host_a, link.host_b,
                                 "available_mbps"),
                now, link.available_mbps)
        self.samples_taken += 1

    def _run(self) -> Iterator:
        kernel = self.cluster.kernel
        try:
            while True:
                self.sample_once()
                yield kernel.timeout(self.period_seconds)
        except Interrupted:
            return
