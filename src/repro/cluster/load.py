"""External background load injection.

The paper's controller re-evaluates options periodically "to adapt the
system due to changes out of Harmony's control (such as network traffic due
to other applications)".  This module provides deterministic generators of
exactly such out-of-band load: CPU jobs that arrive on a schedule and are
invisible to the controller except through the metric interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.cluster.kernel import Interrupted, Process
from repro.cluster.topology import Cluster

__all__ = ["LoadPhase", "BackgroundCpuLoad"]


@dataclass(frozen=True)
class LoadPhase:
    """One phase of a load schedule.

    During the phase, jobs of ``demand`` units are issued back-to-back with
    ``think_seconds`` gaps, keeping roughly ``parallelism`` jobs in flight.
    """

    duration_seconds: float
    parallelism: int = 1
    demand: float = 1.0
    think_seconds: float = 0.0


class BackgroundCpuLoad:
    """Synthetic competing computation on one node."""

    def __init__(self, cluster: Cluster, hostname: str,
                 phases: list[LoadPhase]):
        self.cluster = cluster
        self.hostname = hostname
        self.phases = list(phases)
        self.jobs_issued = 0
        self._process: Process | None = None

    def start(self) -> Process:
        self._process = self.cluster.kernel.spawn(
            self._run(), name=f"bg-cpu:{self.hostname}")
        return self._process

    def stop(self) -> None:
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("stop")

    def _run(self) -> Iterator:
        kernel = self.cluster.kernel
        node = self.cluster.node(self.hostname)
        try:
            for phase in self.phases:
                phase_end = kernel.now + phase.duration_seconds
                workers = [
                    kernel.spawn(
                        self._worker(node, phase, phase_end),
                        name=f"bg-cpu-worker:{self.hostname}")
                    for _ in range(phase.parallelism)
                ]
                yield kernel.all_of(workers)
        except Interrupted:
            return

    def _worker(self, node, phase: LoadPhase, phase_end: float) -> Iterator:
        kernel = self.cluster.kernel
        while kernel.now < phase_end:
            self.jobs_issued += 1
            yield node.compute(phase.demand)
            if phase.think_seconds > 0:
                yield kernel.timeout(phase.think_seconds)

