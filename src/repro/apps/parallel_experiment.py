"""The paper's Figure 4 experiment: online reconfiguration under arrivals.

"The left side (a) shows the performance of a parallel application and (b)
shows the eight-processor configurations chosen by Harmony as new jobs
arrive.  Note the configuration of five nodes (rather than six) in the
first time frame, and the subsequent configurations that optimize for
average efficiency by choosing equal partitions for multiple instances of
the parallel application, rather than some large and some small."

Setup: an eight-node cluster and up to four instances of the Bag
application with an application-specific performance model (runtime
``T/n + alpha*(n-1)^2``, minimized at five nodes for the defaults).
Instances arrive on a schedule; the model-driven controller (greedy plus
pairwise exchange) repartitions the eight processors.  Expected shape:

* one instance -> 5 nodes (not 6 — the model's optimum),
* two instances -> 4 + 4 (equal partitions),
* three -> 3 + 3 + 2,
* four -> 2 + 2 + 2 + 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.client import HarmonyClient
from repro.api.server import HarmonyServer
from repro.api.transport import connected_pair
from repro.apps.bag import BagOfTasksApp
from repro.cluster.topology import Cluster
from repro.controller.controller import (
    AdaptationController,
    ModelDrivenPolicy,
)
from repro.controller.friction import FrictionPolicy
from repro.metrics import MetricInterface
from repro.obs.trace import DecisionTrace

__all__ = ["ParallelExperimentConfig", "ParallelExperimentResult",
           "FrameSummary", "run_parallel_experiment"]


@dataclass(frozen=True)
class ParallelExperimentConfig:
    """Knobs for the Figure 4 reproduction."""

    node_count: int = 8
    app_count: int = 4
    arrival_interval_seconds: float = 1500.0
    total_duration_seconds: float = 6000.0
    total_seconds_per_iteration: float = 2400.0
    overhead_alpha: float = 12.0
    domain: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    task_count: int = 48
    memory_mb: float = 32.0
    node_memory_mb: float = 128.0
    bandwidth_mbps: float = 40.0
    reevaluation_period_seconds: float = 60.0
    amortization_seconds: float = 3600.0
    seed: int = 11


@dataclass(frozen=True)
class FrameSummary:
    """One time frame between arrivals: who has how many nodes."""

    frame_index: int
    start_time: float
    end_time: float
    active_apps: int
    node_counts: dict[str, int]
    mean_iteration_seconds: dict[str, float]

    def partition(self) -> list[int]:
        """Node counts, largest first — e.g. ``[4, 4]``."""
        return sorted(self.node_counts.values(), reverse=True)


@dataclass
class ParallelExperimentResult:
    config: ParallelExperimentConfig
    frames: list[FrameSummary] = field(default_factory=list)
    #: Structured "why this option won" records, newest last.
    decision_traces: list[DecisionTrace] = field(default_factory=list)
    iteration_series: dict[str, list[tuple[float, float, int]]] = \
        field(default_factory=dict)

    def partitions(self) -> list[list[int]]:
        """The node-count partition chosen in each frame."""
        return [frame.partition() for frame in self.frames]


def run_parallel_experiment(config: ParallelExperimentConfig | None = None,
                            ) -> ParallelExperimentResult:
    """Run the Figure 4 experiment; deterministic for a given config."""
    config = config or ParallelExperimentConfig()
    hostnames = [f"node{i}" for i in range(config.node_count)]
    cluster = Cluster.full_mesh(hostnames, memory_mb=config.node_memory_mb,
                                bandwidth_mbps=config.bandwidth_mbps)
    metrics = MetricInterface()
    controller = AdaptationController(
        cluster, metrics=metrics,
        policy=ModelDrivenPolicy(pairwise_exchange=True),
        friction_policy=FrictionPolicy(
            amortization_seconds=config.amortization_seconds),
        reevaluation_period_seconds=config.reevaluation_period_seconds)
    harmony_server = HarmonyServer(controller)

    apps: list[BagOfTasksApp] = []

    def launch_app(index: int):
        yield cluster.kernel.timeout(
            index * config.arrival_interval_seconds)
        client_transport, server_transport = connected_pair()
        harmony_server.attach(server_transport)
        harmony = HarmonyClient(client_transport)
        app = BagOfTasksApp(
            name=f"Bag{index}", cluster=cluster, harmony=harmony,
            metrics=metrics,
            total_seconds_per_iteration=config.total_seconds_per_iteration,
            task_count=config.task_count,
            domain=config.domain,
            memory_mb=config.memory_mb,
            overhead_alpha=config.overhead_alpha,
            seed=config.seed + index)
        apps.append(app)
        process = app.start(run_until=config.total_duration_seconds)
        yield process

    for index in range(config.app_count):
        cluster.kernel.spawn(launch_app(index), name=f"launch-bag{index}")

    # Sample each app's live worker count for the frame summaries.
    samples: list[tuple[float, dict[str, int]]] = []

    def sampler():
        while cluster.kernel.now < config.total_duration_seconds:
            snapshot = {app.name: app.current_worker_count for app in apps
                        if app.current_worker_count > 0}
            samples.append((cluster.kernel.now, snapshot))
            yield cluster.kernel.timeout(25.0)

    cluster.kernel.spawn(sampler(), name="frame-sampler")
    controller.start_periodic_reevaluation()
    cluster.run(until=config.total_duration_seconds)
    controller.stop_periodic_reevaluation()

    result = ParallelExperimentResult(
        config=config,
        decision_traces=controller.trace_log.traces(),
        iteration_series={app.name: app.iteration_series()
                          for app in apps})
    result.frames = _summarize_frames(config, samples, apps)
    return result


def _summarize_frames(config: ParallelExperimentConfig,
                      samples: list[tuple[float, dict[str, int]]],
                      apps: list[BagOfTasksApp]) -> list[FrameSummary]:
    frames: list[FrameSummary] = []
    interval = config.arrival_interval_seconds
    boundaries = [index * interval for index in range(config.app_count)]
    boundaries.append(config.total_duration_seconds)
    for index in range(len(boundaries) - 1):
        start, end = boundaries[index], boundaries[index + 1]
        if end <= start:
            continue
        # Representative configuration: the last sample of the frame, where
        # reconfiguration transients have settled.
        frame_samples = [snapshot for time, snapshot in samples
                         if start <= time < end]
        node_counts = frame_samples[-1] if frame_samples else {}
        mean_iterations: dict[str, float] = {}
        for app in apps:
            elapsed = [record.elapsed_seconds for record in app.stats.records
                       if start <= record.start_time + record.elapsed_seconds
                       <= end]
            if elapsed:
                mean_iterations[app.name] = sum(elapsed) / len(elapsed)
        frames.append(FrameSummary(
            frame_index=index, start_time=start, end_time=end,
            active_apps=index + 1,
            node_counts=dict(node_counts),
            mean_iteration_seconds=mean_iterations))
    return frames
