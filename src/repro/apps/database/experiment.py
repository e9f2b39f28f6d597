"""The paper's Section 6 experiment, end to end.

Builds the SP-2-like cluster (one fast server, slower client workstations,
a 40 MB/s switch), the Wisconsin relations, the Harmony controller + server,
and N database clients that arrive on a schedule.  "We then ran the system
and added clients about every three minutes" — clients here arrive every
``arrival_interval_seconds`` (default 200 s, matching the figure's 200-second
phases).

The experiment can run under either controller policy:

* ``rule`` — the paper's "simple rule ... based on the number of active
  clients" (switch everyone to data shipping at the third client);
* ``model`` — the full objective-driven optimizer of Section 4.

Returns a :class:`DatabaseExperimentResult` with per-client response-time
series, the switch events, and phase summaries — everything the Figure 7
benchmark prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Literal

from repro.api.client import HarmonyClient
from repro.api.server import HarmonyServer
from repro.api.transport import connected_pair
from repro.apps.database.bundles import (
    BUNDLE_NAME,
    OPTION_DATA_SHIPPING,
    OPTION_QUERY_SHIPPING,
    database_bundle_numbers,
    database_bundle_rsl,
)
from repro.apps.database.client import DatabaseClientApp
from repro.apps.database.executor import CostParameters, DatabaseEngine
from repro.apps.database.query import WisconsinWorkload
from repro.apps.database.relation import make_wisconsin_pair
from repro.apps.database.server import DatabaseServerApp
from repro.cluster.topology import Cluster
from repro.controller.controller import AdaptationController
from repro.controller.policies import ClientCountRulePolicy
from repro.errors import HarmonyError
from repro.metrics import MetricInterface
from repro.obs.trace import DecisionTrace, Span, Tracer

__all__ = ["DatabaseExperimentConfig", "DatabaseExperimentResult",
           "PhaseSummary", "run_database_experiment"]

PolicyName = Literal["rule", "model"]


@dataclass(frozen=True)
class DatabaseExperimentConfig:
    """Knobs for the Section 6 reproduction.

    The default relation size (10,000 tuples) keeps the bench laptop-fast;
    ``tuple_count=100_000`` reproduces the paper's full-size relations with
    identical shape (costs scale linearly).
    """

    client_count: int = 3
    arrival_interval_seconds: float = 200.0
    total_duration_seconds: float = 800.0
    tuple_count: int = 10_000
    policy: PolicyName = "rule"
    switch_threshold_clients: int = 3
    server_speed: float = 1.0
    client_speed: float = 0.5
    bandwidth_mbps: float = 40.0       # the SP-2's 320 Mbps switch
    client_cache_mb: float = 48.0
    server_pool_mb: float = 64.0
    seed: int = 7
    think_seconds: float = 0.0
    reevaluation_period_seconds: float = 30.0
    #: How long the rule's condition must hold before it fires — shows the
    #: paper's transient three-QS-client spike before the DS switch.
    rule_reaction_seconds: float = 60.0
    #: Attach a :class:`~repro.obs.trace.Tracer` to the controller, filling
    #: ``DatabaseExperimentResult.spans``.  Off by default: an untraced
    #: run builds no span.
    trace: bool = False


@dataclass(frozen=True)
class PhaseSummary:
    """Mean response per client during one arrival phase."""

    phase_index: int
    start_time: float
    end_time: float
    active_clients: int
    mean_response_by_client: dict[str, float]
    dominant_option: str


@dataclass
class DatabaseExperimentResult:
    config: DatabaseExperimentConfig
    response_series: dict[str, list[tuple[float, float]]]
    options_over_time: dict[str, list[tuple[float, str]]]
    phases: list[PhaseSummary] = field(default_factory=list)
    queries_total: int = 0
    switch_time: float | None = None
    #: The run's metric interface — feed it to the exporters in
    #: :mod:`repro.obs.export` for Prometheus text or a JSON snapshot.
    metrics: MetricInterface = field(default_factory=MetricInterface)
    #: Structured "why this option won" records, newest last.
    decision_traces: list[DecisionTrace] = field(default_factory=list)
    #: Hot-path timing spans; empty unless ``config.trace`` was set.
    spans: list[Span] = field(default_factory=list)

    def mean_response(self, client: str, start: float, end: float,
                      ) -> float | None:
        values = [response for time, response in
                  self.response_series.get(client, [])
                  if start <= time < end]
        if not values:
            return None
        return sum(values) / len(values)


def run_database_experiment(config: DatabaseExperimentConfig | None = None,
                            ) -> DatabaseExperimentResult:
    """Run the Figure 7 experiment; deterministic for a given config."""
    config = config or DatabaseExperimentConfig()
    cluster = Cluster()
    cluster.add_node("server0", speed=config.server_speed, memory_mb=256.0)
    client_hosts = [f"client{i}" for i in range(config.client_count)]
    for host in client_hosts:
        cluster.add_node(host, speed=config.client_speed, memory_mb=128.0)
        cluster.add_link("server0", host, config.bandwidth_mbps)

    relation_a, relation_b = make_wisconsin_pair(config.tuple_count,
                                                 seed=config.seed)
    engine = DatabaseEngine(relation_a, relation_b, CostParameters())
    numbers = database_bundle_numbers(engine)

    metrics = MetricInterface()
    if config.policy == "rule":
        policy = ClientCountRulePolicy(
            app_name="DBclient", bundle_name=BUNDLE_NAME,
            threshold=config.switch_threshold_clients,
            below_option=OPTION_QUERY_SHIPPING,
            at_or_above_option=OPTION_DATA_SHIPPING,
            reaction_seconds=config.rule_reaction_seconds)
    elif config.policy == "model":
        policy = None  # AdaptationController default: ModelDrivenPolicy
    else:
        raise HarmonyError(f"unknown policy {config.policy!r}")
    tracer = Tracer() if config.trace else None
    controller = AdaptationController(
        cluster, metrics=metrics, policy=policy, tracer=tracer,
        reevaluation_period_seconds=config.reevaluation_period_seconds)
    harmony_server = HarmonyServer(controller)
    server_app = DatabaseServerApp(cluster, "server0", engine,
                                   buffer_pool_mb=config.server_pool_mb)

    clients: list[DatabaseClientApp] = []
    options_over_time: dict[str, list[tuple[float, str]]] = {}

    def launch_client(index: int) -> Iterator:
        yield cluster.kernel.timeout(index * config.arrival_interval_seconds)
        client_transport, server_transport = connected_pair()
        harmony_server.attach(server_transport)
        harmony = HarmonyClient(client_transport)
        name = f"client{index}"
        app = DatabaseClientApp(
            name=name, cluster=cluster, hostname=client_hosts[index],
            server=server_app, harmony=harmony,
            bundle_rsl=database_bundle_rsl(client_hosts[index], "server0",
                                           numbers),
            workload=WisconsinWorkload(seed=config.seed + index),
            metrics=metrics,
            initial_cache_mb=config.client_cache_mb,
            think_seconds=config.think_seconds)
        clients.append(app)
        options_over_time[name] = []
        process = app.start(run_until=config.total_duration_seconds)
        yield process

    for index in range(config.client_count):
        cluster.kernel.spawn(launch_client(index), name=f"launch{index}")

    # Track option changes as they are applied.
    def option_tracker() -> Iterator:
        sample_period = 5.0
        while cluster.kernel.now < config.total_duration_seconds:
            for app in clients:
                options_over_time[app.name].append(
                    (cluster.kernel.now, app.current_option))
            yield cluster.kernel.timeout(sample_period)

    cluster.kernel.spawn(option_tracker(), name="option-tracker")
    controller.start_periodic_reevaluation()
    cluster.run(until=config.total_duration_seconds)
    controller.stop_periodic_reevaluation()

    result = DatabaseExperimentResult(
        config=config,
        response_series={app.name: app.response_time_series()
                         for app in clients},
        options_over_time=options_over_time,
        queries_total=sum(app.stats.queries_completed for app in clients),
        metrics=metrics,
        decision_traces=controller.trace_log.traces(),
        spans=list(tracer.spans) if tracer is not None else [])

    result.switch_time = _find_switch_time(result.decision_traces)
    result.phases = _summarize_phases(result, config)
    return result


def _find_switch_time(traces: list[DecisionTrace]) -> float | None:
    """Time of the first QS -> DS reconfiguration of a running client."""
    for trace in traces:
        if trace.old_configuration == OPTION_QUERY_SHIPPING and \
                trace.new_configuration == OPTION_DATA_SHIPPING:
            return trace.time
    return None


def _summarize_phases(result: DatabaseExperimentResult,
                      config: DatabaseExperimentConfig,
                      ) -> list[PhaseSummary]:
    phases: list[PhaseSummary] = []
    interval = config.arrival_interval_seconds
    boundaries = [index * interval for index in range(config.client_count)]
    boundaries.append(config.total_duration_seconds)
    for index in range(len(boundaries) - 1):
        start, end = boundaries[index], boundaries[index + 1]
        if end <= start:
            continue
        means: dict[str, float] = {}
        for client, series in result.response_series.items():
            mean = result.mean_response(client, start, end)
            if mean is not None:
                means[client] = mean
        options = [option for client in result.options_over_time.values()
                   for time, option in client if start <= time < end]
        dominant = (max(set(options), key=options.count)
                    if options else OPTION_QUERY_SHIPPING)
        phases.append(PhaseSummary(
            phase_index=index, start_time=start, end_time=end,
            active_clients=index + 1,
            mean_response_by_client=means,
            dominant_option=dominant))
    return phases
