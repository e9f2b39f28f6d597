"""Scale bench: controller behaviour as the system grows.

Not a paper figure — a production-readiness check.  The paper worries
that "the space of possible option combinations in any moderately large
system will be so large that we will not be able to evaluate all
combinations"; greedy evaluation is its answer.  This bench measures how
the greedy (plus pairwise) controller scales with application count on a
32-node machine room, and verifies decisions stay sane at scale (all
placed, memory never oversubscribed).

Besides the rendered table, each run appends its point to
``benchmarks/results/BENCH_scale.json`` — apps, wall seconds, candidates
evaluated, predictions recomputed, full-view recomputes — so the bench
trajectory is machine-readable (CI uploads it as an artifact; see
docs/performance.md for how to read the counters).
"""

import os
import time

import pytest

from repro.cluster import Cluster
from repro.controller import (AdaptationController, CoalescingScheduler,
                              ModelDrivenPolicy)
from repro.rsl import build_bundle

from benchutil import fmt_row, merge_bench_point


def two_option_rsl(index):
    """Small/large alternatives, hostname-free (controller places)."""
    return f"""
harmonyBundle App{index} size {{
    {{small {{node n {{seconds 60}} {{memory 24}}}}}}
    {{large {{node n {{seconds 35}} {{memory 24}} {{replicate 2}}}}
            {{communication 4}}}}}}
"""


def run_scale(app_count: int, pairwise: bool, tracer=None):
    cluster = Cluster.full_mesh([f"n{i}" for i in range(32)],
                                memory_mb=256.0)
    controller = AdaptationController(
        cluster, tracer=tracer, policy=ModelDrivenPolicy(
            pairwise_exchange=pairwise,
            max_pairwise_bundles=12))
    for index in range(app_count):
        instance = controller.register_app(f"App{index}")
        controller.setup_bundle(instance, two_option_rsl(index))
    return controller


def record_bench_point(app_count: int, wall_seconds: float,
                       stats: dict) -> None:
    """Merge one measurement into BENCH_scale.json (keyed by app count)."""
    merge_bench_point(app_count, {
        "wall_seconds": round(wall_seconds, 4),
        "candidates_evaluated": stats["candidates_evaluated"],
        "predictions_recomputed": stats["predictions_recomputed"],
        "full_view_recomputes": stats["full_view_recomputes"],
    })


@pytest.mark.parametrize("app_count", [4, 12, 24, 48, 96, 128])
def test_scale_admission(report, benchmark, app_count):
    start = time.perf_counter()
    controller = benchmark.pedantic(
        run_scale, args=(app_count, False), rounds=1, iterations=1)
    wall_seconds = time.perf_counter() - start
    # Counters cover admission only; the assertions below run extra
    # predictions that should not pollute the recorded point.
    stats = controller.stats.snapshot()
    record_bench_point(app_count, wall_seconds, stats)

    # Every application got a configuration.
    configured = sum(
        1 for instance in controller.registry.instances()
        for state in instance.bundles.values()
        if state.chosen is not None)
    assert configured == app_count

    # Memory never oversubscribed.
    for node in controller.cluster.nodes():
        assert node.memory.reserved_mb <= node.memory.total_mb + 1e-9

    predictions = controller.predict_all(controller.view)
    mean = sum(predictions.values()) / len(predictions)
    worst = max(predictions.values())
    sizes = [state.chosen.option_name
             for instance in controller.registry.instances()
             for state in instance.bundles.values()]
    rows = [f"Scale: {app_count} two-option apps on 32 nodes "
            f"(greedy only)", "",
            fmt_row(["apps", "large chosen", "mean resp", "worst resp"],
                    [6, 13, 10, 10]),
            fmt_row([app_count, sizes.count("large"),
                     f"{mean:.0f}s", f"{worst:.0f}s"], [6, 13, 10, 10]),
            "",
            f"candidates evaluated:   {stats['candidates_evaluated']}",
            f"predictions recomputed: {stats['predictions_recomputed']}",
            f"full-view recomputes:   {stats['full_view_recomputes']}"]
    report(f"scale_{app_count}apps", rows)

    # Sanity: when the machine has room (<=16 large apps fit two nodes
    # each), everyone should get the fast configuration.
    if app_count * 2 <= 32:
        assert sizes.count("large") == app_count
    # Beyond 16 apps the 32-node room cannot give everyone two nodes; the
    # controller degrades by choosing small/sharing, never by failing.
    assert worst < 60 * app_count  # far below serialized execution


POD_RSL = """
harmonyBundle Pod{pod} size {{
    {{small {{node n {{hostname p{pod}n*}} {{seconds 60}} {{memory 24}}}}}}
    {{large {{node n {{hostname p{pod}n*}} {{seconds 35}} {{memory 24}}
             {{replicate 2}}}}
            {{communication 4}}}}}}
"""

#: Apps per pod in the partitioned bench; 16 keeps each partition's
#: optimization problem constant while app count scales the pod count.
APPS_PER_POD = 16


def build_pod_cluster(pods: int, nodes_per_pod: int = 8) -> Cluster:
    """``pods`` disjoint full-mesh islands, hosts named ``p<k>n<i>``."""
    cluster = Cluster()
    for pod in range(pods):
        hosts = [f"p{pod}n{i}" for i in range(nodes_per_pod)]
        for host in hosts:
            cluster.add_node(host, memory_mb=256.0)
        for i in range(len(hosts)):
            for j in range(i + 1, len(hosts)):
                cluster.add_link(hosts[i], hosts[j], bandwidth_mbps=100.0)
    return cluster


def run_partitioned_scale(app_count: int, flush_every: int = 64):
    """Pod-blocked admissions through the coalescing scheduler.

    This is the machine-room shape the partition index exists for:
    hostname-scoped bundles confine each application to its pod, so the
    SystemView decomposes into one partition per pod and every batched
    sweep clean-skips the pods the batch never touched.  Admissions go
    pod by pod (a deployment rollout, not a random arrival mix) and the
    scheduler flushes every ``flush_every`` requests, so each sweep sees
    a handful of dirty partitions out of dozens.
    """
    pods = app_count // APPS_PER_POD
    cluster = build_pod_cluster(pods)
    controller = AdaptationController(
        cluster, policy=ModelDrivenPolicy(pairwise_exchange=False))
    scheduler = CoalescingScheduler(controller, coalesce_window=0.0,
                                    max_delay=0.0)
    admitted = 0
    for pod in range(pods):
        bundle = build_bundle(POD_RSL.format(pod=pod))
        for _ in range(APPS_PER_POD):
            instance = controller.register_app(f"Pod{pod}")
            controller.setup_bundle(instance, bundle)
            admitted += 1
            if admitted % flush_every == 0:
                scheduler.flush()
    scheduler.flush()
    return controller, scheduler


@pytest.mark.parametrize("app_count", [256, 512, 1024])
def test_scale_partitioned(report, benchmark, app_count):
    start = time.perf_counter()
    controller, scheduler = benchmark.pedantic(
        run_partitioned_scale, args=(app_count,), rounds=1, iterations=1)
    wall_seconds = time.perf_counter() - start
    stats = controller.stats.snapshot()
    pods = app_count // APPS_PER_POD

    configured = sum(
        1 for instance in controller.registry.instances()
        for state in instance.bundles.values()
        if state.chosen is not None)
    assert configured == app_count

    # The pods never share a resource, so they must come out as separate
    # components — a collapse to one means the bench is re-measuring the
    # serial sweep.
    partition_count = len(controller.partition_index.components(
        ((instance.key, name), state)
        for instance in controller.registry.instances()
        for name, state in instance.bundles.items()))
    assert partition_count == pods
    assert stats["partition_sweeps"] == scheduler.batches_run > 0
    assert stats["pruned_bundles"] > 0

    for node in controller.cluster.nodes():
        assert node.memory.reserved_mb <= node.memory.total_mb + 1e-9

    point = {
        "wall_seconds": round(wall_seconds, 4),
        "candidates_evaluated": stats["candidates_evaluated"],
        "predictions_recomputed": stats["predictions_recomputed"],
        "full_view_recomputes": stats["full_view_recomputes"],
        "partition_count": partition_count,
        "pruned_candidates": stats["pruned_candidates"],
    }
    # The always-on runtime histograms ride along: the batch-latency
    # tail at each scale point tracks where coalescing stops hiding the
    # sweep cost.
    batch_hist = controller.metrics.histogram("scheduler.batch_seconds")
    batch_p99 = batch_hist.quantile(0.99)
    if batch_p99 is not None:
        point["hist_sched_batch_p99_ms"] = round(batch_p99 * 1000, 3)
    backlog_p99 = controller.metrics.histogram(
        "scheduler.batch_backlog").quantile(0.99)
    if backlog_p99 is not None:
        point["hist_sched_backlog_p99"] = round(backlog_p99, 1)
    merge_bench_point(app_count, point)
    report(f"scale_partitioned_{app_count}apps", [
        f"Partitioned scale: {app_count} apps across {pods} pods "
        f"({APPS_PER_POD} apps/pod, flush every 64 admissions)", "",
        fmt_row(["apps", "pods", "wall", "sweeps", "pruned bundles"],
                [6, 6, 8, 8, 14]),
        fmt_row([app_count, pods, f"{wall_seconds:.2f}s",
                 stats["partition_sweeps"], stats["pruned_bundles"]],
                [6, 6, 8, 8, 14]),
        "",
        f"candidates evaluated: {stats['candidates_evaluated']}",
        f"pruned candidates:    {stats['pruned_candidates']}"])

    # The acceptance bound from ISSUE: the 1,024-app trajectory point
    # must land at or under 2.3s.
    if app_count == 1024:
        assert wall_seconds <= 2.3


def test_tracing_overhead(report):
    """Tracing must be free when disabled: <2% of admission wall time.

    A direct off-vs-off wall comparison cannot isolate sub-millisecond
    costs from scheduler noise, so the disabled path is bounded from
    above: count the spans a traced run opens, microbenchmark the cost of
    one disabled (``NULL_TRACER``) span, and assert that span-count x
    per-span cost is under 2% of the untraced wall time.  Both wall times
    land in BENCH_scale.json so the trajectory of tracing cost is
    tracked run over run.
    """
    from repro.obs.trace import NULL_TRACER, Tracer

    app_count = 24
    run_scale(app_count, False)  # warm-up: caches, allocator, imports

    start = time.perf_counter()
    run_scale(app_count, False)
    off_seconds = time.perf_counter() - start

    tracer = Tracer()
    start = time.perf_counter()
    run_scale(app_count, False, tracer=tracer)
    on_seconds = time.perf_counter() - start
    assert tracer.spans_started > 0

    iterations = 200_000
    start = time.perf_counter()
    for _ in range(iterations):
        with NULL_TRACER.span("bench.noop", app="x"):
            pass
    noop_span_seconds = (time.perf_counter() - start) / iterations

    projected = tracer.spans_started * noop_span_seconds
    overhead_ratio = projected / off_seconds
    merge_bench_point(app_count, {
        "tracing_off_seconds": round(off_seconds, 4),
        "tracing_on_seconds": round(on_seconds, 4),
        "spans_started": tracer.spans_started,
        "noop_span_nanos": round(noop_span_seconds * 1e9, 1),
        "disabled_overhead_ratio": round(overhead_ratio, 6),
    })
    report("tracing_overhead", [
        f"Tracing overhead, {app_count} apps on 32 nodes", "",
        f"wall, tracing off:      {off_seconds:.3f}s",
        f"wall, tracing on:       {on_seconds:.3f}s",
        f"spans started (on):     {tracer.spans_started}",
        f"no-op span cost:        {noop_span_seconds * 1e9:.0f}ns",
        f"disabled-path overhead: {overhead_ratio * 100:.4f}%"])
    assert overhead_ratio < 0.02


@pytest.mark.parametrize("backend", ["threaded", "asyncio"])
def test_tracing_overhead_frontends(report, backend):
    """End-to-end tracing stays under 2% on both TCP front ends.

    The wire workload: one client admits a bundle, then streams metric
    reports (a client with a tracer traces every one) through the
    coalescing scheduler, with periodic ``status`` round trips.  The
    untraced run measures the same traffic with tracing fully off.  As
    in ``test_tracing_overhead``, the enabled cost is bounded by
    projection — spans started x measured live-span cost against the
    untraced wall — because the real difference is far below scheduler
    noise at this scale.
    """
    from repro.api import HarmonyClient, HarmonyServer, TcpTransport
    from repro.api.aio import AsyncHarmonyServer
    from repro.obs.trace import Tracer

    requests = 200

    def run(traced):
        cluster = Cluster.full_mesh([f"n{i}" for i in range(8)],
                                    memory_mb=256.0)
        controller = AdaptationController(
            cluster, tracer=Tracer() if traced else None,
            policy=ModelDrivenPolicy(pairwise_exchange=False))
        server = HarmonyServer(controller)
        if backend == "asyncio":
            front = AsyncHarmonyServer(server)
            host, port = front.serve(port=0)
            stop = front.stop
        else:
            host, port = server.serve_tcp(port=0)
            stop = server.stop
        server.start_scheduler(coalesce_window=0.01, max_delay=0.05)
        client_tracer = Tracer() if traced else None
        client = HarmonyClient(TcpTransport.connect(host, port),
                               tracer=client_tracer)
        try:
            client.startup("App0")
            client.bundle_setup(two_option_rsl(0))
            start = time.perf_counter()
            for index in range(requests):
                client.report_metric("latency", float(index))
                if index % 20 == 19:
                    client.query_status(prefix="server")
            generation = server.scheduler.request("bench:flush")
            assert server.scheduler.wait_for_generation(generation,
                                                        timeout=30.0)
            wall = time.perf_counter() - start
        finally:
            try:
                client.end()
            except Exception:
                pass
            stop()
        spans = 0
        if traced:
            spans = (controller.tracer.spans_started
                     + client_tracer.spans_started)
        return wall, spans, controller

    off_wall, _, _ = run(False)
    on_wall, span_count, traced_controller = run(True)
    assert span_count > requests  # every report really was sampled

    live_tracer = Tracer()
    iterations = 20_000
    start = time.perf_counter()
    for _ in range(iterations):
        with live_tracer.span("bench.live", rpc="x"):
            pass
    live_span_seconds = (time.perf_counter() - start) / iterations

    projected = span_count * live_span_seconds
    overhead_ratio = projected / off_wall

    point = {
        f"{backend}_tracing_off_seconds": round(off_wall, 4),
        f"{backend}_tracing_on_seconds": round(on_wall, 4),
        f"{backend}_spans_started": span_count,
        f"{backend}_overhead_ratio": round(overhead_ratio, 6),
    }
    # Runtime health histogram tails from the traced run.
    metrics = traced_controller.metrics
    for column, name in (
            ("hist_lock_wait_p99_ms", "lock.controller.wait_seconds"),
            ("hist_sched_batch_p99_ms", "scheduler.batch_seconds")):
        p99 = metrics.histogram(name).quantile(0.99)
        if p99 is not None:
            point[f"{backend}_{column}"] = round(p99 * 1000, 3)
    merge_bench_point(1, point)

    report(f"tracing_overhead_{backend}", [
        f"Wire tracing overhead, {backend} front end, "
        f"{requests} sampled reports", "",
        f"wall, tracing off:  {off_wall:.3f}s",
        f"wall, tracing on:   {on_wall:.3f}s",
        f"spans started:      {span_count}",
        f"live span cost:     {live_span_seconds * 1e9:.0f}ns",
        f"projected overhead: {overhead_ratio * 100:.4f}%"])
    assert overhead_ratio < 0.02
