"""Wire tracing overhead: what a traced request costs on both TCP front ends.

Not a paper figure — a production-readiness check of the observability
layer (docs/observability.md).  The harness's ``--trace 1`` rounds time
the same layers per op; this gate bounds the cost of the spans
themselves against an untraced run of the same traffic.
"""

import time

import pytest

from repro.cluster import Cluster
from repro.controller import AdaptationController, ModelDrivenPolicy


def two_option_rsl(index):
    """Small/large alternatives, hostname-free (controller places)."""
    return f"""
harmonyBundle App{index} size {{
    {{small {{node n {{seconds 60}} {{memory 24}}}}}}
    {{large {{node n {{seconds 35}} {{memory 24}} {{replicate 2}}}}
            {{communication 4}}}}}}
"""


@pytest.mark.parametrize("backend", ["threaded", "asyncio"])
def test_tracing_overhead_frontends(report, backend):
    """End-to-end tracing stays under 2% on both TCP front ends.

    The wire workload: one client admits a bundle, then streams metric
    reports (a client with a tracer traces every one) through the
    coalescing scheduler, with periodic ``status`` round trips.  The
    untraced run measures the same traffic with tracing fully off.  The
    enabled cost is bounded by projection — spans started x measured
    live-span cost against the untraced wall — because the real
    difference is far below scheduler noise at this scale.
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
        return wall, spans

    off_wall, _ = run(False)
    on_wall, span_count = run(True)
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

    report(f"tracing_overhead_{backend}", [
        f"Wire tracing overhead, {backend} front end, "
        f"{requests} sampled reports", "",
        f"wall, tracing off:  {off_wall:.3f}s",
        f"wall, tracing on:   {on_wall:.3f}s",
        f"spans started:      {span_count}",
        f"live span cost:     {live_span_seconds * 1e9:.0f}ns",
        f"projected overhead: {overhead_ratio * 100:.4f}%"])
    assert overhead_ratio < 0.02
