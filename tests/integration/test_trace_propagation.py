"""End-to-end trace propagation over real sockets, both front ends.

One sampled ``report_metric`` from a traced client must produce a single
trace id that links every hop of the reevaluation pipeline:

    client.request -> server.dispatch -> scheduler.batch
        -> optimizer.sweep
        -> server.push(generation=g)

The scenario forces a sweep of every pod with pushes: each pod
starts with one live node (everything admits as ``small``), then the
spare nodes come back and the coalesced batch rebalances every app to
``large``.
"""

import time

import pytest

from repro.api import HarmonyClient, HarmonyServer, RetryPolicy
from repro.controller import AdaptationController, ModelDrivenPolicy
from repro.obs.trace import Tracer
from tests.conftest import spans_named
from tests.pods import POD_RSL, build_pod_cluster

FAST = RetryPolicy(request_timeout_seconds=2.0, max_attempts=6,
                   backoff_initial_seconds=0.05,
                   heartbeat_interval_seconds=0.2)

PODS = 2
APPS_PER_POD = 2


def wait_until(predicate, timeout=10.0, interval=0.02, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


@pytest.fixture
def traced_stack(server_factory):
    cluster = build_pod_cluster(PODS)
    spares = [f"p{pod}n{i}" for pod in range(PODS) for i in range(1, 4)]
    for hostname in spares:
        cluster.node(hostname).fail()
    controller = AdaptationController(
        cluster, policy=ModelDrivenPolicy(pairwise_exchange=False),
        tracer=Tracer())
    server = HarmonyServer(controller)
    handle = server_factory(server)
    server.start_scheduler(coalesce_window=0.25, max_delay=1.0)

    clients = []
    index = 0
    for pod in range(PODS):
        for _ in range(APPS_PER_POD):
            tracer = Tracer() if index == 0 else None
            client = HarmonyClient(handle.connect(), retry_policy=FAST,
                                   tracer=tracer)
            client.startup(f"Pod{pod}App{index}")
            client.bundle_setup(POD_RSL.format(pod=pod, index=index))
            clients.append(client)
            index += 1
    # Drain the admission-time reevaluation requests: the test body's
    # batch must coalesce ONLY the traced report, so the report's trace
    # context is the batch span's primary parent.
    settle = server.scheduler.request("fixture:settle")
    assert server.scheduler.wait_for_generation(settle, timeout=15.0)
    try:
        yield controller, server, cluster, spares, clients
    finally:
        for client in clients:
            try:
                client.end()
            except Exception:
                pass
        handle.stop()


class TestSingleTraceId:
    def test_one_trace_links_client_to_push(self, traced_stack):
        controller, server, _cluster, spares, clients = traced_stack
        traced = clients[0]
        assert all(state.chosen.option_name == "small"
                   for instance in controller.registry.instances()
                   for state in instance.bundles.values())

        # The spare nodes rejoin; every pod must re-evaluate.
        for hostname in spares:
            controller.restore_node(hostname)

        traced.report_metric("latency", 1.0)
        key = traced.app_key
        wait_until(lambda: controller.metrics.latest(
            f"app.{key}.latency") == 1.0, message="metric report arrival")
        generation = server.scheduler.request("test:flush")
        assert server.scheduler.wait_for_generation(generation,
                                                    timeout=15.0)

        [client_span] = [span for span in
                         spans_named(traced.tracer, "client.request")
                         if span.attributes.get("rpc") == "report_metric"]
        trace_id = client_span.trace_id
        assert trace_id is not None

        spans = controller.tracer.spans
        in_trace = [span for span in spans if span.trace_id == trace_id]
        by_name = {}
        for span in in_trace:
            by_name.setdefault(span.name, []).append(span)

        # client -> server.dispatch continues the client's trace.
        [dispatch] = by_name["server.dispatch"]
        assert dispatch.parent_id == client_span.span_id
        assert dispatch.attributes["rpc"] == "report_metric"

        # dispatch -> scheduler.batch, linked back to the report.
        [batch] = by_name["scheduler.batch"]
        assert any(link.startswith(f"{trace_id}:")
                   for link in batch.attributes["links"])
        assert batch.attributes["changes"] == PODS * APPS_PER_POD

        # batch -> reevaluate -> one sweep span, in the batch's trace.
        [reevaluate] = by_name["controller.reevaluate"]
        assert reevaluate.parent_id == batch.span_id
        [sweep] = by_name["optimizer.sweep"]
        assert sweep.parent_id == reevaluate.span_id
        assert sweep.attributes["changes"] == PODS * APPS_PER_POD

        # reevaluate -> push, generation-stamped, one per rebalanced
        # client.
        pushes = by_name["server.push"]
        assert len(pushes) == PODS * APPS_PER_POD
        assert all(span.attributes["generation"] > 0 for span in pushes)
        assert all(span.parent_id == reevaluate.span_id
                   for span in pushes)

        # The sweep really flipped everyone.
        assert all(state.chosen.option_name == "large"
                   for instance in controller.registry.instances()
                   for state in instance.bundles.values())

    def test_untraced_clients_stay_invisible(self, traced_stack):
        controller, server, _cluster, _spares, clients = traced_stack
        untraced = clients[1]
        untraced.report_metric("latency", 2.0)
        key = untraced.app_key
        wait_until(lambda: controller.metrics.latest(
            f"app.{key}.latency") == 2.0, message="metric report arrival")
        generation = server.scheduler.request("test:flush")
        assert server.scheduler.wait_for_generation(generation,
                                                    timeout=15.0)
        dispatches = spans_named(controller.tracer, "server.dispatch")
        assert all(span.attributes["rpc"] != "report_metric"
                   for span in dispatches)
