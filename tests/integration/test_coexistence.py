"""Whole-system coexistence: heterogeneous applications, one controller.

The paper's premise is that a *centralized* manager "can adapt any and all
applications in order to improve resource utilization".  These tests put
all three harmonized application types — the database clients, a Bag
instance, and a Simple job — on one cluster under one controller and check
global consistency: every app runs, memory accounting balances, and the
decision traces explain every configuration.
"""

import pytest

from repro.api import HarmonyClient, HarmonyServer, connected_pair
from repro.apps import BagOfTasksApp, SimpleParallelApp
from repro.apps.database import (
    CostParameters,
    DatabaseClientApp,
    DatabaseServerApp,
    WisconsinWorkload,
    database_bundle_numbers,
    database_bundle_rsl,
    make_wisconsin_pair,
)
from repro.apps.database.executor import DatabaseEngine
from repro.cluster import Cluster
from repro.controller import AdaptationController


@pytest.fixture
def world():
    cluster = Cluster()
    cluster.add_node("server0", speed=1.0, memory_mb=256)
    for index in range(6):
        cluster.add_node(f"w{index}", speed=1.0, memory_mb=128)
    hosts = cluster.hostnames()
    for i, a in enumerate(hosts):
        for b in hosts[i + 1:]:
            cluster.add_link(a, b, 40.0)
    controller = AdaptationController(cluster)
    return cluster, controller, HarmonyServer(controller)


def harmony_for(server):
    client_end, server_end = connected_pair()
    server.attach(server_end)
    return HarmonyClient(client_end)


def test_three_application_types_coexist(world):
    cluster, controller, server = world

    # A database server + one client on w0.
    relation_a, relation_b = make_wisconsin_pair(2000, seed=4)
    engine = DatabaseEngine(relation_a, relation_b, CostParameters())
    db_server = DatabaseServerApp(cluster, "server0", engine,
                                  buffer_pool_mb=64.0)
    db_client = DatabaseClientApp(
        name="db0", cluster=cluster, hostname="w0", server=db_server,
        harmony=harmony_for(server),
        bundle_rsl=database_bundle_rsl("w0", "server0",
                                       database_bundle_numbers(engine)),
        workload=WisconsinWorkload(seed=1),
        metrics=controller.metrics)
    db_client.start(query_limit=10)

    # A Bag app with variable parallelism.
    bag = BagOfTasksApp("Bag", cluster, harmony_for(server),
                        metrics=controller.metrics,
                        total_seconds_per_iteration=240.0,
                        task_count=12, domain=(1, 2, 4),
                        overhead_alpha=2.0)
    bag.start(iteration_limit=3)

    # A Simple one-shot job.
    simple = SimpleParallelApp(cluster, harmony_for(server),
                               seconds_per_worker=60.0,
                               communication_mb=8.0)
    simple_process = simple.start()

    cluster.run(until=2_000.0)

    assert db_client.stats.queries_completed == 10
    assert bag.stats.iterations_completed == 3
    assert simple.report is not None

    # All three ended -> every reservation returned.
    assert len(controller.registry) == 0
    for node in cluster.nodes():
        assert node.memory.reserved_mb == pytest.approx(0.0)

    # The decision traces name all three applications.
    assert controller.trace_log.traces_recorded == len(controller.trace_log)
    apps_in_log = {trace.app_key.split(".")[0]
                   for trace in controller.trace_log.traces()}
    assert {"DBclient", "Bag", "Simple"} <= apps_in_log


def test_memory_accounting_balances_while_running(world):
    cluster, controller, server = world
    bag = BagOfTasksApp("Bag", cluster, harmony_for(server),
                        total_seconds_per_iteration=240.0,
                        task_count=12, domain=(2, 4),
                        memory_mb=48.0, overhead_alpha=2.0)
    bag.start(iteration_limit=2)
    cluster.run(until=30.0)  # mid-flight

    chosen = controller.registry.instances()[0].bundles[
        "parallelism"].chosen
    workers = len(chosen.assignment.hostnames())
    total_reserved = sum(node.memory.reserved_mb
                         for node in cluster.nodes())
    assert total_reserved == pytest.approx(48.0 * workers)
    cluster.run()


def test_simple_job_squeezes_in_beside_bag(world):
    """The Simple job needs 4 x 32 MB nodes; with Bag holding four nodes
    the matcher still finds room (co-location by memory)."""
    cluster, controller, server = world
    bag = BagOfTasksApp("Bag", cluster, harmony_for(server),
                        total_seconds_per_iteration=480.0,
                        task_count=12, domain=(4,), overhead_alpha=0.0)
    bag.start(iteration_limit=1)
    cluster.run(until=5.0)

    simple = SimpleParallelApp(cluster, harmony_for(server),
                               seconds_per_worker=30.0,
                               communication_mb=4.0)
    process = simple.start()
    cluster.run(process)
    assert simple.report is not None
    assert len(set(simple.report.placements.values())) == 4
    cluster.run()
    assert bag.stats.iterations_completed == 1


def test_decision_traces_are_complete_and_ordered(world):
    cluster, controller, server = world
    for index in range(3):
        bag = BagOfTasksApp(f"Bag{index}", cluster, harmony_for(server),
                            total_seconds_per_iteration=120.0,
                            task_count=6, domain=(1, 2),
                            overhead_alpha=1.0)
        bag.start(iteration_limit=1)
        cluster.run(until=cluster.now + 10.0)
    cluster.run()

    assert controller.trace_log.traces_recorded == len(controller.trace_log)
    traces = controller.trace_log.traces()
    times = [trace.time for trace in traces]
    assert times == sorted(times)
    for trace in traces:
        assert trace.new_configuration
        assert trace.trigger
