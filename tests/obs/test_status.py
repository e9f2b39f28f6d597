"""The ``status`` wire message and server-side RPC/session counters."""

import json

import pytest

from repro.api import HarmonyClient, HarmonyServer, connected_pair
from repro.cluster import Cluster
from repro.controller import AdaptationController
from repro.controller.trial import OptimizerStats

TWO_OPTION_RSL = """
harmonyBundle demo size {
    {small {node n {seconds 60} {memory 24}}}
    {large {node n {seconds 35} {memory 24} {replicate 2}}
           {communication 4}}}
"""


@pytest.fixture
def controller():
    cluster = Cluster.full_mesh(["n0", "n1", "n2"], memory_mb=64.0)
    controller = AdaptationController(cluster)
    instance = controller.register_app("demo")
    controller.setup_bundle(instance, TWO_OPTION_RSL)
    return controller


def monitoring_client(server):
    client_end, server_end = connected_pair()
    server.attach(server_end)
    return HarmonyClient(client_end)


class TestStatusMessage:
    def test_report_shape(self, controller):
        server = HarmonyServer(controller)
        status = monitoring_client(server).query_status()
        assert sorted(status) == ["decision_traces", "histograms",
                                  "metrics", "optimizer", "replication",
                                  "server"]
        assert status["server"]["active_sessions"] == 0
        assert status["optimizer"]["candidates_evaluated"] == 4
        assert status["replication"]["role"] == "primary"
        assert status["replication"]["term"] == 0

    def test_a_fresh_server_reports_every_optimizer_counter(self):
        # A counter nothing has bumped yet is reported as zero, not left
        # out: the block has the same keys before any work as after.
        fresh = AdaptationController(Cluster.full_mesh(["n0"]))
        status = monitoring_client(HarmonyServer(fresh)).query_status()
        assert status["optimizer"] == dict.fromkeys(
            OptimizerStats.__dataclass_fields__, 0)
        assert OptimizerStats().snapshot() == status["optimizer"]

    def test_no_registration_required(self, controller):
        # A monitoring process queries without ever registering.
        server = HarmonyServer(controller)
        client = monitoring_client(server)
        status = client.query_status()
        assert status["metrics"]  # answered, not an error reply

    def test_decision_traces_in_report(self, controller):
        server = HarmonyServer(controller)
        status = monitoring_client(server).query_status(max_traces=5)
        traces = status["decision_traces"]
        assert traces, "admission decision missing from status report"
        trace = traces[-1]
        assert trace["chosen_option"] == "large"
        reasons = {c["option"]: c["rejection_reason"]
                   for c in trace["candidates"]}
        assert reasons == {"small": "worse-objective", "large": None}
        json.dumps(status, allow_nan=False)  # strict JSON all the way

    def test_max_traces_caps_list(self, controller):
        # Three more admissions -> four decision traces total.
        for _ in range(3):
            instance = controller.register_app("demo")
            controller.setup_bundle(instance, TWO_OPTION_RSL)
        server = HarmonyServer(controller)
        status = monitoring_client(server).query_status(max_traces=2)
        assert len(status["decision_traces"]) == 2

    def test_prefix_narrows_metrics(self, controller):
        server = HarmonyServer(controller)
        status = monitoring_client(server).query_status(prefix="optimizer")
        assert status["metrics"]
        assert all(name.startswith("optimizer") for name in
                   status["metrics"])

    def test_rpcs_counted_by_type(self, controller):
        server = HarmonyServer(controller)
        client = monitoring_client(server)
        client.query_status()
        status = client.query_status()
        # The first status RPC is visible in the second report.
        assert status["metrics"]["server.rpc.status"]["latest"] >= 1.0


class TestSessionCounters:
    def test_heartbeats_and_lease_expiries(self, controller):
        clock = {"now": 0.0}
        server = HarmonyServer(controller, lease_seconds=10.0,
                               clock=lambda: clock["now"])
        client_end, server_end = connected_pair()
        server.attach(server_end)
        app = HarmonyClient(client_end)
        app.startup("demo")
        app.heartbeat()
        clock["now"] = 100.0
        assert server.check_leases() == ["demo.2"]
        metrics = controller.metrics
        assert metrics.latest("server.heartbeats") == 1.0
        assert metrics.latest("server.lease_expiries") == 1.0
        status = monitoring_client(server).query_status()
        assert status["server"]["heartbeats_received"] == 1
        assert status["server"]["lease_seconds"] == 10.0
