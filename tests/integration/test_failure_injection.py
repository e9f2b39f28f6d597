"""Failure injection: the system must degrade cleanly, not crash.

Covers the failure modes a long-running Harmony deployment actually sees:
clients vanishing without ``harmony_end``, transports dying mid-push,
malformed bundles over the wire, and resources disappearing between match
and apply.
"""

import time

import pytest

from repro.api import (
    HarmonyClient,
    HarmonyServer,
    TcpTransport,
    VariableType,
    connected_pair,
)
from repro.cluster import Cluster
from repro.controller import AdaptationController, ClientCountRulePolicy
from repro.errors import AllocationError, HarmonyError, TransportError
from repro.persistence import DurabilityJournal


def db_rsl(client_host):
    return f"""
harmonyBundle DBclient where {{
    {{QS {{node server {{hostname server0}} {{seconds 9}} {{memory 20}}}}
        {{node client {{hostname {client_host}}} {{seconds 1}} {{memory 2}}}}
        {{link client server 2}}}}
    {{DS {{node server {{hostname server0}} {{seconds 1}} {{memory 20}}}}
        {{node client {{hostname {client_host}}} {{memory >=32}}
                     {{seconds 18}}}}
        {{link client server 51}}}}}}
"""


@pytest.fixture
def world():
    cluster = Cluster.star("server0", ["c1", "c2", "c3"], memory_mb=128)
    policy = ClientCountRulePolicy(
        app_name="DBclient", bundle_name="where", threshold=3,
        below_option="QS", at_or_above_option="DS")
    controller = AdaptationController(cluster, policy=policy)
    return cluster, controller, HarmonyServer(controller)


def connect(server):
    client_end, server_end = connected_pair()
    session = server.attach(server_end)
    return HarmonyClient(client_end), client_end, session


class TestTransportFailures:
    def test_dead_client_transport_detaches_session(self, world):
        """A client whose transport died must not poison later pushes."""
        _cluster, controller, server = world
        first, first_transport, _ = connect(server)
        first.startup("DBclient")
        first.bundle_setup(db_rsl("c1"))
        first_transport.close()  # the client process crashed

        # Two more clients arrive; the rule switches everyone, and the
        # push to the dead client must be swallowed, not raised.
        for host in ("c2", "c3"):
            other, _t, _s = connect(server)
            other.startup("DBclient")
            other.bundle_setup(db_rsl(host))
        # Server kept running and configured the newcomers.
        assert len(controller.registry) == 3

    def test_abrupt_tcp_disconnect(self, world):
        _cluster, controller, server = world
        host, port = server.serve_tcp(port=0)
        try:
            client = HarmonyClient(TcpTransport.connect(host, port))
            client.startup("DBclient")
            client.bundle_setup(db_rsl("c1"))
            client.transport.close()  # no harmony_end
            time.sleep(0.1)
            # The registry still holds the instance (the paper's protocol
            # has no liveness detection; resources stay reserved), but the
            # server must still serve new clients.
            fresh = HarmonyClient(TcpTransport.connect(host, port))
            key = fresh.startup("DBclient")
            assert key == "DBclient.2"
            fresh.end()
        finally:
            server.stop()

    def test_send_on_closed_transport_raises_cleanly(self, world):
        _cluster, _controller, server = world
        client, transport, _session = connect(server)
        client.startup("DBclient")
        transport.close()
        with pytest.raises(TransportError):
            client.report_metric("x", 1.0)


class TestProtocolAbuse:
    def test_malformed_bundle_keeps_session_alive(self, world):
        _cluster, controller, server = world
        client, _t, _s = connect(server)
        client.startup("DBclient")
        with pytest.raises(HarmonyError):
            client.bundle_setup("{{{{ not rsl")
        # Session survives; a correct bundle now works.
        config = client.bundle_setup(db_rsl("c1"))
        assert config["option"] == "QS"

    def test_infeasible_bundle_reports_error(self, world):
        _cluster, controller, server = world
        client, _t, _s = connect(server)
        client.startup("DBclient")
        with pytest.raises(HarmonyError, match="server error"):
            client.bundle_setup("""
harmonyBundle DBclient big {
    {only {node n {seconds 1} {memory 99999}}}}""")
        assert len(controller.registry) == 1  # registered, unconfigured

    def test_messages_before_register_rejected_server_side(self, world):
        _cluster, _controller, server = world
        client_end, server_end = connected_pair()
        server.attach(server_end)
        received = []
        client_end.set_receiver(received.append)
        from repro.api.protocol import make_message
        client_end.send(make_message("bundle_setup", rsl="x"))
        assert received[0]["type"] == "error"
        assert "register first" in received[0]["message"]

    def test_unknown_message_type_answered_with_error(self, world):
        _cluster, _controller, server = world
        client_end, server_end = connected_pair()
        server.attach(server_end)
        received = []
        client_end.set_receiver(received.append)
        client_end.send({"type": "warp_drive"})
        assert received[0]["type"] == "error"

    def test_double_register_is_idempotent(self, world):
        """A duplicated register frame (retry, fault injection) must not
        poison the session: same app name -> same registration echoed."""
        _cluster, controller, server = world
        client_end, server_end = connected_pair()
        server.attach(server_end)
        received = []
        client_end.set_receiver(received.append)
        from repro.api.protocol import make_message
        client_end.send(make_message("register", app_name="A"))
        client_end.send(make_message("register", app_name="A"))
        assert received[0]["type"] == "registered"
        assert received[1]["type"] == "registered"
        assert received[1]["key"] == received[0]["key"]
        assert len(controller.registry) == 1

    def test_register_under_new_name_answered_with_error(self, world):
        _cluster, _controller, server = world
        client_end, server_end = connected_pair()
        server.attach(server_end)
        received = []
        client_end.set_receiver(received.append)
        from repro.api.protocol import make_message
        client_end.send(make_message("register", app_name="A"))
        client_end.send(make_message("register", app_name="B"))
        assert received[0]["type"] == "registered"
        assert received[1]["type"] == "error"


def stolen_commit(world, tmp_path):
    """Journal the controller, configure one DBclient (QS), steal the
    client memory its DS candidate needs and attempt that commit.

    The decision must fail whole: :class:`AllocationError`, and the
    bundle, node memory, view, predictions, listeners and log exactly as
    they were.  Returns ``(instance, state, candidate)`` for the caller's
    own follow-up."""
    cluster, controller, _server = world
    journal = DurabilityJournal(str(tmp_path), fsync="never")
    journal.attach(controller)
    instance = controller.register_app("DBclient")
    state = controller.setup_bundle(instance, db_rsl("c1"))
    from repro.controller.optimizer import enumerate_candidates
    candidate = next(iter(
        c for c in enumerate_candidates(
            instance, state, controller.optimization_context())
        if c.option_name == "DS"))
    # Steal the client memory the DS candidate needs.
    cluster.node("c1").memory.reserve("thief", 120.0)
    old = state.chosen
    assert old is not None and old.option_name == "QS"
    memory = {host: cluster.node(host).memory.available_mb
              for host in cluster.hostnames()}
    placed = controller.view.configuration_of(instance.key)
    predictions = controller.predict_all(controller.view)
    last_seq = journal.wal.last_seq
    fired = []
    controller.add_listener(fired.append)
    with pytest.raises(AllocationError):
        controller.commit([(instance, state, candidate)], reason="test")
    assert state.chosen is old
    assert {host: cluster.node(host).memory.available_mb
            for host in cluster.hostnames()} == memory
    assert controller.view.configuration_of(instance.key) is placed
    assert controller.predict_all(controller.view) == predictions
    assert fired == []
    assert journal.wal.last_seq == last_seq
    return instance, state, candidate


class TestResourceRaces:
    def test_memory_stolen_between_match_and_apply(self, world, tmp_path):
        """If resources vanish between match and commit, the decision
        fails whole and the bundle keeps the configuration it had."""
        _cluster, controller, _server = world
        _instance, state, _candidate = stolen_commit(world, tmp_path)
        assert state.chosen.allocation.memory_grants() == {
            "server.memory": 20.0, "client.memory": 2.0}
        assert controller.trace_log.traces_recorded == 1
        assert [trace.new_configuration
                for trace in controller.trace_log.traces()] == ["QS"]
        controller.journal.close()

    def test_end_app_after_race_releases_cleanly(self, world):
        cluster, controller, _server = world
        instance = controller.register_app("DBclient")
        controller.setup_bundle(instance, db_rsl("c1"))
        controller.end_app(instance)
        assert cluster.node("server0").memory.available_mb == \
            pytest.approx(128.0)


class TestKernelStress:
    def test_ten_thousand_processes(self, kernel):
        done = []

        def worker(index):
            yield kernel.timeout(index % 97 * 0.1)
            done.append(index)

        for index in range(10_000):
            kernel.spawn(worker(index))
        kernel.run()
        assert len(done) == 10_000

    def test_deep_process_chains(self, kernel):
        def chain(depth):
            if depth > 0:
                result = yield kernel.spawn(chain(depth - 1))
                return result + 1
            yield kernel.timeout(1)
            return 0

        assert kernel.run(kernel.spawn(chain(400))) == 400

    def test_fair_share_churn(self, kernel):
        from repro.cluster.resources import FairShareServer
        server = FairShareServer(kernel, capacity=4.0)
        finished = []

        def job(index):
            yield kernel.timeout(index * 0.01)
            yield server.submit(0.5 + index % 7)
            finished.append(index)

        for index in range(2_000):
            kernel.spawn(job(index))
        kernel.run()
        assert len(finished) == 2_000
        assert server.active_jobs == 0


class TestViewConsistencyAfterRace:
    def test_ghost_configuration_removed_from_view(self, world, tmp_path):
        """A failed commit leaves no ghost: the view still predicts the
        configuration that holds the resources, and once the memory is
        back the same candidate commits."""
        cluster, controller, _server = world
        instance, state, candidate = stolen_commit(world, tmp_path)
        assert instance.key in controller.predict_all(controller.view)
        cluster.node("c1").memory.release("thief")
        controller.commit([(instance, state, candidate)], reason="test")
        assert state.chosen.option_name == "DS"
        assert controller.view.configuration_of(
            instance.key).demands.option_name == "DS"
        controller.journal.close()
