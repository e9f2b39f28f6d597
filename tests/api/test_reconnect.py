"""Retry policy, timeouts, and the reconnect-and-replay path."""

import time

import pytest

from repro.api import (
    FaultAction,
    FaultyTransport,
    HarmonyClient,
    HarmonyServer,
    RetryPolicy,
    ScriptedFaultSchedule,
    TcpTransport,
    VariableType,
    connected_pair,
)
from repro.cluster import Cluster
from repro.controller import AdaptationController, ClientCountRulePolicy
from repro.errors import (
    ProtocolError,
    RequestTimeoutError,
    RetryExhaustedError,
)
from tests.conftest import lifecycle_events


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


def make_world():
    cluster = Cluster.star("server0", ["c1", "c2", "c3"], memory_mb=128)
    policy = ClientCountRulePolicy(
        app_name="DBclient", bundle_name="where", threshold=3,
        below_option="QS", at_or_above_option="DS")
    controller = AdaptationController(cluster, policy=policy)
    return controller, HarmonyServer(controller)


FAST = RetryPolicy(request_timeout_seconds=0.2, max_attempts=3,
                   backoff_initial_seconds=0.0)


class TestRetryPolicy:
    def test_backoff_schedule_is_exponential_and_capped(self):
        policy = RetryPolicy(max_attempts=6, backoff_initial_seconds=0.1,
                             backoff_multiplier=2.0, backoff_max_seconds=0.5)
        assert [policy.backoff_delay(retry) for retry in range(1, 6)] \
            == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_default_matches_the_old_hardcoded_behaviour(self):
        policy = RetryPolicy()
        assert policy.request_timeout_seconds == 30.0
        assert policy.max_attempts == 1

    def test_validation(self):
        with pytest.raises(ProtocolError):
            RetryPolicy(request_timeout_seconds=0.0)
        with pytest.raises(ProtocolError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ProtocolError):
            RetryPolicy(backoff_multiplier=0.5)


class TestRequestTimeout:
    def test_unanswered_request_raises_typed_error_fast(self):
        """The old behaviour was a hardcoded 30 s hang; now the policy's
        timeout applies and the failure is a typed repro.errors chain."""
        client_end, server_end = connected_pair()
        server_end.set_receiver(lambda message: None)  # a mute server
        client = HarmonyClient(client_end, retry_policy=RetryPolicy(
            request_timeout_seconds=0.05))
        started = time.monotonic()
        with pytest.raises(RetryExhaustedError) as excinfo:
            client.startup("DBclient")
        assert time.monotonic() - started < 5.0
        assert isinstance(excinfo.value.__cause__, RequestTimeoutError)
        assert "register" in str(excinfo.value.__cause__)

    def test_dropped_request_is_retried_and_succeeds(self):
        _controller, server = make_world()
        client_end, server_end = connected_pair()
        server.attach(server_end)
        lossy = FaultyTransport(client_end, ScriptedFaultSchedule(
            {("send", 0): FaultAction.DROP}))
        client = HarmonyClient(lossy, retry_policy=FAST)
        key = client.startup("DBclient")
        assert key == "DBclient.1"
        assert client.retries == 1


class TestReconnectAndReplay:
    def test_tcp_request_after_dead_socket_transparently_rejoins(self):
        controller, server = make_world()
        host, port = server.serve_tcp(port=0)
        try:
            client = HarmonyClient(TcpTransport.connect(host, port),
                                   retry_policy=FAST)
            key = client.startup("DBclient")
            client.bundle_setup(db_rsl("c1"))
            option = client.add_variable("where.option", "QS",
                                         VariableType.STRING)
            client.transport.close()  # the connection died under us
            nodes = client.query_nodes()  # retried through a fresh dial
            assert nodes["nodes"]
            assert client.reconnects == 1
            assert client.app_key == key
            assert len(controller.registry) == 1
            assert option.value == "QS"
            client.end()
        finally:
            server.stop()

    def test_explicit_rejoin_is_idempotent(self):
        controller, server = make_world()
        client_end, server_end = connected_pair()
        server.attach(server_end)
        client = HarmonyClient(client_end)
        key = client.startup("DBclient")
        client.bundle_setup(db_rsl("c1"))
        # Duplicate registration after rejoin: replaying the session any
        # number of times neither forks the instance nor re-runs setup
        # destructively.
        assert client.rejoin() == key
        assert client.rejoin() == key
        assert len(controller.registry) == 1
        assert len(controller.registry.instance(key).bundles) == 1
        # Replays on a live session short-circuit at the server: the
        # controller saw exactly one registration.
        assert [e["kind"] for e in lifecycle_events(controller)
                if e["client"] == key] == ["registered"]

    def test_update_during_disconnect_window_is_resent_on_rejoin(self):
        controller, server = make_world()
        ends = {}

        def join(host):
            client_end, server_end = connected_pair()
            server.attach(server_end)
            ends[host] = (client_end, server_end)
            client = HarmonyClient(
                client_end, retry_policy=FAST,
                transport_factory=lambda: reconnect())
            client.startup("DBclient")
            client.bundle_setup(db_rsl(host))
            return client

        def reconnect():
            client_end, server_end = connected_pair()
            server.attach(server_end)
            return client_end

        first = join("c1")
        option = first.add_variable("where.option", "QS",
                                    VariableType.STRING)
        # The connection dies server-side and client-side: pushes fail.
        ends["c1"][0].close()
        ends["c1"][1].close()
        # While c1 is away, two more clients flip the rule to DS.  The
        # push to c1 fails, so the batch stays staged under its lease.
        join("c2")
        join("c3")
        assert option.value == "QS"  # nothing arrived, nothing lost
        assert server.buffer.pending_for(first.app_key) != {}

        key = first.rejoin()
        assert key == first.app_key
        assert first.reconnects == 1
        assert len(controller.registry) == 3
        # The missed reconfiguration arrived with the change flag set.
        assert option.changed and option.consume() == "DS"
        assert server.buffer.pending_for(key) == {}
        rejoined = [e for e in lifecycle_events(controller)
                    if e["client"] == key and e["kind"] == "rejoined"]
        assert len(rejoined) == 1
