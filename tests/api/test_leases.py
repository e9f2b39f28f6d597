"""Session leases: heartbeats, expiry, eviction, and rejoining after."""

import pytest

from repro.api import (
    HarmonyClient,
    HarmonyServer,
    VariableType,
    connected_pair,
)
from repro.api.protocol import make_message
from repro.cluster import Cluster
from repro.controller import AdaptationController, ClientCountRulePolicy
from repro.errors import HarmonyError, LeaseExpiredError
from repro.persistence import DurabilityJournal
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


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def world():
    cluster = Cluster.star("server0", ["c1", "c2", "c3"], memory_mb=128)
    policy = ClientCountRulePolicy(
        app_name="DBclient", bundle_name="where", threshold=3,
        below_option="QS", at_or_above_option="DS")
    controller = AdaptationController(cluster, policy=policy)
    clock = FakeClock()
    server = HarmonyServer(controller, lease_seconds=10.0, clock=clock)
    return cluster, controller, server, clock


def connect(server, host="c1"):
    client_end, server_end = connected_pair()
    server.attach(server_end)
    client = HarmonyClient(client_end)
    client.startup("DBclient")
    client.bundle_setup(db_rsl(host))
    return client


class TestLeaseRenewal:
    def test_server_without_leases_never_evicts(self):
        cluster = Cluster.star("server0", ["c1"], memory_mb=128)
        controller = AdaptationController(cluster)
        server = HarmonyServer(controller)
        connect(server)
        assert server.check_leases() == []
        assert server.tick() is True
        assert len(controller.registry) == 1

    def test_heartbeat_renews_the_lease(self, world):
        _cluster, controller, server, clock = world
        client = connect(server)
        assert server.lease_deadline(client.app_key) == pytest.approx(10.0)
        clock.advance(6.0)
        client.heartbeat()
        assert client.heartbeats_acked == 1
        assert server.heartbeats_received == 1
        assert server.lease_deadline(client.app_key) == pytest.approx(16.0)
        clock.advance(6.0)  # t = 12: would have expired without the beat
        assert server.check_leases() == []
        assert len(controller.registry) == 1

    def test_any_rpc_renews_the_lease(self, world):
        _cluster, controller, server, clock = world
        client = connect(server)
        clock.advance(6.0)
        client.query_nodes()
        clock.advance(6.0)
        assert server.check_leases() == []
        assert len(controller.registry) == 1

    def test_request_answered_with_error_does_not_renew(self, world):
        _cluster, _controller, server, clock = world
        client = connect(server)
        clock.advance(6.0)
        with pytest.raises(HarmonyError, match="server error"):
            client.bundle_setup("harmonyBundle broken {")
        client.transport.send(make_message("report_metric", name="x"))
        assert client._response["type"] == "error"
        assert server.lease_deadline(client.app_key) == pytest.approx(10.0)
        client.query_nodes()
        assert server.lease_deadline(client.app_key) == pytest.approx(16.0)

    def test_the_renewal_is_done_before_the_reply_is_sent(self, world):
        """The client cannot hold an answer whose renewal is still to
        come: a clock it moves next never lands inside the renewal."""
        _cluster, _controller, server, clock = world
        client = connect(server)
        key = client.app_key
        transport = server._sessions_by_key[key].transport
        send, sent = transport.send, []

        def observed(message):
            sent.append((message["type"], server.lease_deadline(key)))
            send(message)

        transport.send = observed
        clock.advance(6.0)
        client.query_nodes()
        clock.advance(2.0)
        with pytest.raises(HarmonyError, match="server error"):
            client.bundle_setup("harmonyBundle broken {")
        assert sent == [("node_list", pytest.approx(16.0)),
                        ("error", pytest.approx(16.0))]

    def test_heartbeat_ack_carries_the_deadline(self, world):
        _cluster, _controller, server, clock = world
        client = connect(server)
        clock.advance(3.0)
        client.heartbeat()
        assert client._lease_expires_at == pytest.approx(13.0)


class TestEviction:
    def test_silent_client_is_evicted(self, world):
        cluster, controller, server, clock = world
        client = connect(server)
        key = client.app_key
        clock.advance(11.0)
        assert server.check_leases() == [key]
        assert len(controller.registry) == 0
        assert server.lease_deadline(key) is None
        # Resources released through the transactional view.
        assert cluster.node("server0").memory.available_mb == \
            pytest.approx(128.0)
        # Structured trail: lifecycle event + eviction metric.
        event = lifecycle_events(controller)[-1]
        assert (event["kind"], event["client"]) == ("evicted", key)
        assert "lease expired" in event["detail"]
        assert controller.metrics.latest("controller.evictions") == 1.0
        # The half-alive client learned its fate from the notice.
        assert client.lease_lost

    def test_eviction_journals_one_release(self, world, tmp_path):
        """Each store holds an eviction once: one ``evicted`` flight
        event, one WAL ``release``, one bump of the eviction counter."""
        _cluster, controller, server, clock = world
        journal = DurabilityJournal(str(tmp_path), fsync="never")
        journal.attach(controller)
        recorder = controller.flight_recorder

        def evictions():
            return controller.metrics.latest("controller.evictions") or 0.0

        assert evictions() == 0.0
        for count, host in enumerate(("c1", "c2"), start=1):
            key = connect(server, host).app_key
            before = journal.wal.last_seq
            last_seq = recorder.events()[-1]["seq"]
            clock.advance(11.0)
            assert server.check_leases() == [key]
            assert [(record.kind, record.data["key"], record.data["kind"])
                    for record in journal.wal.records()
                    if record.seq > before] == [("release", key, "evicted")]
            naming = [(event["kind"], event.get("detail"))
                      for event in recorder.events()
                      if event["seq"] > last_seq and key in event.values()]
            assert naming == [("evicted", "lease expired")]
            assert evictions() == float(count)
        journal.close()

    def test_eviction_reoptimizes_survivors(self, world):
        _cluster, controller, server, clock = world
        clients = [connect(server, host) for host in ("c1", "c2", "c3")]
        options = [c.add_variable("where.option", "QS", VariableType.STRING)
                   for c in clients]
        assert [o.value for o in options] == ["DS", "DS", "DS"]
        clock.advance(6.0)
        clients[0].heartbeat()
        clients[2].heartbeat()
        clock.advance(5.0)  # t = 11: only c2's lease (deadline 10) lapsed
        evicted = server.check_leases()
        assert evicted == [clients[1].app_key]
        assert len(controller.registry) == 2
        # Two clients remain -> the rule policy flips survivors back.
        assert options[0].changed and options[0].consume() == "QS"
        assert options[2].changed and options[2].consume() == "QS"

    def test_heartbeat_just_after_eviction_answers_lease_expired(
            self, world):
        _cluster, controller, server, clock = world
        client = connect(server)
        key = client.app_key
        clock.advance(11.0)
        server.check_leases()
        beats_before = server.heartbeats_received
        # The client's beat races the eviction and loses: the server
        # answers lease_expired instead of renewing anything.
        client.transport.send(make_message("heartbeat", key=key))
        assert server.heartbeats_received == beats_before
        assert len(controller.registry) == 0
        assert client.lease_lost
        with pytest.raises(LeaseExpiredError):
            client.heartbeat()

    def test_rejoin_after_eviction_makes_a_fresh_instance(self, world):
        _cluster, controller, server, clock = world
        client = connect(server)
        old_key = client.app_key
        clock.advance(11.0)
        server.check_leases()
        new_key = client.rejoin()
        assert new_key != old_key
        assert not client.lease_lost
        assert len(controller.registry) == 1
        assert lifecycle_events(controller)[-1]["kind"] != "rejoined"
        # The replayed session is fully functional.
        client.heartbeat()
        assert server.heartbeats_received == 1


class TestTick:
    """``tick()``, the one periodic pass of a served Harmony, runs the
    lease check on a primary and on nothing else."""

    def test_a_primary_tick_evicts_at_the_deadline(self, world):
        _cluster, controller, server, clock = world
        client = connect(server)
        clock.advance(9.9)
        assert server.tick() is True
        assert len(controller.registry) == 1
        clock.advance(0.1)
        assert server.tick() is True
        assert len(controller.registry) == 0
        assert client.lease_lost  # told on its still-open transport
        assert lifecycle_events(controller)[-1]["kind"] == "evicted"

    def test_a_standby_tick_evicts_nothing(self, world):
        _cluster, controller, server, clock = world
        client = connect(server)
        server.demote()
        clock.advance(100.0)
        assert server.tick() is False
        assert len(controller.registry) == 1
        assert server.lease_deadline(client.app_key) == pytest.approx(10.0)
        assert "evicted" not in [event["kind"] for event
                                 in lifecycle_events(controller)]
