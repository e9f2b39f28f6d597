"""Server shutdown ordering and post-eviction registration semantics.

Two regressions pinned here:

* a stopped server never runs a lease check: ``tick()`` does nothing
  after ``stop()``, even once a late heartbeat re-armed a lease that
  then lapsed.
* a duplicate ``register`` arriving after an eviction must produce a
  fresh session — neither resuming the evicted instance nor re-arming
  the dead key's lease.
"""

import time

import pytest

from repro.api import HarmonyClient, HarmonyServer, connected_pair
from repro.api.protocol import make_message
from repro.cluster import Cluster
from repro.controller import AdaptationController
from tests.conftest import lifecycle_events

RSL = """
harmonyBundle App where {
    {only {node n {hostname c1} {seconds 5} {memory 16}}}}
"""


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_server(lease_seconds=10.0, clock=None):
    cluster = Cluster.star("server0", ["c1", "c2"], memory_mb=128)
    controller = AdaptationController(cluster)
    server = HarmonyServer(controller, lease_seconds=lease_seconds,
                           clock=clock)
    return controller, server


def raw_session(server):
    """A frame-level client: send messages, collect raw replies."""
    client_end, server_end = connected_pair()
    server.attach(server_end)
    replies = []
    client_end.set_receiver(replies.append)
    return client_end, replies


class TestStopOrdering:
    def test_tick_after_stop_never_evicts(self):
        clock = FakeClock()
        controller, server = make_server(lease_seconds=10.0, clock=clock)
        client_end, replies = raw_session(server)
        client_end.send(make_message("register", app_name="App"))
        key = replies[-1]["key"]
        server.stop()
        # The client owns its connection: a beat after the stop re-arms
        # the lease, which then lapses.
        client_end.send(make_message("heartbeat", key=key))
        assert replies[-1]["type"] == "heartbeat_ack"
        clock.advance(100.0)
        assert server.lease_deadline(key) == 10.0
        assert server.tick() is False
        assert len(controller.registry) == 1
        assert [event["kind"] for event in lifecycle_events(controller)] \
            == ["registered"]

    def test_stop_is_idempotent_and_restartable(self):
        _controller, server = make_server(lease_seconds=5.0)
        server.stop()
        server.stop()
        host, port = server.serve_tcp(port=0)
        assert port != 0
        server.stop()


class TestRegisterAfterEviction:
    def evict(self, server, clock, key):
        clock.advance(100.0)
        evicted = server.check_leases()
        assert evicted == [key]

    def test_stop_wakes_a_blocked_accept_immediately(self):
        """Regression: stop() only closed the listener fd, which does
        not wake a thread blocked in accept(2) — every shutdown with an
        idle accept loop burned the full 5 s join timeout."""
        _controller, server = make_server()
        server.serve_tcp("127.0.0.1", 0)
        deadline = time.monotonic() + 2.0
        while server._accept_thread is None \
                or not server._accept_thread.is_alive():
            assert time.monotonic() < deadline
            time.sleep(0.01)
        time.sleep(0.2)  # let the thread actually block in accept()
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 2.0

    def test_duplicate_register_gets_a_fresh_session(self):
        clock = FakeClock()
        controller, server = make_server(lease_seconds=10.0, clock=clock)
        client_end, replies = raw_session(server)
        client_end.send(make_message("register", app_name="App"))
        first = replies[-1]
        self.evict(server, clock, first["key"])

        client_end.send(make_message("register", app_name="App"))
        second = replies[-1]
        assert second["type"] == "registered"
        assert second["resumed"] is False
        assert second["key"] != first["key"]
        assert second["instance_id"] != first["instance_id"]

    def test_resume_key_dedupe_respects_eviction(self):
        clock = FakeClock()
        controller, server = make_server(lease_seconds=10.0, clock=clock)
        client_end, replies = raw_session(server)
        client_end.send(make_message("register", app_name="App"))
        first = replies[-1]
        self.evict(server, clock, first["key"])

        # Explicitly asking to resume the evicted key must NOT revive it.
        fresh_end, fresh_replies = raw_session(server)
        fresh_end.send(make_message("register", app_name="App",
                                    resume_key=first["key"]))
        reply = fresh_replies[-1]
        assert reply["type"] == "registered"
        assert reply["resumed"] is False
        assert reply["key"] != first["key"]

    def test_no_message_renews_an_evicted_lease(self):
        clock = FakeClock()
        controller, server = make_server(lease_seconds=10.0, clock=clock)
        client_end, replies = raw_session(server)
        client_end.send(make_message("register", app_name="App"))
        key = replies[-1]["key"]
        self.evict(server, clock, key)
        assert server.lease_deadline(key) is None

        # A late heartbeat from the evicted client answers lease_expired
        # and — the regression — must not re-arm the dead key's lease.
        client_end.send(make_message("heartbeat", key=key))
        assert replies[-1]["type"] == "lease_expired"
        assert server.lease_deadline(key) is None
        assert server.check_leases() == []

    def test_client_rejoin_after_eviction_is_a_fresh_instance(self):
        clock = FakeClock()
        controller, server = make_server(lease_seconds=10.0, clock=clock)

        def fresh_link():
            client_end, server_end = connected_pair()
            server.attach(server_end)
            return client_end

        client = HarmonyClient(fresh_link(), transport_factory=fresh_link)
        old_key = client.startup("App")
        client.bundle_setup(RSL)
        self.evict(server, clock, old_key)

        client.transport.close()
        new_key = client.rejoin()
        assert new_key != old_key
        assert len(controller.registry) == 1
        instance = controller.registry.instance(new_key)
        assert not instance.ended
        assert instance.bundles["where"].chosen is not None
