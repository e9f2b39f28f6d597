"""The concurrent admission pipeline: lock split, backpressure, races.

These tests pin the server's concurrency contract:

* cheap RPCs (heartbeat, status, metric reports) never contend with the
  controller lock, so a long optimization sweep cannot starve liveness;
* admissions are bounded — a full pipeline refuses with a *retryable*
  ``controller_busy`` instead of stacking threads;
* the session-lifecycle races fixed in this change stay fixed
  (stale detach after reconnect, accept-loop death, lease renewal on
  malformed traffic, unbounded RPC metric cardinality).
"""

import threading
import time

import pytest

from repro.api import HarmonyClient, HarmonyServer, connected_pair
from repro.cluster import Cluster
from repro.controller import AdaptationController, ClientCountRulePolicy


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


def make_server(**kwargs):
    cluster = Cluster.star("server0", [f"c{i}" for i in range(1, 9)],
                           memory_mb=128)
    policy = ClientCountRulePolicy(
        app_name="DBclient", bundle_name="where", threshold=3,
        below_option="QS", at_or_above_option="DS")
    controller = AdaptationController(cluster, policy=policy)
    return controller, HarmonyServer(controller, **kwargs)


def connect(server, **client_kwargs):
    client_end, server_end = connected_pair()
    session = server.attach(server_end)
    return HarmonyClient(client_end, **client_kwargs), session


def hold_controller_lock(server):
    """Acquire ``controller_lock`` from a helper thread; returns
    (held_event, release_event, thread)."""
    held = threading.Event()
    release = threading.Event()

    def hold():
        with server.controller_lock:
            held.set()
            release.wait(10.0)

    thread = threading.Thread(target=hold, daemon=True)
    thread.start()
    assert held.wait(5.0)
    return release, thread


class TestLockSplit:
    def test_heartbeat_flows_while_optimization_holds_the_lock(self):
        """A sweep in flight must not block liveness traffic."""
        _controller, server = make_server(lease_seconds=10.0,
                                          clock=FakeClock())
        client, _session = connect(server)
        client.startup("DBclient")
        release, thread = hold_controller_lock(server)
        try:
            done = threading.Event()

            def beat():
                client.heartbeat()  # would deadlock under a global lock
                done.set()

            beater = threading.Thread(target=beat, daemon=True)
            beater.start()
            assert done.wait(2.0), \
                "heartbeat blocked on the controller lock"
            assert server.heartbeats_received == 1
        finally:
            release.set()
            thread.join(5.0)

    def test_status_and_metrics_flow_while_lock_is_held(self):
        controller, server = make_server()
        client, _session = connect(server)
        client.startup("DBclient")
        release, thread = hold_controller_lock(server)
        try:
            results = {}

            def query():
                results["status"] = client.query_status()
                client.report_metric("response_time", 1.25)
                results["done"] = True

            worker = threading.Thread(target=query, daemon=True)
            worker.start()
            worker.join(2.0)
            assert results.get("done"), \
                "status/report_metric blocked on the controller lock"
            assert results["status"]["server"]["active_sessions"] == 1
            key = client.app_key
            assert controller.metrics.latest(
                f"app.{key}.response_time") == 1.25
        finally:
            release.set()
            thread.join(5.0)

    def test_concurrent_registers_all_admitted(self):
        """The lock split keeps admissions serializable: a thundering
        herd of registrations all land, with unique keys."""
        controller, server = make_server()
        clients = [connect(server)[0] for _ in range(12)]
        barrier = threading.Barrier(len(clients))
        keys = []
        keys_lock = threading.Lock()

        def register(client):
            barrier.wait(5.0)
            key = client.startup("DBclient")
            with keys_lock:
                keys.append(key)

        threads = [threading.Thread(target=register, args=(c,),
                                    daemon=True) for c in clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert len(keys) == 12
        assert len(set(keys)) == 12
        assert len(controller.registry) == 12


class TestStaleDetach:
    def test_stale_detach_after_reconnect_keeps_live_session(self):
        """Regression: a dead session's detach must not tear down the
        replacement session that took over its key."""
        clock = FakeClock()
        _controller, server = make_server(lease_seconds=10.0, clock=clock)
        client1, session1 = connect(server)
        key = client1.startup("DBclient")

        # The client's connection drops and it rejoins on a fresh
        # transport, resuming the same key.
        client2, session2 = connect(server)
        client2._app_name = "DBclient"
        client2.app_key = key
        client2._replay_session()
        assert server._sessions_by_key[key] is session2

        # Something staged for the live session…
        server.stage_updates(key, {"where.option": "DS"})
        lease_before = server.lease_deadline(key)

        # …then the *stale* session detaches (e.g. its dead transport
        # fails a late reply).  Nothing of the live session may go.
        server.detach(session1)
        assert server._sessions_by_key[key] is session2
        assert server.lease_deadline(key) == lease_before
        assert server.buffer.pending_for(key) == {"where.option": "DS"}

        # The owner's detach still cleans up for real.
        server.detach(session2)
        assert key not in server._sessions_by_key
        assert server.lease_deadline(key) is None
        assert server.buffer.pending_for(key) == {}


class FlakyListener:
    """A listener whose accept() fails transiently, then blocks."""

    def __init__(self, failures):
        self.failures = failures
        self.calls = 0
        self.unblock = threading.Event()

    def accept(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise OSError("transient accept failure")
        self.unblock.wait(10.0)
        raise OSError("listener closed")


class TestAcceptLoopResilience:
    def test_transient_accept_errors_do_not_kill_the_loop(self):
        controller, server = make_server()
        server._accept_retry_seconds = 0.0
        listener = FlakyListener(failures=3)
        server._listener_socket = listener  # type: ignore[assignment]
        thread = threading.Thread(target=server._accept_loop, daemon=True)
        thread.start()
        deadline = time.monotonic() + 5.0
        while listener.calls < 4:  # 3 failures survived + 1 blocking call
            assert time.monotonic() < deadline, \
                "accept loop died on a transient OSError"
            time.sleep(0.005)
        assert thread.is_alive()
        assert controller.metrics.latest("server.accept_errors") == 3.0
        # Orderly shutdown: the same OSError now means "stop".
        server._stopping = True
        listener.unblock.set()
        thread.join(5.0)
        assert not thread.is_alive()
        assert controller.metrics.latest("server.accept_errors") == 3.0

    def test_stopping_exits_without_counting_an_error(self):
        controller, server = make_server()
        listener = FlakyListener(failures=1)
        server._listener_socket = listener  # type: ignore[assignment]
        server._stopping = True
        server._accept_loop()  # returns immediately, no error counted
        assert controller.metrics.latest("server.accept_errors") is None


class TestRpcCardinality:
    def test_unknown_types_share_one_bucket(self):
        controller, server = make_server()
        client_end, server_end = connected_pair()
        server.attach(server_end)
        replies = []
        client_end.set_receiver(replies.append)
        for bogus in ("zzz", "drop_tables", "x" * 60):
            client_end.send({"type": bogus})
        assert controller.metrics.latest("server.rpc.unknown") == 3.0
        minted = controller.metrics.names(prefix="server.rpc")
        assert minted == ["server.rpc.unknown"]
        assert all(reply["type"] == "error" for reply in replies)

    def test_known_types_keep_their_own_series(self):
        controller, server = make_server()
        client, _ = connect(server)
        client.startup("DBclient")
        assert controller.metrics.latest("server.rpc.register") == 1.0
        assert controller.metrics.latest("server.rpc.unknown") is None


class TestLeaseRenewalOnDispatch:
    def test_malformed_traffic_does_not_renew_the_lease(self):
        """Regression: the lease renews after *successful* dispatch, so a
        client emitting only garbage still expires on schedule."""
        clock = FakeClock()
        controller, server = make_server(lease_seconds=10.0, clock=clock)
        client, _ = connect(server)
        key = client.startup("DBclient")
        client_end = client.transport
        clock.advance(6.0)
        # Unknown types and malformed known types both fail dispatch.
        client_end.send({"type": "nonsense"})
        client_end.send({"type": "bundle_setup"})  # missing rsl
        assert server.lease_deadline(key) == pytest.approx(10.0)
        clock.advance(5.0)  # t=11 > 10: lease lapses despite the traffic
        assert server.check_leases() == [key]
        assert len(controller.registry) == 0

    def test_valid_traffic_still_renews(self):
        clock = FakeClock()
        _controller, server = make_server(lease_seconds=10.0, clock=clock)
        client, _ = connect(server)
        key = client.startup("DBclient")
        clock.advance(6.0)
        client.report_metric("rt", 1.0)
        assert server.lease_deadline(key) == pytest.approx(16.0)
