"""Client-visible failover: redirects, term stamping, jitter, held batches.

The server side of failover (WAL shipping, fencing, promotion) lives in
``tests/persistence/test_replication.py``; this suite covers the client
and wire layer — ``controller_moved`` redirects from a standby, the
leader hint and static failover rotation in :class:`HarmonyClient`,
term stamping on replies, retry jitter, and the batch held for a client
that is away.
"""

import random

import pytest

from repro.api import (
    HarmonyClient,
    HarmonyServer,
    RetryPolicy,
    TcpTransport,
    VariableType,
    connected_pair,
    make_message,
)
from repro.api import retry
from repro.cluster import Cluster
from repro.controller import AdaptationController, ClientCountRulePolicy
from repro.errors import (
    ControllerMovedError,
    ProtocolError,
    RetryExhaustedError,
    TransportError,
)
from repro.persistence import DurabilityJournal

RSL = """
harmonyBundle demo where {
    {small {node worker {os linux} {seconds 5} {memory 16}}}
    {big {node worker {os linux} {seconds 3} {memory 64}}}}
"""

FAST = RetryPolicy(request_timeout_seconds=0.5, max_attempts=4,
                   backoff_initial_seconds=0.0)


def make_server(**kwargs):
    cluster = Cluster.full_mesh(["n0", "n1", "n2"], memory_mb=256)
    controller = AdaptationController(cluster)
    return controller, HarmonyServer(controller, **kwargs)


def attached_client(server, **kwargs):
    client_end, server_end = connected_pair()
    server.attach(server_end)
    return HarmonyClient(client_end, **kwargs)


def session_factory(server):
    """A failover entry: each call opens a fresh in-process session."""
    def connect():
        client_end, server_end = connected_pair()
        server.attach(server_end)
        return client_end
    return connect


class TestStandbyRedirect:
    def test_mutation_answered_with_typed_redirect(self):
        _controller, server = make_server(
            standby=True, failover_targets=["primary:9"])
        client = attached_client(server)
        with pytest.raises(ControllerMovedError) as excinfo:
            client._request_once(make_message(
                "register", app_name="demo", use_interrupts=False))
        assert excinfo.value.leader == "primary:9"
        assert isinstance(excinfo.value.term, int)

    def test_redirect_is_retryable_then_exhausts(self):
        _controller, server = make_server(standby=True)
        client = attached_client(server)  # default policy: one attempt
        with pytest.raises(RetryExhaustedError) as excinfo:
            client.startup("demo")
        assert isinstance(excinfo.value.__cause__, ControllerMovedError)

    def test_read_only_status_served_by_standby(self):
        _controller, server = make_server(standby=True)
        client = attached_client(server)
        status = client.query_status()
        assert status["replication"]["role"] == "standby"
        assert status["metrics"] is not None

    def test_every_mutating_type_is_refused(self):
        from repro.api.protocol import MUTATING_TYPES
        assert MUTATING_TYPES == {"register", "bundle_setup",
                                  "report_metric", "end"}


class TestClientFailover:
    def test_redirected_session_moves_to_failover_target(self):
        _controller_a, server_a = make_server()
        controller_b, server_b = make_server()
        client = attached_client(
            server_a, retry_policy=FAST,
            failover=[session_factory(server_b)])
        key = client.startup("demo")
        server_a.demote()  # the primary steps down mid-session
        result = client.bundle_setup(RSL)
        assert result["option"] in {"small", "big"}
        # The session replayed onto the failover target: same key, the
        # bundle landed exactly once, and we dialed exactly one new link.
        assert client.app_key == key
        assert client.reconnects == 1
        assert len(controller_b.registry) == 1
        assert len(controller_b.registry.instance(key).bundles) == 1

    def test_rotation_advances_past_dead_target(self):
        _controller_a, server_a = make_server()
        controller_b, server_b = make_server()

        def dead():
            raise TransportError("connection refused")

        client = attached_client(
            server_a, retry_policy=FAST,
            failover=[dead, session_factory(server_b)])
        client.startup("demo")
        server_a.demote()
        client.bundle_setup(RSL)
        assert len(controller_b.registry) == 1
        assert client._target_index == 1  # rotated off the dead entry
        assert client.failover_rotations == 1

    def test_leader_hint_followed_over_tcp(self):
        controller_a, server_a = make_server()
        controller_b, server_b = make_server()
        host_b, port_b = server_b.serve_tcp(port=0)
        server_a.failover_targets = [f"{host_b}:{port_b}"]
        host_a, port_a = server_a.serve_tcp(port=0)
        try:
            client = HarmonyClient(TcpTransport.connect(host_a, port_a),
                                   retry_policy=FAST)
            key = client.startup("demo")
            assert len(controller_a.registry) == 1
            server_a.demote()
            client.bundle_setup(RSL)  # redirect carries the b address
            assert client.app_key == key
            assert client.reconnects == 1
            assert client._moved_leader is None  # hint consumed once
            assert client.redirects_followed == 1
            assert client.failover_rotations == 0
            assert len(controller_b.registry) == 1
            client.end()
        finally:
            server_a.stop()
            server_b.stop()

    def test_failover_entry_validation(self):
        factory = HarmonyClient._as_factory
        assert callable(factory("10.0.0.1:4600"))
        assert factory(lambda: None) is not None
        with pytest.raises(ProtocolError, match="host:port"):
            factory("not-an-address")
        with pytest.raises(ProtocolError, match="host:port"):
            factory("missing-port:")


class TestTermStamping:
    @pytest.fixture
    def replicated(self, tmp_path):
        """A journaled primary; its server and journal close at
        teardown, so no ``wal.log`` handle outlives the test."""
        controller, server = make_server()
        journal = DurabilityJournal(str(tmp_path), fsync="never",
                                    snapshot_every=0)
        journal.attach(controller)
        assert server.enable_replication() == "primary"
        yield controller, server
        server.stop()
        journal.close()

    def test_replies_carry_the_current_term(self, replicated):
        controller, server = replicated
        assert controller.term == 1
        client = attached_client(server)
        client.startup("demo")
        assert client.term == 1

    def test_client_tracks_highest_term_seen(self, replicated):
        _controller, server = replicated
        client = attached_client(server)
        client.term = 7  # already spoke to a newer primary
        client.startup("demo")
        assert client.term == 7  # a stale term never lowers it

    def test_deposed_server_redirect_carries_its_term(self, replicated):
        _controller, server = replicated
        client = attached_client(server)
        client.startup("demo")
        server.demote()
        with pytest.raises(ControllerMovedError) as excinfo:
            client._request_once(make_message("bundle_setup", rsl=RSL))
        assert excinfo.value.term == 1


def seed_jitter(monkeypatch, seed):
    """Draw the retry jitter from a seeded generator."""
    monkeypatch.setattr(retry, "random", random.Random(seed))


class TestRetryJitter:
    def test_zero_jitter_is_the_deterministic_schedule(self):
        policy = RetryPolicy(max_attempts=4, backoff_initial_seconds=0.1)
        for retry in (1, 2, 3):
            assert policy.jittered_delay(retry) == \
                policy.backoff_delay(retry)

    def test_full_jitter_spreads_over_the_whole_delay(self, monkeypatch):
        policy = RetryPolicy(max_attempts=8, backoff_initial_seconds=0.2,
                             backoff_jitter=1.0)
        seed_jitter(monkeypatch, 7)
        draws = [policy.jittered_delay(3) for _ in range(200)]
        ceiling = policy.backoff_delay(3)
        assert all(0.0 <= draw <= ceiling for draw in draws)
        assert max(draws) - min(draws) > ceiling * 0.5  # actually spread

    def test_partial_jitter_keeps_the_deterministic_floor(self,
                                                          monkeypatch):
        policy = RetryPolicy(max_attempts=4, backoff_initial_seconds=0.4,
                             backoff_jitter=0.25)
        seed_jitter(monkeypatch, 11)
        ceiling = policy.backoff_delay(2)
        for _ in range(50):
            draw = policy.jittered_delay(2)
            assert ceiling * 0.75 <= draw <= ceiling

    def test_seeded_rng_is_deterministic(self, monkeypatch):
        policy = RetryPolicy(max_attempts=4, backoff_initial_seconds=0.1,
                             backoff_jitter=1.0)
        seed_jitter(monkeypatch, 3)
        first = [policy.jittered_delay(n) for n in (1, 2, 3)]
        seed_jitter(monkeypatch, 3)
        second = [policy.jittered_delay(n) for n in (1, 2, 3)]
        assert first == second

    def test_jitter_validation(self):
        with pytest.raises(ProtocolError, match="backoff_jitter"):
            RetryPolicy(backoff_jitter=1.5)
        with pytest.raises(ProtocolError, match="backoff_jitter"):
            RetryPolicy(backoff_jitter=-0.1)


#: Each option binds the one node to its own host, so a batch that mixed
#: two decisions would pair an option with the other option's host.
SIDES_RSL = """
harmonyBundle demo where {
    {left {node server {hostname n0} {seconds 5} {memory 16}}}
    {right {node server {hostname n1} {seconds 3} {memory 16}}}}
"""
SIDE_HOSTS = {"left": "n0", "right": "n1"}


def side_batch(side):
    """Every variable one decision pushes for the ``demo`` bundle."""
    return {"where.option": side, "where.server.hostname": SIDE_HOSTS[side],
            "where.server.memory": 16}


class TestHeldBatch:
    def test_a_held_batch_is_one_value_per_name_from_the_latest_decision(
            self):
        """Staging coalesces by name, so a client away through many
        reconfiguration waves holds one entry per variable of its bundle,
        and its rejoin delivers an option and a host of one decision."""
        controller = AdaptationController(
            Cluster.full_mesh(["n0", "n1"], memory_mb=256),
            policy=ClientCountRulePolicy(
                app_name="demo", bundle_name="where", threshold=2,
                below_option="left", at_or_above_option="right"))
        server = HarmonyServer(controller, lease_seconds=60.0)
        ends = []

        def dial():
            client_end, server_end = connected_pair()
            server.attach(server_end)
            ends.append((client_end, server_end))
            return client_end

        held = HarmonyClient(dial(), retry_policy=FAST,
                             transport_factory=dial)
        held.startup("demo")
        held.bundle_setup(SIDES_RSL)
        option = held.add_variable("where.option", "?",
                                   VariableType.STRING)
        assert option.value == "left"
        key = held.app_key
        for end in ends[0]:
            end.close()  # the line dies at both ends: pushes stage

        partner = None
        for wave in range(20):
            if partner is None:
                partner = HarmonyClient(dial(), retry_policy=FAST)
                partner.startup("demo")
                partner.bundle_setup(SIDES_RSL)
            else:
                partner.end()
                partner = None
            side = "right" if partner is not None else "left"
            assert server.buffer.pending_for(key) == side_batch(side), wave

        delivered = []
        held.variables.on_update(delivered.append)
        assert held.rejoin() == key
        chosen = controller.registry.instance(key).bundle_state(
            "where").chosen
        assert delivered == [side_batch(chosen.option_name)]
        assert server.buffer.pending_for(key) == {}
