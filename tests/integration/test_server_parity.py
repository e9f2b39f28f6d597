"""The fault/chaos/recovery scenarios against BOTH TCP server front ends.

Every test here takes the ``server_factory`` fixture and therefore runs
twice: once against the threaded accept loop
(:meth:`HarmonyServer.serve_tcp`) and once against the asyncio front end
(:class:`~repro.api.aio.AsyncHarmonyServer`).  The scenarios mirror the
in-process chaos/lease/reconnect/crash-recovery suites, but over real
sockets (the lease tests on an injected server clock) — the wire
protocol is byte-identical, so not a single test body branches on the
backend.

The closing scenario is the event-loop-stall test: a deliberately slow
optimization sweep must not delay another connection's heartbeat ACKs
beyond the lease margin.  On the asyncio backend that pins down the
heavy/light executor split (controller-locked requests never occupy the
pool that heartbeats ride on); on the threaded backend it pins down the
lock layout (heartbeats take ``sessions_lock``, never the busy
``controller_lock``).
"""

import dataclasses
import json
import socket
import threading
import time

import pytest

from repro.api import (
    FaultyTransport,
    HarmonyClient,
    HarmonyServer,
    RetryPolicy,
    SeededFaultSchedule,
    VariableType,
)
from repro.api.faults import FaultAction, ScriptedFaultSchedule
from repro.cluster import Cluster
from repro.controller import AdaptationController, ClientCountRulePolicy
from repro.errors import HarmonyError, TransportError
from repro.persistence import DurabilityJournal, ReplicationStandby
from repro.persistence.journal import WAL_FILENAME
from repro.persistence.wal import decode_frame, encode_record
from tests.conftest import lifecycle_events
from tests.persistence.test_wal import foreign_frame

# Generous per-attempt timeouts absorb CI jitter; several attempts with
# short backoff ride out injected drops without minutes of waiting.
FAST = RetryPolicy(request_timeout_seconds=2.0, max_attempts=6,
                   backoff_initial_seconds=0.05,
                   heartbeat_interval_seconds=0.2)


def make_policy():
    return ClientCountRulePolicy(
        app_name="DBclient", bundle_name="where", threshold=3,
        below_option="QS", at_or_above_option="DS")


def build_server(**server_kwargs):
    cluster = Cluster.star("server0", ["c1", "c2", "c3"], memory_mb=128)
    controller = AdaptationController(cluster, policy=make_policy())
    return controller, HarmonyServer(controller, **server_kwargs)


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


def wait_until(predicate, timeout=10.0, interval=0.02, message="condition"):
    """Poll a predicate against the real clock (single-CPU friendly)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


def join_cohort(handle, hosts=("c1", "c2", "c3"), wrap=None, policy=FAST):
    """Start one client per host; returns ({host: client}, {host: var}).

    ``wrap`` optionally wraps a host's freshly dialed transport (fault
    injection); it receives ``(host, transport)`` and returns the
    transport to hand the client.
    """
    clients, options = {}, {}
    for host in hosts:
        transport = handle.connect()
        if wrap is not None:
            transport = wrap(host, transport)
        client = HarmonyClient(transport, retry_policy=policy,
                               transport_factory=handle.connect)
        client.startup("DBclient")
        client.bundle_setup(db_rsl(host))
        options[host] = client.add_variable("where.option", "??",
                                            VariableType.STRING)
        clients[host] = client
    return clients, options


class TestSessionParity:
    """The Figure 5/6 lifecycle behaves identically over either backend."""

    def test_full_session_lifecycle(self, server_factory):
        controller, server = build_server()
        handle = server_factory(server)
        client = HarmonyClient(handle.connect(), retry_policy=FAST)

        key = client.startup("DBclient")
        assert key == "DBclient.1"
        config = client.bundle_setup(db_rsl("c1"))
        assert config["option"] == "QS"
        option = client.add_variable("where.option", "??",
                                     VariableType.STRING)
        assert option.value == "QS"
        client.report_metric("latency_ms", 12.5)

        status = client.query_status()
        assert status["server"]["active_sessions"] == 1
        nodes = client.query_nodes()
        assert "server0" in {n["hostname"] for n in nodes["nodes"]}

        client.end()
        assert len(controller.registry) == 0

    def test_two_kilobytes_of_braces_is_an_error_reply(self, server_factory):
        """Nesting past the parser's bound is a syntax error like any
        other: an ``error`` reply, not an unhandled server error (it was
        a ``RecursionError`` while the parser recursed)."""
        controller, server = build_server()
        handle = server_factory(server)
        client = HarmonyClient(handle.connect(), retry_policy=FAST)
        client.startup("DBclient")
        deep = "{" * 3000 + "1" + "}" * 3000
        with pytest.raises(HarmonyError, match="nesting deeper than 64"):
            client.bundle_setup(
                "harmonyBundle A b {{o {node n {seconds " + deep + "}}}}")
        # The session is alive and nothing was counted as a server fault.
        assert client.bundle_setup(db_rsl("c1"))["option"] == "QS"
        assert controller.metrics.latest("server.unhandled_errors") is None

    def test_third_client_flips_the_cohort_and_departure_flips_back(
            self, server_factory):
        controller, server = build_server()
        handle = server_factory(server)
        clients, options = join_cohort(handle)

        # Threshold reached: the re-optimization pushes DS to everyone.
        wait_until(lambda: all(o.value == "DS" for o in options.values()),
                   message="cohort flip to DS")

        # One departure drops below threshold: survivors flip back.
        clients["c3"].end()
        wait_until(lambda: options["c1"].value == "QS"
                   and options["c2"].value == "QS",
                   message="survivors flip back to QS")
        assert len(controller.registry) == 2


class TestSeededDropChaos:
    """Seeded request drops against a real socket (regression for the
    fault wrapper composing with the asyncio dispatch path)."""

    def test_dropped_requests_retry_to_the_same_final_state(
            self, server_factory):
        controller, server = build_server()
        handle = server_factory(server)
        faulty = {}

        def wrap(host, transport):
            if host != "c2":
                return transport
            # Drop ~1/3 of c2's outbound requests (seed 15 drops the
            # bundle_setup and the add_variable); only the "send"
            # direction, so a timed-out request never has a late reply
            # in flight to confuse the next one.
            faulty[host] = FaultyTransport(
                transport,
                SeededFaultSchedule(seed=15, drop_rate=0.34,
                                    directions=frozenset({"send"})))
            return faulty[host]

        # Short per-attempt timeouts: every injected drop costs one.
        snappy = RetryPolicy(request_timeout_seconds=0.75, max_attempts=6,
                             backoff_initial_seconds=0.05)
        _clients, options = join_cohort(handle, wrap=wrap, policy=snappy)
        wait_until(lambda: all(o.value == "DS" for o in options.values()),
                   message="lossy cohort still converges to DS")

        stats = faulty["c2"].stats
        assert stats.dropped > 0  # the schedule actually bit
        assert stats.delivered > stats.dropped
        assert len(controller.registry) == 3

    def test_scripted_drop_of_one_request_is_invisible_after_retry(
            self, server_factory):
        _controller, server = build_server()
        handle = server_factory(server)
        # Drop exactly the second outbound frame (the bundle_setup).
        lossy = FaultyTransport(
            handle.connect(),
            ScriptedFaultSchedule({("send", 1): FaultAction.DROP}))
        client = HarmonyClient(lossy, retry_policy=FAST)
        client.startup("DBclient")
        config = client.bundle_setup(db_rsl("c1"))
        assert config["option"] == "QS"
        assert lossy.stats.dropped == 1
        assert client.retries >= 1


class TestSeverEvictionRejoin:
    """A severed link expires its lease; the survivors re-optimize and a
    rejoining client is admitted fresh — over real sockets and clock."""

    def test_severed_client_is_evicted_and_cohort_reoptimizes(
            self, server_factory):
        controller, server = build_server(lease_seconds=1.5)
        handle = server_factory(server)
        faulty = {}

        def wrap(host, transport):
            faulty[host] = FaultyTransport(
                transport, SeededFaultSchedule(seed=3))
            return faulty[host]

        clients, options = join_cohort(handle, wrap=wrap)
        wait_until(lambda: all(o.value == "DS" for o in options.values()),
                   message="cohort flip to DS")
        # The survivors must outlive the victim's lease on the real
        # clock, so they beat; the victim goes quiet before the cut.
        for host in ("c1", "c3"):
            clients[host].retry_policy = dataclasses.replace(
                clients[host].retry_policy, heartbeat_interval_seconds=0.25)
            clients[host].start_heartbeats()

        # c2 crashes: its link dies mid-session.
        faulty["c2"].sever()
        wait_until(lambda: bool(server.check_leases())
                   or len(controller.registry) == 2,
                   timeout=6.0, message="lease expiry of the severed client")
        assert len(controller.registry) == 2

        # Below threshold again: survivors flip back.
        wait_until(lambda: options["c1"].value == "QS"
                   and options["c3"].value == "QS",
                   message="survivors flip back to QS")

        # The evicted client rejoins through a *healed* redial: the fault
        # wrapper hands back a fresh connection wrapped in a never-fault
        # schedule that keeps the old cumulative stats tally, and the new
        # instance tips the count back over the threshold.
        assert faulty["c2"].can_redial
        severed_tally = faulty["c2"].stats.snapshot()
        replacement = faulty["c2"].redial()
        assert isinstance(replacement, FaultyTransport)
        assert replacement.stats is faulty["c2"].stats  # shared tally
        assert not replacement.closed
        rejoined = HarmonyClient(replacement, retry_policy=FAST)
        fresh_key = rejoined.startup("DBclient")
        assert fresh_key != clients["c2"].app_key
        rejoined.bundle_setup(db_rsl("c2"))
        wait_until(lambda: options["c1"].value == "DS"
                   and options["c3"].value == "DS",
                   message="cohort flip to DS after rejoin")
        # The healed link delivers cleanly (no new faults) while the
        # cumulative tally keeps growing past its severed-time values.
        healed = replacement.stats.snapshot()
        assert healed["severed"] == 0.0
        assert healed["delivered"] > severed_tally["delivered"]
        assert healed["dropped"] == severed_tally["dropped"]
        rejoined.end()


class TestReconnectAndReplay:
    """Transparent reconnect against a live server, both backends."""

    def test_request_after_dead_socket_transparently_rejoins(
            self, server_factory):
        controller, server = build_server(lease_seconds=60.0)
        handle = server_factory(server)
        client = HarmonyClient(handle.connect(), retry_policy=FAST,
                               transport_factory=handle.connect)
        key = client.startup("DBclient")
        client.bundle_setup(db_rsl("c1"))
        option = client.add_variable("where.option", "??",
                                     VariableType.STRING)

        client.transport.close()  # the socket dies under the client
        status = client.query_status()  # recovers inline
        assert client.reconnects == 1
        assert client.app_key == key  # resumed, not re-admitted
        assert status["server"]["active_sessions"] == 1
        assert option.value == "QS"
        assert len(controller.registry) == 1

    def test_redial_path_without_a_factory(self, server_factory):
        """A dialed TcpTransport can replace itself (no factory needed)."""
        _controller, server = build_server(lease_seconds=60.0)
        handle = server_factory(server)
        client = HarmonyClient(handle.connect(), retry_policy=FAST)
        key = client.startup("DBclient")
        client.transport.close()
        assert client.query_status()["server"]["active_sessions"] == 1
        assert client.reconnects == 1
        assert client.app_key == key

    def test_update_staged_during_disconnect_arrives_on_rejoin(
            self, server_factory):
        _controller, server = build_server(lease_seconds=60.0)
        handle = server_factory(server)
        clients, options = join_cohort(handle, hosts=("c1", "c2"))
        assert options["c1"].value == "QS"

        # c1 goes dark; c3 joins meanwhile and flips the policy to DS.
        clients["c1"].transport.close()
        late = HarmonyClient(handle.connect(), retry_policy=FAST)
        late.startup("DBclient")
        late.bundle_setup(db_rsl("c3"))
        wait_until(lambda: options["c2"].value == "DS",
                   message="connected client sees the flip")

        # c1 comes back: replay resumes the session and the staged
        # update (re-staged under its lease) is flushed to it.
        clients["c1"].rejoin()
        wait_until(lambda: options["c1"].value == "DS",
                   message="rejoined client receives the staged update")


class TestCrashRecoveryReattach:
    """Controller crash + restore: clients reattach over either backend,
    keeping keys and options."""

    def test_clients_rejoin_a_restarted_controller(self, tmp_path,
                                                   server_factory):
        cluster = Cluster.star("server0", ["c1", "c2", "c3"],
                               memory_mb=128)
        controller = AdaptationController(cluster, policy=make_policy())
        DurabilityJournal(str(tmp_path), fsync="never").attach(controller)
        server = HarmonyServer(controller, lease_seconds=60.0)
        current = {"handle": server_factory(server)}

        def dial():
            return current["handle"].connect()

        clients, options = {}, {}
        for host in ("c1", "c2", "c3"):
            client = HarmonyClient(dial(), retry_policy=FAST,
                                   transport_factory=dial)
            client.startup("DBclient")
            client.bundle_setup(db_rsl(host))
            options[host] = client.add_variable("where.option", "QS",
                                                VariableType.STRING)
            clients[host] = client
        wait_until(lambda: all(o.value == "DS" for o in options.values()),
                   message="pre-crash cohort flip to DS")
        pre_keys = {host: c.app_key for host, c in clients.items()}
        before = controller.describe_system()

        # The controller process dies: server gone, sockets dead.
        controller.journal.close()
        current["handle"].stop()
        for client in clients.values():
            client.transport.close()

        # Restart on the same backend: restore from disk, then serve
        # the restored state.
        restored = AdaptationController.restore(
            str(tmp_path), policy=make_policy(), fsync="never")
        current["handle"] = server_factory(
            HarmonyServer(restored, lease_seconds=60.0))

        for host, client in clients.items():
            assert client.rejoin() == pre_keys[host]  # resumed, not new
            assert options[host].value == "DS"
        assert restored.describe_system() == before
        status = clients["c1"].query_status()
        assert status["server"]["active_sessions"] == 3
        restored.journal.close()


def respaced(line):
    """The same record framed by another encoder: spaced, keys unsorted."""
    body = json.loads(line[18:])
    return foreign_frame({key: body[key] for key in reversed(body)})


def wal_lines(directory):
    """``{seq: framed line}`` for one directory's ``wal.log``."""
    raw = (directory / WAL_FILENAME).read_bytes()
    return {json.loads(line[18:])["seq"]: line
            for line in raw.splitlines(keepends=True)}


class TestReplicatedLogBytes:
    """A standby writes the frames the primary wrote, byte for byte — not
    a re-encoding of the records they decode to."""

    def test_standby_log_lines_equal_the_primarys(self, tmp_path,
                                                  server_factory):
        primary_dir = tmp_path / "primary"
        controller = AdaptationController(
            Cluster.star("server0", ["c1", "c2", "c3"], memory_mb=128),
            policy=make_policy())
        DurabilityJournal(str(primary_dir), fsync="never",
                          snapshot_every=0).attach(controller)
        for host in ("c1", "c2"):
            controller.setup_bundle(controller.register_app("DBclient"),
                                    db_rsl(host))
        controller.journal.close()
        wal = primary_dir / WAL_FILENAME
        wal.write_bytes(b"".join(respaced(line)
                                 for line in wal.read_bytes().splitlines()))
        restored = AdaptationController.restore(
            str(primary_dir), policy=make_policy(), fsync="never",
            snapshot_every=0)
        server = HarmonyServer(restored)
        assert server.enable_replication(address="primary:1") == "primary"
        handle = server_factory(server)
        standby = ReplicationStandby(str(tmp_path / "standby"), "sb",
                                     fsync="never")
        standby.follow(handle.connect())       # the catch-up tail
        client = HarmonyClient(handle.connect(), retry_policy=FAST)
        client.startup("DBclient")
        client.bundle_setup(db_rsl("c3"))      # shipped as appended
        wait_until(lambda: standby.last_seq
                   == restored.journal.wal.next_seq - 1,
                   message="the standby to catch up")
        primary, replica = wal_lines(primary_dir), \
            wal_lines(tmp_path / "standby")
        assert min(replica) == 1 and len(replica) > 10
        assert {seq: primary[seq] for seq in replica} == replica
        foreign = [seq for seq, line in replica.items()
                   if line != encode_record(decode_frame(line[:-1]))]
        assert foreign and min(foreign) == 1
        standby.close()
        restored.journal.close()


class TestLeaseExpiryOnTick:
    """``tick()`` on an injected server clock evicts the silent and
    spares the heartbeating, whichever front end serves them."""

    def test_silent_client_is_evicted_and_notified(self, server_factory):
        now = [0.0]
        controller, server = build_server(lease_seconds=10.0,
                                          clock=lambda: now[0])
        handle = server_factory(server)
        client = HarmonyClient(handle.connect(), retry_policy=FAST)
        client.startup("DBclient")
        now[0] = 9.9
        assert server.tick() is True
        assert len(controller.registry) == 1
        # The lease was renewed before the reply left, so the deadline
        # is the registration's, exactly.
        now[0] = 10.0
        assert server.tick() is True
        assert len(controller.registry) == 0
        assert lifecycle_events(controller)[-1]["kind"] == "evicted"
        # The half-alive client is told its fate on its open socket.
        wait_until(lambda: client.lease_lost, timeout=5.0,
                   message="lease_expired notice")

    def test_heartbeats_keep_the_lease_alive(self, server_factory):
        now = [0.0]
        controller, server = build_server(lease_seconds=10.0,
                                          clock=lambda: now[0])
        handle = server_factory(server)
        beating = HarmonyClient(handle.connect(), retry_policy=FAST)
        beating.startup("DBclient")
        silent = HarmonyClient(handle.connect(), retry_policy=FAST)
        silent.startup("DBclient")
        for beat in range(1, 11):  # a beat every half lease period
            now[0] += 5.0
            beating.heartbeat()
            # The ack follows the renewal: once it is in, so is the lease.
            wait_until(lambda: beating.heartbeats_acked == beat,
                       message="heartbeat ack")
            server.tick()
            keys = [instance.key
                    for instance in controller.registry.instances()]
            assert beating.app_key in keys
            if beat >= 4 and silent.app_key not in keys:
                break  # two lease periods, and the silent one is gone
        assert keys == [beating.app_key]
        assert not beating.lease_lost
        wait_until(lambda: silent.lease_lost, timeout=5.0,
                   message="lease_expired notice")


class TestEventLoopStall:
    """A slow optimization sweep must not delay heartbeat ACKs beyond
    the lease margin — the heavy/light split on the asyncio backend, the
    sessions/controller lock split on the threaded one."""

    SWEEP_SECONDS = 0.8

    def test_slow_sweep_does_not_stall_heartbeat_acks(self,
                                                      server_factory):
        controller, server = build_server(lease_seconds=2.0)
        handle = server_factory(server)

        original = controller.setup_bundle

        def slow_setup(*args, **kwargs):
            time.sleep(self.SWEEP_SECONDS)
            return original(*args, **kwargs)

        controller.setup_bundle = slow_setup

        # B is registered and beating before the sweep starts.
        beater = HarmonyClient(handle.connect(), retry_policy=FAST)
        beater.startup("DBclient")

        slowpoke = HarmonyClient(handle.connect(), retry_policy=RetryPolicy(
            request_timeout_seconds=30.0))
        slowpoke.startup("DBclient")
        setup_done = threading.Event()
        result = {}

        def run_setup():
            result["config"] = slowpoke.bundle_setup(db_rsl("c1"))
            setup_done.set()

        sweeper = threading.Thread(target=run_setup, daemon=True)
        sweeper.start()
        time.sleep(0.1)  # let the sweep reach the sleep

        # While the sweep is in flight, each beat must be acked well
        # inside the lease margin (lease 2.0s, sweep 0.8s).
        rtts = []
        for _ in range(4):
            acked = beater.heartbeats_acked
            started = time.monotonic()
            beater.heartbeat()
            wait_until(lambda: beater.heartbeats_acked > acked,
                       timeout=1.5, message="heartbeat ACK during sweep")
            rtts.append(time.monotonic() - started)
            time.sleep(0.05)
        assert max(rtts) < self.SWEEP_SECONDS / 2, \
            f"heartbeat ACKs stalled behind the sweep: {rtts}"

        setup_done.wait(timeout=10.0)
        assert result["config"]["option"] == "QS"
        assert not beater.lease_lost
        assert len(controller.registry) == 2


def nagle_disabled(transport):
    """``TCP_NODELAY`` as the kernel reports it for a transport's socket
    (a :class:`TcpTransport` or the asyncio front end's endpoint)."""
    sock = getattr(transport, "_sock", None) \
        or transport._transport.get_extra_info("socket")
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1


class TestNoNagleStall:
    """Both ends write twice before reading, so both ends must disable
    Nagle (``docs/wire-protocol.md`` §1): otherwise the second small
    write waits for the peer's 40 ms delayed-ACK timer."""

    def test_option_is_set_on_both_ends_of_a_client_connection(
            self, server_factory):
        _controller, server = build_server()
        handle = server_factory(server)
        client = HarmonyClient(handle.connect(), retry_policy=FAST)
        key = client.startup("DBclient")
        assert nagle_disabled(client.transport)
        assert nagle_disabled(server._sessions_by_key[key].transport)

    def test_option_is_set_on_both_ends_of_a_replication_link(
            self, tmp_path, server_factory):
        controller, server = build_server()
        DurabilityJournal(str(tmp_path / "primary"),
                          fsync="never").attach(controller)
        assert server.enable_replication(address="primary:1") == "primary"
        handle = server_factory(server)
        standby = ReplicationStandby(str(tmp_path / "standby"), "sb",
                                     fsync="never")
        standby.follow(handle.connect())
        newest = controller.journal.wal.records()[-1].seq
        wait_until(lambda: len(server.replication.status()) == 1
                   and standby.last_seq == newest,
                   message="the standby to subscribe and catch up")
        (primary_end,) = server.replication.link_transports()
        assert nagle_disabled(standby.transport)
        assert nagle_disabled(primary_end)
        standby.close()
        controller.journal.close()

    def test_phase_boundaries_do_not_wait_for_a_delayed_ack(
            self, server_factory):
        """Client side: two fire-and-forget frames, then a request."""
        _controller, server = build_server()
        handle = server_factory(server)
        client = HarmonyClient(handle.connect(), retry_policy=FAST)
        client.startup("DBclient")
        started = time.monotonic()
        for phase in range(25):
            client.report_metric("latency_ms", float(phase))
            client.heartbeat()
            client.query_status()
        elapsed = time.monotonic() - started
        # One stall per phase is 25 x 40 ms; without it, ~20 ms in all.
        assert elapsed < 0.5, f"25 phase boundaries took {elapsed:.3f}s"

    def test_bundle_setup_reply_does_not_wait_behind_its_own_push(
            self, server_factory):
        """Server side: ``variable_update``, then ``bundle_ok``, on one
        socket.  A timer delays every trip alike, host noise does not —
        so the bar is on the fastest of ten."""
        _controller, server = build_server()
        handle = server_factory(server)
        trips = []
        for _ in range(10):
            client = HarmonyClient(handle.connect(), retry_policy=FAST)
            started = time.monotonic()
            client.startup("DBclient")
            client.bundle_setup(db_rsl("c1"))
            trips.append(time.monotonic() - started)
            client.end()
        assert min(trips) < 0.020, \
            f"every startup + bundle_setup trip stalled: {trips}"
