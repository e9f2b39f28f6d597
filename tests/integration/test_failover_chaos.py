"""Kill the primary mid-burst; the promoted standby must be exact.

The headline failover scenario: 64 clients register against a
replicating primary over TCP, then issue a concurrent ``bundle_setup``
burst while a :class:`ScriptedCrashSchedule` kills the primary at a
seeded WAL append (before / torn / after the write).  The primary
fail-stops crash-only — no goodbyes — and the clients ride their retry
policy through the static failover list to the standby server, which
redirects with ``controller_moved`` until the driver expires the
fencing lease and the standby's serve loop (``tick()``) takes over.
Every client must finish, and the promoted controller's placements,
predictions, and objective must be *identical* (``==``, not
approximate) to a never-failed oracle that ran the same workload
serially.

The kill is swept over ten distinct append offsets into the burst,
cycling the three crash points, against the threaded front end; a
smaller sweep drives the asyncio front end through the same death.  A
separate test restarts the deposed primary from its own directory and
proves the fencing record demotes it — stale-term mutations answer
with the typed, retryable redirect instead of split-braining.
"""

import contextlib
import itertools
import json
import os
import threading
import time

import pytest

from repro.api import (
    AsyncHarmonyServer,
    HarmonyClient,
    HarmonyServer,
    RetryPolicy,
    TcpTransport,
    connected_pair,
    make_message,
)
from repro.cluster import Cluster
from repro.controller import AdaptationController
from repro.errors import ControllerMovedError
from repro.persistence import (
    CrashPoint,
    DurabilityJournal,
    FencingStore,
    ReplicationStandby,
    ScriptedCrashSchedule,
)

HOSTS = ("n0", "n1", "n2", "n3")

#: Spread with patience: the clients must outlive the failover window,
#: and full jitter keeps the 64-strong herd from retrying in lockstep
#: against the freshly promoted standby.
CHAOS_RETRIES = RetryPolicy(request_timeout_seconds=2.0, max_attempts=40,
                            backoff_initial_seconds=0.02,
                            backoff_multiplier=1.5,
                            backoff_max_seconds=0.25,
                            backoff_jitter=1.0)

ALL_POINTS = (CrashPoint.BEFORE_APPEND, CrashPoint.TORN_APPEND,
              CrashPoint.AFTER_APPEND)

#: Ten distinct WAL-append offsets into the burst, cycling the three
#: crash points — the acceptance sweep.
KILLS = tuple(zip((0, 1, 2, 3, 5, 8, 13, 21, 34, 55),
                  itertools.cycle(ALL_POINTS)))


def make_cluster():
    return Cluster.full_mesh(list(HOSTS), memory_mb=512)


def rsl_for(index):
    """Both options pin to the same host, so "fast" strictly dominates
    under any co-location and the final placement does not depend on
    the burst's interleaving — the oracle comparison can demand
    identity, not approximation."""
    host = HOSTS[index % len(HOSTS)]
    return f"""
harmonyBundle client{index:02d} place {{
    {{fast {{node worker {{hostname {host}}} {{seconds 5}} {{memory 8}}}}}}
    {{slow {{node worker {{hostname {host}}} {{seconds 9}} {{memory 8}}}}}}}}
"""


def digest(controller):
    return {
        "system": controller.describe_system(),
        "objective": controller.current_objective(),
        "predictions": controller.predict_all(controller.view),
        "registry": sorted(i.key for i in controller.registry.instances()),
    }


def assert_identical(survivor, oracle):
    """Byte-identical, not approximately equal: same placements, same
    prediction floats, same objective."""
    assert survivor["system"] == oracle["system"]
    assert survivor["registry"] == oracle["registry"]
    assert survivor["predictions"] == oracle["predictions"]
    assert survivor["objective"] == oracle["objective"]


def run_oracle(n_clients):
    """The never-failed reference: the same workload, serially."""
    controller = AdaptationController(make_cluster())
    for index in range(n_clients):
        instance = controller.register_app(f"client{index:02d}")
        controller.setup_bundle(instance, rsl_for(index))
    return digest(controller)


def wait_until(predicate, timeout=30.0, interval=0.01,
               message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


def run_chaos(tmp_path, n_clients, kill_offset, point, front="threaded"):
    """One kill-and-failover run; returns the outcome for reporting."""
    clock = [1000.0]
    fencing = FencingStore(str(tmp_path / "fence"),
                           clock=lambda: clock[0])
    controller = AdaptationController(make_cluster())
    schedule = ScriptedCrashSchedule({})  # armed after registration
    journal = DurabilityJournal(str(tmp_path / "primary"), fsync="never",
                                snapshot_every=0, crash_schedule=schedule)
    journal.attach(controller)
    server_p = HarmonyServer(controller, fail_stop_on_error=True)
    aio_front = None
    if front == "aio":
        aio_front = AsyncHarmonyServer(server_p)
        host_p, port_p = aio_front.serve(port=0)
    else:
        host_p, port_p = server_p.serve_tcp(port=0)
    assert server_p.enable_replication(
        fencing=fencing, lease_seconds=30.0,
        address=f"{host_p}:{port_p}") == "primary"

    # The standby server as ``harmony-repro serve --dir`` builds it on
    # an empty directory: journaled and bound, fenced out by the
    # primary's live lease, so it stands by from its own directory and
    # its first tick dials the holder the fencing record names.
    standby_controller = AdaptationController(make_cluster())
    DurabilityJournal(str(tmp_path / "standby"),
                      fsync="never").attach(standby_controller)
    server_sb = HarmonyServer(standby_controller, standby=True)
    host_sb, port_sb = server_sb.serve_tcp(port=0)
    assert server_sb.enable_replication(
        fencing=fencing, lease_seconds=30.0,
        address=f"{host_sb}:{port_sb}") == "standby"
    standby = server_sb.replica
    assert server_sb.tick() is False

    clients = []
    try:
        for index in range(n_clients):
            client = HarmonyClient(
                TcpTransport.connect(host_p, port_p),
                retry_policy=CHAOS_RETRIES,
                failover=[f"{host_sb}:{port_sb}"])
            client.startup(f"client{index:02d}")
            clients.append(client)

        # Arm the kill at an absolute append index inside the burst.
        kill_index = journal.wal.append_count + kill_offset
        schedule.script[kill_index] = point

        errors = {}

        def setup(index):
            try:
                clients[index].bundle_setup(rsl_for(index))
            except Exception as exc:  # noqa: BLE001 - collected below
                errors[index] = exc

        threads = [threading.Thread(target=setup, args=(index,),
                                    daemon=True)
                   for index in range(n_clients)]
        for thread in threads:
            thread.start()

        wait_until(lambda: server_p.failed, message="primary fail-stop")
        # The primary's sockets closed with whatever they had buffered;
        # wait for the standby to drain its link to EOF so every record
        # the primary acknowledged has been applied.
        wait_until(lambda: standby.transport is None
                   or standby.transport.closed,
                   message="replication link drain")

        server_sb.tick()  # the dead primary's lease is still live
        assert server_sb.standby
        clock[0] = 1031.0  # ... until it lapses
        server_sb.tick()
        promoted = server_sb.controller
        assert promoted is standby.controller and not server_sb.standby

        for thread in threads:
            thread.join(timeout=90.0)
            assert not thread.is_alive(), "client never finished failover"
        assert errors == {}, f"clients failed: {errors}"
        assert len(promoted.registry) == n_clients

        monitor_end, monitor_server_end = connected_pair()
        server_sb.attach(monitor_server_end)
        status = HarmonyClient(monitor_end).query_status()
        assert status["replication"]["role"] == "primary"
        assert status["replication"]["term"] == promoted.term == 2

        return {
            "digest": digest(promoted),
            "kill_index": kill_index,
            "point": point.name,
            "term": promoted.term,
            "resyncs": standby.resyncs,
            "records_applied": standby.records_applied,
            "reconnects": sum(c.reconnects for c in clients),
        }
    finally:
        for client in clients:
            with contextlib.suppress(Exception):
                client.transport.close()
        with contextlib.suppress(Exception):
            server_sb.stop()
        with contextlib.suppress(Exception):
            standby.journal.close()
        with contextlib.suppress(Exception):
            journal.close()
        if aio_front is not None:
            with contextlib.suppress(Exception):
                aio_front.stop()
        with contextlib.suppress(Exception):
            server_p.stop()


class TestFailoverChaos:
    @pytest.mark.parametrize(
        "offset,point", KILLS,
        ids=[f"k{offset}-{point.name.lower()}" for offset, point in KILLS])
    def test_threaded_burst_survives_primary_kill(self, tmp_path, offset,
                                                  point):
        oracle = run_oracle(64)
        outcome = run_chaos(tmp_path, 64, offset, point, front="threaded")
        assert_identical(outcome["digest"], oracle)
        _maybe_write_report("threaded", offset, oracle, outcome)

    @pytest.mark.parametrize(
        "offset,point",
        [(2, CrashPoint.TORN_APPEND), (9, CrashPoint.AFTER_APPEND)],
        ids=["k2-torn_append", "k9-after_append"])
    def test_asyncio_front_end_survives_primary_kill(self, tmp_path,
                                                     offset, point):
        oracle = run_oracle(16)
        outcome = run_chaos(tmp_path, 16, offset, point, front="aio")
        assert_identical(outcome["digest"], oracle)
        _maybe_write_report("aio", offset, oracle, outcome)

    @pytest.mark.parametrize("point", ALL_POINTS,
                             ids=[p.name.lower() for p in ALL_POINTS])
    def test_lagging_standby_still_gets_every_acknowledged_record(
            self, tmp_path, monkeypatch, point):
        """A standby that applies slower than the burst arrives: the
        primary dies with frames still queued on the link and the
        standby's acks unread.  Its teardown must flush that link, not
        reset it — a reset discards the queued frames, and with them
        records whose clients already hold an ack."""
        apply_one = ReplicationStandby._apply_one

        def lagging(self, record):
            time.sleep(0.001)
            apply_one(self, record)

        monkeypatch.setattr(ReplicationStandby, "_apply_one", lagging)
        oracle = run_oracle(16)
        outcome = run_chaos(tmp_path, 16, 5, point)
        assert_identical(outcome["digest"], oracle)


def _maybe_write_report(front, offset, oracle, outcome):
    """CI uploads these as the failover convergence artifact."""
    target = os.environ.get("FAILOVER_REPORT")
    if not target:
        return
    os.makedirs(target, exist_ok=True)
    path = os.path.join(target, f"failover-{front}-k{offset}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({
            "front_end": front,
            "kill_offset": offset,
            "kill_index": outcome["kill_index"],
            "crash_point": outcome["point"],
            "oracle_objective": oracle["objective"],
            "survivor_objective": outcome["digest"]["objective"],
            "survivor_term": outcome["term"],
            "standby_resyncs": outcome["resyncs"],
            "records_applied": outcome["records_applied"],
            "client_reconnects": outcome["reconnects"],
            "identical": True,
        }, handle, indent=2, sort_keys=True)


class TestDeposedPrimary:
    def test_restarted_stale_primary_is_fenced_out(self, tmp_path):
        """The deposed primary restarts from its own disk while the new
        primary's lease is live: it must demote, not split-brain."""
        clock = [0.0]
        fencing = FencingStore(str(tmp_path / "fence"),
                               clock=lambda: clock[0])
        controller = AdaptationController(make_cluster())
        journal = DurabilityJournal(str(tmp_path / "old"), fsync="never",
                                    snapshot_every=0)
        journal.attach(controller)
        server_old = HarmonyServer(controller)
        assert server_old.enable_replication(
            fencing=fencing, address="old:1") == "primary"
        for index in range(3):
            instance = controller.register_app(f"client{index:02d}")
            controller.setup_bundle(instance, rsl_for(index))

        standby = ReplicationStandby(str(tmp_path / "new"), "sb",
                                     fencing=fencing, fsync="never",
                                     address="new:2")
        client_end, server_end = connected_pair()
        server_old.attach(server_end)
        standby.follow(client_end)
        clock[0] = 60.0  # old lease lapses
        promoted = standby.promote()
        assert promoted.term == 2
        journal.close()  # the old primary's process is gone

        # ... and comes back from its own directory at term 1, inside
        # the new primary's lease window.
        clock[0] = 70.0
        restored = AdaptationController.restore(str(tmp_path / "old"),
                                                fsync="never")
        assert restored.term == 1
        server_restarted = HarmonyServer(restored)
        assert server_restarted.enable_replication(
            fencing=fencing, address="old:1") == "standby"
        assert server_restarted.standby

        client_end, fenced_end = connected_pair()
        server_restarted.attach(fenced_end)
        reader = HarmonyClient(client_end)
        status = reader.query_status()  # reads still answered
        assert status["replication"]["role"] == "standby"
        with pytest.raises(ControllerMovedError) as excinfo:
            reader._request_once(make_message(
                "register", app_name="late", use_interrupts=False))
        assert excinfo.value.leader == "new:2"  # points at the winner
        assert len(restored.registry) == 3  # nothing mutated
        assert len(server_restarted.controller.registry) == 3
        server_restarted.stop()  # closes the replica of its directory
        standby.journal.close()
