"""WAL shipping, fencing, and promotion at unit scale.

A primary (journaled controller behind a ``HarmonyServer``) ships its
WAL to an in-process standby; the suite checks the stream invariants —
ship-after-durable, CRC re-verification, duplicate suppression, gap
resync, catch-up-from-snapshot — and the term-fenced promotion handoff.
"""

import gc
import json
import socket
import threading
import time
import types
import warnings
import zlib

import pytest

from repro.api import HarmonyClient, HarmonyServer, make_message
from repro.api.protocol import (MESSAGES, REPL_HELLO, REPL_RECORDS,
                                REPL_SNAPSHOT)
from repro.api.transport import Transport, connected_pair
from repro.cli import main
from repro.cluster import Cluster
from repro.controller import AdaptationController
from repro.errors import (
    ControllerMovedError,
    ReplicationError,
    TransportError,
)
from repro.persistence import (
    DurabilityJournal,
    FencingStore,
    ReplicationStandby,
)
from repro.persistence.replication import ReplicationPrimary, _frame_text
from repro.persistence.wal import WalRecord
from tests.integration.test_server_parity import wait_until


class _Retired:
    """Closes a standby, or the journal of the controller it was
    promoted to, which owns its log from then on."""

    def __init__(self, standby):
        self.standby = standby

    def close(self):
        self.standby.close()
        if self.standby.promoted and self.standby.controller.journal:
            self.standby.controller.journal.close()


@pytest.fixture(autouse=True)
def _closed_at_teardown(monkeypatch, closing):
    """Every journal and standby a test here builds is closed when it
    ends, whatever it asserted."""
    def standby(*args, cls=ReplicationStandby, **kwargs):
        made = cls(*args, **kwargs)
        closing(_Retired(made))
        return made

    monkeypatch.setitem(globals(), "DurabilityJournal",
                        lambda *args, cls=DurabilityJournal, **kwargs:
                        closing(cls(*args, **kwargs)))
    monkeypatch.setitem(globals(), "ReplicationStandby", standby)

RSL = """
harmonyBundle {name} where {{
    {{small {{node worker {{os linux}} {{seconds 5}} {{memory 16}}}}}}
    {{big {{node worker {{os linux}} {{seconds 3}} {{memory 64}}}}}}}}
"""


def make_cluster():
    return Cluster.full_mesh(["n0", "n1", "n2", "n3"], memory_mb=256)


def make_primary(directory, fencing=None, snapshot_every=0):
    controller = AdaptationController(make_cluster())
    journal = DurabilityJournal(str(directory), fsync="never",
                                snapshot_every=snapshot_every)
    journal.attach(controller)
    server = HarmonyServer(controller)
    role = server.enable_replication(fencing=fencing, lease_seconds=30.0,
                                     address="primary:1")
    assert role == "primary"
    return controller, journal, server


def join_standby(server, standby):
    client_end, server_end = connected_pair()
    server.attach(server_end)
    standby.follow(client_end)
    return client_end


def wire_primary(primary, standby):
    """Follow a bare ReplicationPrimary (no server) over a pair."""
    client_end, server_end = connected_pair()

    def receive(message):
        fields = MESSAGES[message["type"]].convert(message)
        if message["type"] == REPL_HELLO:
            primary.handle_hello(server_end, **fields)
        else:
            primary.handle_ack(**fields)

    server_end.set_receiver(receive)
    standby.follow(client_end)
    return client_end


def run_workload(controller, count=3, prefix="app"):
    for index in range(count):
        instance = controller.register_app(f"{prefix}{index}")
        controller.setup_bundle(instance,
                                RSL.format(name=f"{prefix}{index}"))


def digest(controller):
    return {
        "system": controller.describe_system(),
        "objective": controller.current_objective(),
        "predictions": controller.predict_all(controller.view),
    }


def closed_address():
    """``127.0.0.1:PORT`` of a port nothing listens on: a dial there is
    refused at once, with no name to look up and nothing to wait for."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()
    return f"{host}:{port}"


def assert_converged(standby, controller):
    assert standby.controller is not None
    left, right = digest(standby.controller), digest(controller)
    assert left["system"] == right["system"]
    assert sorted(left["predictions"]) == sorted(right["predictions"])
    for key, value in right["predictions"].items():
        assert left["predictions"][key] == pytest.approx(value, abs=1e-9)
    assert left["objective"] == pytest.approx(right["objective"],
                                              abs=1e-9)


class TestFencingStore:
    def test_first_acquire_takes_term_one(self, tmp_path):
        clock = [100.0]
        store = FencingStore(str(tmp_path / "fence"),
                             clock=lambda: clock[0])
        assert store.read().term == 0
        assert store.expired()
        assert store.acquire("a", lease_seconds=10.0,
                             address="a:1") == 1
        record = store.read()
        assert (record.holder, record.address) == ("a", "a:1")
        assert record.lease_expires_at == pytest.approx(110.0)

    def test_live_lease_refuses_other_holders(self, tmp_path):
        clock = [0.0]
        store = FencingStore(str(tmp_path / "fence"),
                             clock=lambda: clock[0])
        store.acquire("a", lease_seconds=10.0)
        with pytest.raises(ReplicationError, match="held by 'a'"):
            store.acquire("b")
        clock[0] = 10.0  # lease lapsed exactly
        assert store.acquire("b", lease_seconds=10.0) == 2

    def test_reacquiring_own_live_lease_bumps_term(self, tmp_path):
        store = FencingStore(str(tmp_path / "fence"), clock=lambda: 0.0)
        assert store.acquire("a", lease_seconds=10.0) == 1
        assert store.acquire("a", lease_seconds=10.0) == 2

    def test_renew_extends_and_deposed_renew_refuses(self, tmp_path):
        clock = [0.0]
        store = FencingStore(str(tmp_path / "fence"),
                             clock=lambda: clock[0])
        store.acquire("a", lease_seconds=10.0)
        clock[0] = 5.0
        store.renew("a", 1)
        assert store.read().lease_expires_at == pytest.approx(15.0)
        clock[0] = 20.0
        store.acquire("b", lease_seconds=10.0)  # term 2
        with pytest.raises(ReplicationError, match="term 2"):
            store.renew("a", 1)  # the deposed primary's signal

    def test_corrupt_record_reads_as_empty(self, tmp_path):
        path = tmp_path / "fence"
        path.write_text("not json")
        store = FencingStore(str(path))
        assert store.read().term == 0
        assert store.expired()

    def test_default_clock_is_monotonic(self, tmp_path):
        """Regression: the default was the wall clock, disagreeing with
        the primary/standby machinery (which always ran on monotonic).
        An NTP step could then lapse a live lease (two primaries) or
        extend it forever (none)."""
        import time

        store = FencingStore(str(tmp_path / "fence"))
        assert store.clock is time.monotonic

    def test_wall_clock_step_cannot_lapse_a_live_lease(self, tmp_path,
                                                       monkeypatch):
        import time

        store = FencingStore(str(tmp_path / "fence"))
        store.acquire("primary", lease_seconds=3600.0)
        # A huge forward wall step (NTP correction): fencing must not
        # notice — the lease runs on the monotonic clock.
        monkeypatch.setattr(time, "time",
                            lambda: time.monotonic() + 1e9)
        assert not store.expired()
        with pytest.raises(ReplicationError, match="held by 'primary'"):
            store.acquire("usurper", lease_seconds=3600.0)


class TestWalShipping:
    def test_live_tail_converges_byte_identically(self, tmp_path):
        controller, journal, server = make_primary(tmp_path / "p")
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fsync="never")
        join_standby(server, standby)
        run_workload(controller)
        assert standby.last_seq == journal.wal.records()[-1].seq
        assert_converged(standby, controller)
        # The standby's WAL holds the primary's exact bytes.
        primary_lines = [_frame_text(r) for r in journal.wal.records()]
        standby_lines = [_frame_text(r) for r in
                         standby.journal.wal.records()]
        assert standby_lines == primary_lines

    def test_standby_applies_an_exchange_as_one_commit(self, tmp_path):
        """The crash suite's memory-bound exchange, shipped: the standby
        applies the ``exchange`` record whole and ends equal to the
        primary, its log byte for byte the primary's."""
        from tests.integration.test_crash_recovery import (
            HOSTS,
            OPS_EXCHANGE,
            apply_op,
        )

        controller = AdaptationController(
            Cluster.full_mesh(list(HOSTS), memory_mb=96))
        journal = DurabilityJournal(str(tmp_path / "p"), fsync="never")
        journal.attach(controller)
        server = HarmonyServer(controller)
        server.enable_replication(address="primary:1")
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fsync="never")
        join_standby(server, standby)
        for op in OPS_EXCHANGE:
            apply_op(controller, op)
        records = journal.wal.records()
        assert [record.kind for record in records].count("exchange") == 1
        assert standby.last_seq == records[-1].seq
        assert_converged(standby, controller)
        assert [_frame_text(r) for r in standby.journal.wal.records()] == \
            [_frame_text(r) for r in records]

    def test_acks_flow_back_and_lag_is_zero(self, tmp_path):
        controller, _journal, server = make_primary(tmp_path / "p")
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fsync="never")
        join_standby(server, standby)
        run_workload(controller)
        (status,) = server.replication.status()
        assert status["standby_id"] == "sb"
        assert status["lag_records"] == 0
        assert status["acked_seq"] == standby.last_seq
        assert controller.metrics.latest("replication.acks") > 0

    def test_late_joiner_catches_up_from_wal_tail(self, tmp_path):
        controller, journal, server = make_primary(tmp_path / "p")
        run_workload(controller)  # history before the standby exists
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fsync="never")
        join_standby(server, standby)
        assert standby.last_seq == journal.wal.records()[-1].seq
        assert_converged(standby, controller)

    def test_late_joiner_behind_horizon_adopts_snapshot(self, tmp_path):
        controller, journal, server = make_primary(tmp_path / "p",
                                                   snapshot_every=4)
        run_workload(controller, count=4)
        assert journal.wal.first_seq > 1  # compacted: genesis is gone
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fsync="never")
        join_standby(server, standby)
        assert standby.last_seq == journal.wal.records()[-1].seq
        # It adopted a snapshot and replayed only the tail after it —
        # never the full history (whose head is compacted away anyway).
        assert standby.records_applied <= len(journal.wal.records())
        sb_events = [e for e in standby.controller.flight_recorder.events()
                     if e["kind"] == "replication"]
        assert any(e["detail"] == "snapshot_adopted" for e in sb_events)
        assert_converged(standby, controller)
        events = [e for e in controller.flight_recorder.events()
                     if e["kind"] == "replication"]
        assert any(e["detail"] == "standby_joined" for e in events)

    def test_duplicate_frames_are_skipped(self, tmp_path):
        controller, journal, server = make_primary(tmp_path / "p")
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fsync="never")
        join_standby(server, standby)
        run_workload(controller, count=1)
        applied = standby.records_applied
        replay = make_message(
            REPL_RECORDS, term=1,
            frames=[_frame_text(r) for r in journal.wal.records()])
        standby.on_message(replay)
        assert standby.records_applied == applied
        assert standby.resyncs == 0

    def test_gap_triggers_resync_and_recovers(self, tmp_path):
        controller, journal, server = make_primary(tmp_path / "p")
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fsync="never")
        join_standby(server, standby)
        run_workload(controller, count=1)
        future = WalRecord(seq=standby.last_seq + 5, time=999.0,
                           kind="register",
                           data={"app_name": "ghost", "key": "ghost.9",
                                 "instance_id": 9})
        standby.on_message(make_message(REPL_RECORDS, term=1,
                                        frames=[_frame_text(future)]))
        # The gap was never applied around: the standby re-helloed and
        # the primary re-shipped the (unchanged) tail.
        assert standby.resyncs == 1
        assert standby.last_seq == journal.wal.records()[-1].seq
        assert_converged(standby, controller)

    def test_corrupt_frame_triggers_resync(self, tmp_path):
        controller, _journal, server = make_primary(tmp_path / "p")
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fsync="never")
        join_standby(server, standby)
        run_workload(controller, count=1)
        good = _frame_text(WalRecord(seq=standby.last_seq + 1, time=1.0,
                                     kind="register",
                                     data={"app_name": "x", "key": "x.1",
                                           "instance_id": 1}))
        rotted = good[:-4] + "zzzz"  # CRC no longer matches
        standby.on_message(make_message(REPL_RECORDS, term=1,
                                        frames=[rotted]))
        assert standby.resyncs == 1
        assert_converged(standby, controller)

    def test_snapshot_checksum_mismatch_resyncs(self, tmp_path):
        controller, _journal, server = make_primary(tmp_path / "p")
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fsync="never")
        join_standby(server, standby)
        run_workload(controller, count=1)
        text = json.dumps({"not": "the state"})
        standby.on_message(make_message(
            REPL_SNAPSHOT, term=1, last_seq=standby.last_seq + 10,
            crc=f"{zlib.crc32(b'something else'):08x}", state=text))
        assert standby.resyncs == 1

    def test_snapshot_offer_behind_current_seq_is_ignored(self, tmp_path):
        controller, _journal, server = make_primary(tmp_path / "p")
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fsync="never")
        join_standby(server, standby)
        run_workload(controller)
        before = standby.last_seq
        text = json.dumps({"stale": True})
        standby.on_message(make_message(
            REPL_SNAPSHOT, term=1, last_seq=1,
            crc=f"{zlib.crc32(text.encode('utf-8')):08x}", state=text))
        assert standby.last_seq == before
        assert standby.resyncs == 0


class TestStandbyRestart:
    def test_restart_restores_from_own_directory(self, tmp_path):
        controller, journal, server = make_primary(tmp_path / "p")
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fsync="never")
        join_standby(server, standby)
        run_workload(controller)
        last = standby.last_seq
        standby.close()
        reborn = ReplicationStandby(str(tmp_path / "s"), "sb",
                                    fsync="never")
        assert reborn.last_seq == last
        assert_converged(reborn, controller)

    def test_restart_then_refollow_ships_only_the_tail(self, tmp_path):
        controller, journal, server = make_primary(tmp_path / "p")
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fsync="never")
        join_standby(server, standby)
        run_workload(controller, count=2)
        standby.close()
        run_workload(controller, count=2, prefix="late")  # missed traffic
        reborn = ReplicationStandby(str(tmp_path / "s"), "sb",
                                    fsync="never")
        restored_at = reborn.last_seq
        restored_applied = reborn.records_applied
        join_standby(server, reborn)
        assert reborn.last_seq == journal.wal.records()[-1].seq
        shipped = reborn.records_applied - restored_applied
        assert shipped == reborn.last_seq - restored_at
        assert_converged(reborn, controller)


class TestPromotion:
    def test_promote_refused_while_lease_live(self, tmp_path):
        clock = [0.0]
        fencing = FencingStore(str(tmp_path / "fence"),
                               clock=lambda: clock[0])
        controller, _journal, server = make_primary(tmp_path / "p",
                                                    fencing=fencing)
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fencing=fencing, fsync="never")
        join_standby(server, standby)
        run_workload(controller, count=1)
        assert not fencing.expired()
        with pytest.raises(ReplicationError, match="lease held"):
            standby.promote()
        assert not standby.promoted

    def test_the_serve_loop_keeps_a_live_primary_fenced(self, tmp_path):
        """``harmony-repro serve``'s loop renews the primary's lease: one
        whole lease period later the primary still holds its term, and a
        standby's promote is refused meanwhile."""
        clock = [0.0]
        fencing = FencingStore(str(tmp_path / "fence"),
                               clock=lambda: clock[0])
        controller, _journal, server = make_primary(tmp_path / "p",
                                                    fencing=fencing)
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fencing=fencing, fsync="never")
        join_standby(server, standby)
        run_workload(controller, count=1)
        period = min(1.0, 30.0 / 3.0)
        while clock[0] < 45.0:  # one and a half lease periods
            clock[0] += period
            server.tick()
            assert not fencing.expired()
        with pytest.raises(ReplicationError, match="lease held"):
            standby.promote()
        record = fencing.read()
        assert (record.term, record.holder) == (1, "primary:1")
        assert not server.standby and controller.term == 1

    def test_promotion_after_lease_expiry(self, tmp_path):
        clock = [0.0]
        fencing = FencingStore(str(tmp_path / "fence"),
                               clock=lambda: clock[0])
        controller, _journal, server = make_primary(tmp_path / "p",
                                                    fencing=fencing)
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fencing=fencing, fsync="never")
        join_standby(server, standby)
        run_workload(controller)
        clock[0] = 60.0  # the primary's lease lapses un-renewed
        assert fencing.expired()
        promoted = standby.promote()
        assert standby.promoted
        assert promoted.term == 2
        # The new term is durable in the replicated WAL, not just RAM.
        assert standby.journal.wal.records()[-1].kind == "term"
        # The promoted controller serves: a new app lands and journals.
        instance = promoted.register_app("after")
        promoted.setup_bundle(instance, RSL.format(name="after"))
        assert promoted.journal is standby.journal

    def test_promote_is_idempotent(self, tmp_path):
        controller, _journal, server = make_primary(tmp_path / "p")
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fsync="never")
        join_standby(server, standby)
        run_workload(controller, count=1)
        first = standby.promote()
        assert standby.promote() is first

    def test_close_after_promotion_leaves_the_log_to_its_journal(
            self, tmp_path):
        """Promotion hands the standby's log to the promoted controller's
        journal: ``close()`` stops following but keeps the log open, and
        closing that journal is what releases the handle."""
        controller, _journal, server = make_primary(tmp_path / "p")
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fsync="never")
        join_standby(server, standby)
        run_workload(controller, count=1)
        promoted = standby.promote()
        journal, wal = promoted.journal, promoted.journal.wal
        assert journal is standby.journal
        standby.close()
        assert not wal._handle.closed
        last_seq = wal.last_seq
        instance = promoted.register_app("after")
        promoted.setup_bundle(instance, RSL.format(name="after"))
        assert wal.last_seq > last_seq
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            standby.controller.journal.close()
            assert wal._handle.closed
            del journal, wal
            gc.collect()
        assert promoted.journal is None

    def test_close_before_promotion_closes_the_log(self, tmp_path):
        controller, _journal, server = make_primary(tmp_path / "p")
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fsync="never")
        join_standby(server, standby)
        run_workload(controller, count=1)
        standby.close()
        assert standby.journal.wal._handle.closed

    def test_promote_without_state_is_refused(self, tmp_path):
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fsync="never")
        with pytest.raises(ReplicationError, match="no replicated"):
            standby.promote()

    def test_deposed_primary_demotes_on_renew(self, tmp_path):
        clock = [0.0]
        fencing = FencingStore(str(tmp_path / "fence"),
                               clock=lambda: clock[0])
        controller, _journal, server = make_primary(tmp_path / "p",
                                                    fencing=fencing)
        address = closed_address()
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fencing=fencing, fsync="never",
                                     address=address)
        join_standby(server, standby)
        run_workload(controller, count=1)
        clock[0] = 60.0
        standby.promote()
        assert server.tick() is False
        assert server.standby
        reply = server.moved_reply()
        assert reply["type"] == "controller_moved"
        assert reply["leader"] == address
        # Counted on the controller the deposed server now serves reads
        # from: its directory's replica.
        assert server.controller.metrics.latest("server.demotions") == 1
        server.stop()

    def test_promoted_standby_refuses_to_follow(self, tmp_path):
        controller, _journal, server = make_primary(tmp_path / "p")
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fsync="never")
        join_standby(server, standby)
        run_workload(controller, count=1)
        standby.promote()
        client_end, _server_end = connected_pair()
        with pytest.raises(ReplicationError, match="promoted"):
            standby.follow(client_end)


class TestLogMatching:
    """Rejoin safety: a tail is only served on top of a matching history.

    The dangerous rejoin is a deposed primary that fsynced a record and
    crashed before the append observer shipped it — durable on its disk,
    never part of the history the survivors converged on.  Without the
    ``last_crc`` check in the hello it would keep that orphan record and
    silently apply the new primary's tail on top of it.
    """

    def _depose_with_unshipped(self, tmp_path, fencing, clock,
                               unshipped=1):
        controller, journal, server = make_primary(tmp_path / "p1",
                                                   fencing=fencing)
        standby = ReplicationStandby(str(tmp_path / "s1"), "s1",
                                     fencing=fencing, fsync="never")
        join_standby(server, standby)
        run_workload(controller, count=2)
        # Durable-but-never-shipped: appending straight to the WAL runs
        # the fsync but not the journal's append observers, exactly the
        # crash window between them.  The orphan is a legacy
        # ``reevaluation_batch``, a kind replay still accepts but nothing
        # writes any more, so any record of that kind is the orphan.
        last_time = journal.wal.records()[-1].time
        for index in range(unshipped):
            journal.wal.append("reevaluation_batch", last_time,
                               {"generation": 90 + index, "reasons": []})
        server.fail_stop()
        journal.wal.close()
        clock[0] = 60.0
        promoted = standby.promote()
        return journal, standby, promoted

    def test_divergent_rejoin_is_reset_not_built_upon(self, tmp_path):
        clock = [0.0]
        fencing = FencingStore(str(tmp_path / "fence"),
                               clock=lambda: clock[0])
        journal, standby, promoted = self._depose_with_unshipped(
            tmp_path, fencing, clock)
        divergent_seq = journal.wal.records()[-1].seq
        # The new history reuses that seq (the promotion term record)
        # and grows past it.
        run_workload(promoted, count=1, prefix="late")
        assert standby.journal.wal.records()[-1].seq > divergent_seq

        deposed = ReplicationStandby(str(tmp_path / "p1"), "old-primary",
                                     fencing=fencing, fsync="never")
        assert deposed.last_seq == divergent_seq  # still holds the orphan
        new_primary = ReplicationPrimary(standby.journal,
                                         promoted).install()
        expected_last = standby.journal.wal.records()[-1].seq
        wire_primary(new_primary, deposed)

        assert deposed.divergence_resets == 1
        assert deposed.resyncs == 0  # a reset, not a blind re-hello loop
        assert deposed.last_seq == expected_last
        # The orphan record is gone from the deposed WAL, not hiding
        # under the new tail.
        assert all(r.kind != "reevaluation_batch"
                   for r in deposed.journal.wal.records())
        assert_converged(deposed, promoted)
        events = [e for e in promoted.flight_recorder.events()
                     if e["kind"] == "replication"]
        assert any(e["detail"] == "standby_diverged" for e in events)
        assert promoted.metrics.latest(
            "replication.divergent_rejoins") == 1

        # And it follows the live tail cleanly after the reset.
        run_workload(promoted, count=1, prefix="post")
        assert deposed.last_seq == standby.journal.wal.records()[-1].seq
        assert deposed.divergence_resets == 1  # one reset was enough
        assert_converged(deposed, promoted)

    def test_rejoin_ahead_of_new_history_is_reset(self, tmp_path):
        clock = [0.0]
        fencing = FencingStore(str(tmp_path / "fence"),
                               clock=lambda: clock[0])
        journal, standby, promoted = self._depose_with_unshipped(
            tmp_path, fencing, clock, unshipped=3)
        # The new history is *shorter* than the deposed primary's log:
        # only the promotion term record landed after the shared prefix.
        assert journal.wal.records()[-1].seq \
            > standby.journal.wal.records()[-1].seq

        deposed = ReplicationStandby(str(tmp_path / "p1"), "old-primary",
                                     fencing=fencing, fsync="never")
        new_primary = ReplicationPrimary(standby.journal,
                                         promoted).install()
        expected_last = standby.journal.wal.records()[-1].seq
        wire_primary(new_primary, deposed)

        assert deposed.divergence_resets == 1
        assert deposed.last_seq == expected_last
        assert_converged(deposed, promoted)

    def test_matching_rejoin_ships_tail_without_reset(self, tmp_path):
        controller, journal, server = make_primary(tmp_path / "p")
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fsync="never")
        join_standby(server, standby)
        run_workload(controller, count=2)
        standby.close()
        run_workload(controller, count=2, prefix="late")
        reborn = ReplicationStandby(str(tmp_path / "s"), "sb",
                                    fsync="never")
        join_standby(server, reborn)
        assert reborn.divergence_resets == 0
        assert controller.metrics.latest(
            "replication.divergent_rejoins") is None
        assert_converged(reborn, controller)

    def test_hello_arms_ship_timeout_on_the_link(self, tmp_path):
        _controller, _journal, server = make_primary(tmp_path / "p")
        calls = []

        class Recorder(Transport):
            def send(self, message):
                calls.append(("send", message["type"]))

            def set_send_timeout(self, timeout):
                calls.append(("timeout", timeout))

        server.replication.handle_hello(Recorder(), standby_id="sb",
                                        last_seq=0)
        assert ("timeout", 5.0) in calls
        assert ("send", REPL_RECORDS) in calls


class TestFencingAtomicity:
    def test_racing_acquires_elect_exactly_one(self, tmp_path):
        clock = [0.0]
        path = str(tmp_path / "fence")
        FencingStore(path, clock=lambda: clock[0]).acquire(
            "old-primary", lease_seconds=1.0)
        clock[0] = 100.0  # the lease lapsed: an election is open
        winners = []
        barrier = threading.Barrier(8)

        def contend(name):
            store = FencingStore(path, clock=lambda: clock[0])
            barrier.wait()
            try:
                winners.append((name, store.acquire(name,
                                                    lease_seconds=30.0)))
            except ReplicationError:
                pass

        threads = [threading.Thread(target=contend, args=(f"sb{i}",))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # The read-check-write is atomic under the flock: exactly one
        # standby took term 2; everyone else saw its live lease.
        assert len(winners) == 1
        name, term = winners[0]
        assert term == 2
        record = FencingStore(path).read()
        assert (record.term, record.holder) == (term, name)


def stream_errors_seen(standby):
    """The error each ``stream_error`` flight event of ``standby``'s
    controller records, oldest first."""
    return [event["error"] for event in
            standby.controller.flight_recorder.events()
            if event["kind"] == "replication"
            and event["detail"] == "stream_error"]


class TestStreamErrors:
    """A reply the standby cannot follow is counted and flight-recorded;
    the standbys here hold state, so there is a recorder to note it."""

    @pytest.fixture
    def standby(self, tmp_path):
        controller, journal, _server = make_primary(tmp_path / "p")
        run_workload(controller, count=1)
        journal.close()
        return ReplicationStandby(str(tmp_path / "p"), "sb", fsync="never")

    def test_error_reply_to_hello_is_surfaced(self, standby):
        client_end, server_end = connected_pair()
        server_end.set_receiver(
            lambda m: server_end.send(
                make_message("error", message="no snapshot verifies")))
        standby.follow(client_end)
        assert standby.stream_errors == 1
        assert stream_errors_seen(standby) == ["no snapshot verifies"]
        assert standby.controller.metrics.latest(
            "replication.stream_errors") == 1

    def test_hello_to_unreplicated_server_is_surfaced(self, standby):
        server = HarmonyServer(AdaptationController(make_cluster()))
        join_standby(server, standby)
        assert standby.stream_errors == 1
        [error] = stream_errors_seen(standby)
        assert "replication is not enabled" in error


def _next_frame(standby):
    return _frame_text(WalRecord(seq=standby.last_seq + 1, time=1.0,
                                 kind="register",
                                 data={"app_name": "x", "key": "x.9",
                                       "instance_id": 9}))


MALFORMED = {
    "records_term": lambda standby: {
        "type": REPL_RECORDS, "term": "x", "frames": [_next_frame(standby)]},
    "records_non_ascii_frame": lambda standby: {
        "type": REPL_RECORDS, "term": 1,
        "frames": [_next_frame(standby) + "é"]},
    "records_frames_not_a_list": lambda standby: {
        "type": REPL_RECORDS, "term": 1, "frames": 5},
    "snapshot_last_seq": lambda standby: {
        "type": REPL_SNAPSHOT, "term": 1, "last_seq": "z",
        "crc": f"{zlib.crc32(b'{}'):08x}", "state": "{}"},
}


class TestMalformedStream:
    """A stream message whose fields do not convert is a damaged frame:
    the standby applies nothing of it and re-hellos, as for a bad CRC —
    it never raises into the transport's reader."""

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_message_resyncs_and_applies_nothing(self, tmp_path,
                                                           name):
        controller, journal, server = make_primary(tmp_path / "p")
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fsync="never")
        join_standby(server, standby)
        run_workload(controller, count=1)
        applied, last_seq = standby.records_applied, standby.last_seq
        standby.on_message(MALFORMED[name](standby))
        assert standby.resyncs == 1
        assert standby.records_applied == applied
        assert standby.last_seq == last_seq == journal.wal.last_seq
        assert len(standby.journal.wal.records()) == \
            len(journal.wal.records())
        assert_converged(standby, controller)
        # Still following: the next append arrives and applies.
        run_workload(controller, count=1, prefix="after")
        assert standby.last_seq == journal.wal.last_seq
        assert_converged(standby, controller)


def shut_down(server):
    """Stop ``server`` as ``harmony-repro serve`` does on exit: a standby
    closes its replica's log, a primary's journal is closed after."""
    server.stop()
    if server.controller.journal is not None:
        server.controller.journal.close()


def serve_primary(directory, fencing, closing):
    """A journaled primary served over TCP, its fencing record naming
    the address it is bound to."""
    controller = AdaptationController(make_cluster())
    journal = DurabilityJournal(str(directory), fsync="never",
                                snapshot_every=0)
    journal.attach(controller)
    server = HarmonyServer(controller)
    host, port = server.serve_tcp(port=0)
    closing(types.SimpleNamespace(close=server.stop))
    assert server.enable_replication(
        fencing=fencing, lease_seconds=30.0,
        address=f"{host}:{port}") == "primary"
    return controller, journal, server


def serve_standby(directory, fencing, closing):
    """A standby built as ``harmony-repro serve --dir`` builds one on an
    empty directory while a primary holds the lease: journaled, bound,
    fenced out by ``enable_replication``; its first tick dials the
    holder the fencing record names."""
    controller = AdaptationController(make_cluster())
    DurabilityJournal(str(directory), fsync="never").attach(controller)
    server = HarmonyServer(controller, standby=True)
    host, port = server.serve_tcp(port=0)
    closing(types.SimpleNamespace(close=lambda: shut_down(server)))
    assert server.enable_replication(
        fencing=fencing, lease_seconds=30.0,
        address=f"{host}:{port}") == "standby"
    assert server.tick() is False
    return server, server.replica


def run_served(server, count=3, prefix="app"):
    """``run_workload`` on a served primary, serialized with its
    standbys' hellos as a request's mutation would be."""
    with server.controller_lock:
        run_workload(server.controller, count=count, prefix=prefix)


def wait_caught_up(replica, server):
    wait_until(lambda: replica.last_seq
               == server.controller.journal.wal.last_seq,
               message="the standby to catch up")


def register_refused(server):
    """The ``controller_moved`` redirect ``server`` answers a register
    with, as the exception a client raises."""
    client_end, server_end = connected_pair()
    server.attach(server_end)
    with pytest.raises(ControllerMovedError) as excinfo:
        HarmonyClient(client_end)._request_once(make_message(
            "register", app_name="late", use_interrupts=False))
    return excinfo.value


def terms_journaled(journal):
    return [record.data["term"] for record in journal.wal.records()
            if record.kind == "term"]


class TestServedStandby:
    """A served standby follows the holder the fencing record names, and
    takes over from its own loop, ``tick()``."""

    def test_stands_by_while_the_lease_lives_then_takes_over(
            self, tmp_path, closing, monkeypatch):
        clock = [0.0]
        fencing = FencingStore(str(tmp_path / "fence"),
                               clock=lambda: clock[0])
        _controller, _journal, primary = serve_primary(tmp_path / "p",
                                                       fencing, closing)
        server, replica = serve_standby(tmp_path / "s", fencing, closing)
        run_served(primary, count=2)
        wait_caught_up(replica, primary)
        assert server.controller is replica.controller
        leader = fencing.read().address
        primary.fail_stop()
        claims = []
        acquire = fencing.acquire
        monkeypatch.setattr(fencing, "acquire", lambda *args, **kwargs: (
            claims.append(clock[0]), acquire(*args, **kwargs))[1])
        while clock[0] < 29.0:  # the dead primary's lease is live
            clock[0] += 1.0
            server.tick()
            assert server.standby and not replica.promoted
        assert claims == []  # a live lease is not even contended
        assert register_refused(server).leader == leader
        clock[0] = 30.0  # ... and lapses
        server.tick()
        assert not server.standby and replica.promoted
        assert claims == [30.0]
        record = fencing.read()
        assert (record.term, record.holder, record.address) \
            == (2, replica.standby_id, replica.address)
        assert replica.standby_id == replica.address
        assert terms_journaled(replica.journal) == [1, 2]
        assert server.controller.term == 2
        # It serves mutations, and journals them under the new term.
        client_end, server_end = connected_pair()
        server.attach(server_end)
        client = HarmonyClient(client_end)
        assert client.startup("after") == "after.3"
        assert replica.journal.wal.records()[-1].kind == "register"

    def test_the_new_primary_renews_its_lease_and_ships(self, tmp_path,
                                                        closing):
        clock = [0.0]
        fencing = FencingStore(str(tmp_path / "fence"),
                               clock=lambda: clock[0])
        _controller, _journal, primary = serve_primary(tmp_path / "p",
                                                       fencing, closing)
        server, replica = serve_standby(tmp_path / "s", fencing, closing)
        second = ReplicationStandby(str(tmp_path / "s2"), "s2",
                                    fencing=fencing, fsync="never")
        join_standby(primary, second)
        run_served(primary, count=2)
        wait_caught_up(replica, primary)
        primary.fail_stop()
        clock[0] = 30.0
        server.tick()
        assert not server.standby
        while clock[0] < 75.0:  # one and a half lease periods of ticks
            clock[0] += 1.0
            server.tick()
            assert not server.standby and not fencing.expired()
        with pytest.raises(ReplicationError, match="lease held"):
            second.promote()
        fresh = ReplicationStandby(str(tmp_path / "fresh"), "fresh",
                                   fencing=fencing, fsync="never")
        join_standby(server, fresh)
        run_served(server, count=1, prefix="late")
        assert fresh.last_seq == replica.journal.wal.last_seq
        assert fresh.term == 2
        assert_converged(fresh, server.controller)

    def test_an_empty_fencing_record_says_no_primary_died(self, tmp_path,
                                                          closing):
        """A record that reads empty (term 0: lost, or never written)
        leaves nothing that can lapse: the standby stands by whatever
        the clock says."""
        clock = [0.0]
        fencing = FencingStore(str(tmp_path / "fence"),
                               clock=lambda: clock[0])
        _controller, _journal, primary = serve_primary(tmp_path / "p",
                                                       fencing, closing)
        server, replica = serve_standby(tmp_path / "s", fencing, closing)
        run_served(primary, count=1)
        wait_caught_up(replica, primary)
        primary.fail_stop()
        (tmp_path / "fence").unlink()
        clock[0] = 1e6
        server.tick()
        assert server.standby and not replica.promoted
        assert fencing.read().term == 0
        assert terms_journaled(replica.journal) == [1]

    def test_a_standby_that_loses_the_race_stands_by(self, tmp_path,
                                                     closing, monkeypatch):
        clock = [0.0]
        fencing = FencingStore(str(tmp_path / "fence"),
                               clock=lambda: clock[0])
        _controller, _journal, primary = serve_primary(tmp_path / "p",
                                                       fencing, closing)
        server, replica = serve_standby(tmp_path / "s", fencing, closing)
        run_served(primary, count=1)
        wait_caught_up(replica, primary)
        primary.fail_stop()
        clock[0] = 30.0
        acquire = fencing.acquire
        rival = closed_address()

        def rival_first(holder, **kwargs):
            # A rival standby saw the same lapse and claimed it first.
            acquire("rival", lease_seconds=30.0, address=rival)
            return acquire(holder, **kwargs)

        monkeypatch.setattr(fencing, "acquire", rival_first)
        server.tick()
        assert server.standby and not replica.promoted
        assert (fencing.read().term, fencing.read().holder) == (2, "rival")
        assert server.controller.term == 1
        assert terms_journaled(replica.journal) == [1]
        assert register_refused(server).leader == rival
        # The rival's term is not the one this replica follows: even
        # once its lease lapses, this standby does not take over.
        monkeypatch.undo()
        clock[0] = 120.0
        server.tick()
        assert server.standby and not replica.promoted

    def test_a_standby_that_loses_the_race_follows_the_winner(
            self, tmp_path, closing, monkeypatch):
        """Two standbys saw the same lapse; the one that lost the claim
        dials the winner the fencing record names and follows its new
        term."""
        clock = [0.0]

        def fencing():
            return FencingStore(str(tmp_path / "fence"),
                                clock=lambda: clock[0])

        _controller, _journal, primary = serve_primary(tmp_path / "p",
                                                       fencing(), closing)
        loser, replica = serve_standby(tmp_path / "s1", fencing(), closing)
        winner, winner_replica = serve_standby(tmp_path / "s2", fencing(),
                                               closing)
        run_served(primary, count=2)
        wait_caught_up(replica, primary)
        wait_caught_up(winner_replica, primary)
        primary.fail_stop()
        clock[0] = 30.0
        acquire = loser.fencing.acquire

        def winner_first(*args, **kwargs):
            assert winner.tick() is True  # claims term 2 first
            return acquire(*args, **kwargs)

        monkeypatch.setattr(loser.fencing, "acquire", winner_first)
        assert loser.tick() is False
        assert loser.standby and not replica.promoted
        assert loser.fencing.read().holder == winner_replica.address
        run_served(winner, count=1, prefix="late")
        wait_caught_up(replica, winner)
        assert replica.term == 2
        assert terms_journaled(replica.journal)[-1] == 2
        assert_converged(replica, winner.controller)
        assert register_refused(loser).leader == winner_replica.address

    def test_a_deposed_primary_follows_the_new_holder_and_takes_over(
            self, tmp_path, closing):
        """A primary that missed its renewals finds another holder at
        its next tick: it stands by from its own directory, follows that
        holder, and takes over from it at term 3 holding every record
        it acknowledged.  A standby whose link to the stalled primary is
        still open switches to the new holder too."""
        clock = [0.0]
        fencing = FencingStore(str(tmp_path / "fence"),
                               clock=lambda: clock[0])
        _controller, _journal, first = serve_primary(tmp_path / "p",
                                                     fencing, closing)
        closing(types.SimpleNamespace(close=lambda: shut_down(first)))
        address = fencing.read().address
        second, _ = serve_standby(tmp_path / "s", fencing, closing)
        third, other = serve_standby(tmp_path / "t", fencing, closing)
        run_served(first, count=2)
        wait_caught_up(second.replica, first)
        wait_caught_up(other, first)
        clock[0] = 30.0  # the first primary stalled past its lease
        assert second.tick() is True
        assert not other.transport.closed  # still linked to the first
        assert third.tick() is False
        assert first.tick() is False  # renewal refused: it follows
        replica = first.replica
        assert first.standby and replica is not None
        assert first.controller is replica.controller
        run_served(second, count=2, prefix="late")
        wait_caught_up(replica, second)
        assert replica.term == 2 and replica.divergence_resets == 0
        assert_converged(replica, second.controller)
        wait_caught_up(other, second)
        assert other.term == 2
        assert_converged(other, second.controller)
        acknowledged = second.controller.journal.wal.last_seq
        second.fail_stop()
        clock[0] = 59.0
        assert first.tick() is False  # its lease still lives
        clock[0] = 60.0
        assert first.tick() is True
        assert replica.promoted and first.controller is replica.controller
        assert first.controller.term == 3
        record = fencing.read()
        assert (record.term, record.holder) == (3, address)
        assert replica.last_seq == acknowledged
        assert terms_journaled(replica.journal)[-3:] == [1, 2, 3]
        assert len(first.controller.registry) == 4
        assert_converged(replica, second.controller)

    def test_a_dropped_link_is_followed_again(self, tmp_path, closing,
                                              server_factory):
        """The primary closes a link it could not ship on; the standby's
        tick dials again while the lease lives and re-hellos from its
        last record, so it takes over holding everything acknowledged."""
        clock = [0.0]
        fencing = FencingStore(str(tmp_path / "fence"),
                               clock=lambda: clock[0])
        controller = AdaptationController(make_cluster())
        journal = DurabilityJournal(str(tmp_path / "p"), fsync="never")
        journal.attach(controller)
        primary = HarmonyServer(controller)
        handle = server_factory(primary)
        host, port = handle.address
        assert primary.enable_replication(
            fencing=fencing, lease_seconds=30.0,
            address=f"{host}:{port}") == "primary"
        server, replica = serve_standby(tmp_path / "s", fencing, closing)

        def caught_up():
            return replica.last_seq == journal.wal.last_seq

        run_served(primary, count=1)
        wait_until(caught_up, message="the standby to catch up")

        def stalled(message):
            raise TransportError("send timed out (peer not reading)")

        [link] = primary.replication.link_transports()
        link.send = stalled
        run_served(primary, count=2, prefix="late")
        wait_until(lambda: replica.transport.closed,
                   message="the dropped link to close")
        assert len(replica.controller.registry) == 1
        assert server.tick() is False  # the lease lives: dial again
        wait_until(caught_up, message="the standby to catch up again")
        assert len(replica.controller.registry) == 3
        primary.fail_stop()
        clock[0] = 30.0
        assert server.tick() is True
        assert server.controller is replica.controller
        assert server.controller.term == 2
        assert len(server.controller.registry) == 3
        assert terms_journaled(replica.journal) == [1, 2]


class TestSnapshotTerm:
    def test_a_restart_from_a_snapshot_keeps_the_term(self, tmp_path,
                                                      closing):
        """Once compaction dropped the ``term`` record, the snapshot
        alone says which term the server served under."""
        controller, journal, _server = make_primary(tmp_path / "p",
                                                    snapshot_every=2)
        for index in range(12):
            controller.register_app(f"app{index}")
        assert "term" not in {record.kind
                              for record in journal.wal.records()}
        journal.close()
        restored = AdaptationController.restore(str(tmp_path / "p"))
        closing(restored.journal)
        assert restored.term == 1
        assert HarmonyServer(restored).enable_replication() == "primary"
        assert restored.term == 2
        assert terms_journaled(restored.journal) == [2]

    def test_a_standby_caught_up_from_a_snapshot_promotes_past_it(
            self, tmp_path):
        """A standby that joins after compaction learns the term from
        the snapshot it is sent, and its promotion claims the next."""
        controller, journal, server = make_primary(tmp_path / "p",
                                                   snapshot_every=2)
        run_workload(controller, count=4)
        assert "term" not in {record.kind
                              for record in journal.wal.records()}
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fsync="never")
        join_standby(server, standby)
        assert standby.controller.term == 1
        assert standby.promote().term == 2


NODES = "".join(f"harmonyNode n{index} {{speed 1}} {{memory 256}}\n"
                for index in range(4))


class TestServeDirectory:
    """``serve --dir`` restarts from the state its directory holds."""

    @pytest.fixture
    def served(self, monkeypatch):
        """Every server ``main(["serve", ...])`` built, in order."""
        built = []
        stop = HarmonyServer.stop

        def recording_stop(server):
            built.append(server)
            stop(server)

        monkeypatch.setattr(HarmonyServer, "stop", recording_stop)
        return built

    def serve(self, tmp_path, directory, fence, *flags):
        nodes = tmp_path / "nodes.rsl"
        nodes.write_text(NODES)
        return main(["serve", "--nodes", str(nodes), "--dir",
                     str(directory), "--fencing", str(fence),
                     *(flags or ["--once"])])

    def serve_until_caught_up(self, tmp_path, directory, fence, leader,
                              monkeypatch):
        """Run ``serve``'s loop (a tick every 0.1 s) until the server's
        replica holds what ``leader`` journaled, then interrupt it as
        Ctrl-C would; it gives up after 100 ticks."""
        tick = HarmonyServer.tick
        ticks = []

        def ticking(server):
            primary = tick(server)
            ticks.append(primary)
            replica = server.replica
            if len(ticks) >= 100 or (
                    replica is not None and replica.last_seq
                    == leader.controller.journal.wal.last_seq):
                raise KeyboardInterrupt
            return primary

        monkeypatch.setattr(HarmonyServer, "tick", ticking)
        assert self.serve(tmp_path, directory, fence,
                          "--lease-seconds", "0.3") == 0
        return ticks

    def test_on_a_standby_directory_it_serves_at_the_next_term(
            self, tmp_path, capsys, served):
        # The primary's lease lapsed long ago on the real clock.
        fencing = FencingStore(str(tmp_path / "fence"),
                               clock=lambda: time.monotonic() - 1000.0)
        controller, journal, primary = make_primary(tmp_path / "p",
                                                    fencing=fencing)
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fencing=fencing, fsync="never")
        join_standby(primary, standby)
        run_workload(controller, count=3)
        primary.fail_stop()
        standby.close()
        journal.close()
        assert self.serve(tmp_path, tmp_path / "s",
                          tmp_path / "fence") == 0
        assert "Harmony primary on" in capsys.readouterr().out
        (server,) = served
        assert server.replication_status()["role"] == "primary"
        assert server.controller.term == 2
        assert fencing.read().term == 2
        restored = AdaptationController.restore(str(tmp_path / "s"),
                                                fsync="never")
        try:
            assert restored.term == 2
            assert len(restored.registry) == 3
        finally:
            restored.journal.close()

    def test_on_the_deposed_primary_directory_it_stands_by(
            self, tmp_path, capsys, served):
        old = FencingStore(str(tmp_path / "fence"),
                           clock=lambda: time.monotonic() - 1000.0)
        controller, journal, primary = make_primary(tmp_path / "p",
                                                    fencing=old)
        new = FencingStore(str(tmp_path / "fence"))
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fencing=new, fsync="never",
                                     address="new:2")
        join_standby(primary, standby)
        run_workload(controller, count=3)
        primary.fail_stop()
        standby.promote()  # the new primary's lease is live
        journal.close()
        assert self.serve(tmp_path, tmp_path / "p",
                          tmp_path / "fence") == 0
        assert "Harmony standby on" in capsys.readouterr().out
        (server,) = served
        assert server.standby and server.controller.term == 1
        assert register_refused(server).leader == "new:2"
        assert len(server.controller.registry) == 3
        assert (new.read().term, new.read().holder) == (2, "sb")

    def test_on_the_deposed_primary_directory_it_follows_the_survivor(
            self, tmp_path, capsys, served, closing, monkeypatch):
        """The deposed primary's directory holds a record it never
        shipped; restarted, it follows the survivor, which resets that
        divergent suffix."""
        old = FencingStore(str(tmp_path / "fence"),
                           clock=lambda: time.monotonic() - 1000.0)
        controller, journal, primary = make_primary(tmp_path / "p",
                                                    fencing=old)
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fsync="never")
        join_standby(primary, standby)
        run_workload(controller, count=2)
        standby.close()
        run_workload(controller, count=1, prefix="unshipped")
        primary.fail_stop()
        journal.close()
        # The survivor serves the standby's directory at term 2, and its
        # history reuses the unshipped record's sequence number.
        survivor = AdaptationController.restore(str(tmp_path / "s"),
                                                fsync="never")
        closing(survivor.journal)
        new = HarmonyServer(survivor, standby=True)
        host, port = new.serve_tcp(port=0)
        closing(types.SimpleNamespace(close=new.stop))
        assert new.enable_replication(
            fencing=FencingStore(str(tmp_path / "fence")),
            lease_seconds=30.0, address=f"{host}:{port}") == "primary"
        run_served(new, count=2, prefix="late")
        ticks = self.serve_until_caught_up(tmp_path, tmp_path / "p",
                                           tmp_path / "fence", new,
                                           monkeypatch)
        assert "Harmony standby on" in capsys.readouterr().out
        assert set(ticks) == {False} and len(ticks) < 100
        (server,) = served
        replica = server.replica
        assert replica.divergence_resets == 1
        assert replica.term == 2
        assert server.replication_status()["role"] == "standby"
        assert server.controller.term == 2
        assert_converged(replica, survivor)
        assert register_refused(server).leader == f"{host}:{port}"

    def test_on_an_empty_directory_it_follows_the_holder(
            self, tmp_path, capsys, served, closing, monkeypatch):
        fencing = FencingStore(str(tmp_path / "fence"))
        _controller, _journal, primary = serve_primary(tmp_path / "p",
                                                       fencing, closing)
        run_served(primary, count=3)
        ticks = self.serve_until_caught_up(tmp_path, tmp_path / "s",
                                           tmp_path / "fence", primary,
                                           monkeypatch)
        assert "Harmony standby on" in capsys.readouterr().out
        assert set(ticks) == {False} and len(ticks) < 100
        (server,) = served
        status = server.replication_status()
        assert (status["role"], status["term"], status["last_seq"]) == (
            "standby", 1, primary.controller.journal.wal.last_seq)
        assert len(server.controller.registry) == 3
        assert_converged(server.replica, primary.controller)
        assert fencing.read().term == 1

    def test_a_nodes_file_naming_other_hosts_is_refused(self, tmp_path,
                                                        capsys):
        controller, journal, _primary = make_primary(tmp_path / "p")
        run_workload(controller, count=1)
        journal.close()
        nodes = tmp_path / "other.rsl"
        nodes.write_text("harmonyNode alpha {speed 1}\n")
        assert main(["serve", "--nodes", str(nodes), "--dir",
                     str(tmp_path / "p"), "--once"]) == 1
        assert "not the hosts --nodes names" in capsys.readouterr().err
