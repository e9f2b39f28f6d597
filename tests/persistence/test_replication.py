"""WAL shipping, fencing, and promotion at unit scale.

A primary (journaled controller behind a ``HarmonyServer``) ships its
WAL to an in-process standby; the suite checks the stream invariants —
ship-after-durable, CRC re-verification, duplicate suppression, gap
resync, catch-up-from-snapshot — and the term-fenced promotion handoff.
"""

import gc
import json
import threading
import warnings
import zlib

import pytest

from repro.api import HarmonyServer, make_message
from repro.api.protocol import (MESSAGES, REPL_HELLO, REPL_RECORDS,
                                REPL_SNAPSHOT)
from repro.api.transport import Transport, connected_pair
from repro.cli import serve_tick
from repro.cluster import Cluster
from repro.controller import AdaptationController
from repro.errors import ReplicationError
from repro.persistence import (
    DurabilityJournal,
    FencingStore,
    ReplicationStandby,
)
from repro.persistence.replication import ReplicationPrimary, _frame_text
from repro.persistence.wal import WalRecord


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
        assert not standby.can_promote()
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
            serve_tick(server)
            assert not standby.can_promote()
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
        assert standby.can_promote()
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
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fencing=fencing, fsync="never",
                                     address="standby:2")
        join_standby(server, standby)
        run_workload(controller, count=1)
        clock[0] = 60.0
        standby.promote()
        assert server.renew_fencing() is False
        assert server.standby
        reply = server.moved_reply()
        assert reply["type"] == "controller_moved"
        assert reply["leader"] == "standby:2"
        assert controller.metrics.latest("server.demotions") == 1

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
        # crash window between them.
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


class TestStreamErrors:
    def test_error_reply_to_hello_is_surfaced(self, tmp_path):
        seen = []
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fsync="never",
                                     on_stream_error=seen.append)
        client_end, server_end = connected_pair()
        server_end.set_receiver(
            lambda m: server_end.send(
                make_message("error", message="no snapshot verifies")))
        standby.follow(client_end)
        assert standby.stream_errors == 1
        assert seen[0]["message"] == "no snapshot verifies"
        assert standby.status()["stream_errors"] == 1

    def test_hello_to_unreplicated_server_is_surfaced(self, tmp_path):
        controller = AdaptationController(make_cluster())
        server = HarmonyServer(controller)
        seen = []
        standby = ReplicationStandby(str(tmp_path / "s"), "sb",
                                     fsync="never",
                                     on_stream_error=seen.append)
        join_standby(server, standby)
        assert standby.stream_errors == 1
        assert "replication is not enabled" in str(seen[0].get("message"))


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
