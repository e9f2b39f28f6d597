"""Recovery bench: crash-recovery wall time as the system grows.

Not a paper figure — a production-readiness check for the durability
layer (docs/durability.md).  Admission of N two-option apps is journaled
to a write-ahead log, then the controller is rebuilt from disk two ways:
a pure WAL replay (no snapshots — the worst case) and a snapshot + tail
restore (the steady state).  Both wall times land in
``benchmarks/results/BENCH_scale.json`` next to the admission point for
the same app count, so replay cost is directly comparable to the cost of
recomputing the decisions from scratch.
"""

import time

import pytest

from repro.controller import AdaptationController
from repro.persistence import DurabilityJournal

from benchutil import fmt_row, merge_bench_point
from test_scale import run_scale, two_option_rsl


def journal_admission(directory, app_count, snapshot_every):
    """Journal a scale-bench admission; returns the live controller."""
    controller = run_scale(0, False)
    journal = DurabilityJournal(str(directory), fsync="never",
                                snapshot_every=snapshot_every)
    journal.attach(controller)
    for index in range(app_count):
        instance = controller.register_app(f"App{index}")
        controller.setup_bundle(instance, two_option_rsl(index))
    journal.close()
    return controller


def timed_restore(directory):
    start = time.perf_counter()
    controller = AdaptationController.restore(str(directory),
                                              fsync="never")
    wall_seconds = time.perf_counter() - start
    controller.journal.close()
    return controller, wall_seconds


@pytest.mark.parametrize("app_count", [48, 96])
def test_recovery_replay(report, tmp_path, app_count):
    live = journal_admission(tmp_path / "replay", app_count,
                             snapshot_every=0)
    replayed, replay_seconds = timed_restore(tmp_path / "replay")
    replay_report = replayed.last_recovery

    journal_admission(tmp_path / "snap", app_count, snapshot_every=64)
    snapshotted, snapshot_seconds = timed_restore(tmp_path / "snap")
    snapshot_report = snapshotted.last_recovery

    # The recovered controllers are real: same shape as the live run.
    for restored in (replayed, snapshotted):
        assert len(restored.registry) == app_count
        configured = sum(
            1 for instance in restored.registry.instances()
            for state in instance.bundles.values()
            if state.chosen is not None)
        assert configured == app_count
    assert replayed.current_objective() == pytest.approx(
        live.current_objective())
    assert snapshot_report.snapshot_path is not None
    assert snapshot_report.records_replayed < \
        replay_report.records_replayed

    merge_bench_point(app_count, {
        "recovery_replay_seconds": round(replay_seconds, 4),
        "recovery_replay_records": replay_report.records_replayed,
        "recovery_snapshot_seconds": round(snapshot_seconds, 4),
        "recovery_snapshot_tail_records":
            snapshot_report.records_replayed,
    })
    report(f"recovery_{app_count}apps", [
        f"Crash recovery: {app_count} two-option apps on 32 nodes", "",
        fmt_row(["mode", "wall", "records replayed"], [18, 10, 18]),
        fmt_row(["full WAL replay", f"{replay_seconds:.3f}s",
                 replay_report.records_replayed], [18, 10, 18]),
        fmt_row(["snapshot + tail", f"{snapshot_seconds:.3f}s",
                 snapshot_report.records_replayed], [18, 10, 18])])
