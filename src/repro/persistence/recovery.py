"""Crash recovery: rebuild a controller from its durability directory.

:func:`restore_controller` (surfaced as
``AdaptationController.restore(path)``) performs the classic ARIES-shaped
sequence, adapted to a result-sourced log:

1. **Load** the newest snapshot that verifies (older generations are the
   fallback when the newest is corrupt), rebuilding registry, bundles,
   allocations, view placements, and namespace, then re-checking the
   snapshot's own digest.
2. **Replay** the WAL tail deterministically.  The log records decision
   *results* (concrete candidates), so replay never re-runs the
   optimizer: the decision policy is swapped for a no-op while each
   record is re-applied at its original simulated time, and every
   ``apply`` record's recomputed objective is compared against the
   logged one — a mismatch means replay is not reproducing history and
   recovery stops (:class:`~repro.errors.RecoveryError`).
3. **Resume**: the journal re-attaches (appending a ``recovered``
   marker), ``controller.recovery_seconds`` is reported, and the whole
   sequence is traced as a ``controller.restore`` span chain.

Events that the crash interrupted *mid-operation* (e.g. a re-evaluation
sweep half-applied) are recovered up to their last durable record; a
post-restore ``reevaluate()`` (``reevaluate=True``) reconverges the
remainder, because the policy's decisions depend only on current state.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.allocation.matcher import MatchStrategy
from repro.controller.controller import AdaptationController, DecisionPolicy
from repro.controller.friction import FrictionPolicy
from repro.controller.objective import Objective
from repro.errors import (
    RecoveryError,
    SnapshotCorruptionError,
    WalCorruptionError,
)
from repro.metrics import MetricInterface
from repro.obs.trace import NULL_TRACER
from repro.persistence import codec
from repro.persistence.crash import CrashSchedule
from repro.persistence.journal import DurabilityJournal
from repro.persistence.snapshot import latest_snapshot
from repro.persistence.wal import WalRecord
from repro.prediction.models import PerformanceModel
from repro.rsl import build_bundle

__all__ = ["RecoveryReport", "restore_controller"]


@dataclass
class RecoveryReport:
    """What one :func:`restore_controller` run did, for logs and CI."""

    directory: str
    snapshot_path: str | None
    snapshot_seq: int
    records_replayed: int
    last_seq: int
    recovery_seconds: float
    skipped_snapshots: list[str] = field(default_factory=list)
    reevaluation_changes: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "directory": self.directory,
            "snapshot_path": self.snapshot_path,
            "snapshot_seq": self.snapshot_seq,
            "records_replayed": self.records_replayed,
            "last_seq": self.last_seq,
            "recovery_seconds": self.recovery_seconds,
            "skipped_snapshots": list(self.skipped_snapshots),
            "reevaluation_changes": self.reevaluation_changes,
        }


class _ReplayPolicy(DecisionPolicy):
    """Inert stand-in while the WAL tail is re-applied.

    Replay re-applies recorded *results*; any policy-driven optimization
    during that window would double-decide.  Releases still flow through
    ``policy.reevaluate`` on the controller's shared paths, so the no-op
    must answer, not raise.
    """

    def configure_new_bundle(self, controller, instance, state) -> None:
        raise RecoveryError(
            "optimizer invoked during WAL replay — the log should carry "
            "results, not decisions")

    def reevaluate(self, controller) -> int:
        return 0


def restore_controller(
        directory: str,
        model_registry: Mapping[str, PerformanceModel] | None = None,
        metrics: MetricInterface | None = None,
        objective: Objective | None = None,
        policy: DecisionPolicy | None = None,
        friction_policy: FrictionPolicy | None = None,
        default_model: PerformanceModel | None = None,
        match_strategy: MatchStrategy = MatchStrategy.FIRST_FIT,
        reevaluation_period_seconds: float = 30.0,
        tracer=None,
        trace_log=None,
        reevaluate: bool = False,
        snapshot_every: int = 64,
        keep_snapshots: int = 2,
        fsync: str = "always",
        crash_schedule: CrashSchedule | None = None,
) -> AdaptationController:
    """Rebuild a controller from ``directory``; see the module docstring.

    Construction-time collaborators (policy, objective, models, …) are
    code, not state — the caller supplies them exactly as it would for a
    fresh controller, and they must match the crashed process's for the
    replay verification to hold.  Returns the controller with its journal
    re-attached and ``controller.last_recovery`` set.
    """
    start = _time.perf_counter()
    tracer = tracer if tracer is not None else NULL_TRACER
    journal = DurabilityJournal(
        directory, snapshot_every=snapshot_every,
        keep_snapshots=keep_snapshots, fsync=fsync,
        crash_schedule=crash_schedule, model_registry=model_registry)
    with tracer.span("controller.restore", directory=directory) as span:
        records = journal.wal.records()
        skipped: list[str] = []
        snapshot = latest_snapshot(directory, skipped=skipped)
        base_seq, cluster, state = _base_state(directory, snapshot,
                                               records, skipped)
        controller = AdaptationController(
            cluster, metrics=metrics, objective=objective,
            policy=policy, friction_policy=friction_policy,
            default_model=default_model, match_strategy=match_strategy,
            reevaluation_period_seconds=reevaluation_period_seconds,
            tracer=tracer, trace_log=trace_log)
        with tracer.span("controller.restore.load_snapshot",
                         seq=base_seq) as load_span:
            if state is not None:
                codec.apply_state(controller, journal, state)
            load_span.set("instances", len(controller.registry))
        tail = [record for record in records if record.seq > base_seq]
        with tracer.span("controller.restore.replay_wal",
                         records=len(tail)):
            _replay(controller, journal, tail)
        journal.attach(controller, resume=True)
        elapsed = _time.perf_counter() - start
        report = RecoveryReport(
            directory=directory,
            snapshot_path=snapshot[2] if snapshot else None,
            snapshot_seq=base_seq,
            records_replayed=len(tail),
            last_seq=records[-1].seq if records else base_seq,
            recovery_seconds=elapsed,
            skipped_snapshots=skipped)
        journal.record_recovered({
            "records_replayed": report.records_replayed,
            "snapshot_seq": report.snapshot_seq,
            "recovery_seconds": elapsed})
        controller.metrics.report("controller.recovery_seconds",
                                  controller.now, elapsed)
        if reevaluate:
            report.reevaluation_changes = controller.reevaluate()
        controller.last_recovery = report
        span.set("records_replayed", report.records_replayed)
        span.set("recovery_seconds", elapsed)
    return controller


def _base_state(directory: str, snapshot, records: list[WalRecord],
                skipped: list[str]):
    """Choose the recovery base: ``(base_seq, cluster, state-or-None)``."""
    if snapshot is not None:
        base_seq, state, _path = snapshot
        if records and records[0].seq > base_seq + 1:
            raise WalCorruptionError(
                f"{directory}: WAL starts at seq {records[0].seq} but the "
                f"newest valid snapshot covers only up to {base_seq}")
        return base_seq, codec.cluster_from_topology(state["topology"]), \
            state
    if not records:
        if skipped:
            raise SnapshotCorruptionError(
                f"{directory}: every snapshot is corrupt and the WAL is "
                f"empty — no valid state remains")
        raise RecoveryError(f"{directory}: nothing to restore")
    if records[0].seq != 1:
        raise SnapshotCorruptionError(
            f"{directory}: WAL was compacted to seq {records[0].seq} but "
            f"no snapshot verifies — the base state is gone")
    genesis = records[0]
    if genesis.kind != "genesis":
        raise RecoveryError(
            f"{directory}: first WAL record is {genesis.kind!r}, "
            f"expected genesis")
    return 1, codec.cluster_from_topology(genesis.data["topology"]), None


def _replay(controller: AdaptationController, journal: DurabilityJournal,
            tail: list[WalRecord]) -> None:
    """Re-apply the WAL tail with the optimizer held inert."""
    real_policy = controller.policy
    controller.policy = _ReplayPolicy()
    try:
        for record in tail:
            controller.cluster.kernel.advance_to(record.time)
            _apply_record(controller, journal, record)
    finally:
        controller.policy = real_policy


def _apply_record(controller: AdaptationController,
                  journal: DurabilityJournal, record: WalRecord) -> None:
    kind, data = record.kind, record.data
    registry = controller.registry
    if kind == "register":
        instance = controller.register_app(
            str(data["app_name"]), resume_key=data.get("resume_key"))
        if instance.key != data["key"]:
            raise RecoveryError(
                f"replay diverged: register produced {instance.key!r}, "
                f"log says {data['key']!r} (seq {record.seq})")
    elif kind == "adopt":
        # A federation handoff re-admitted the instance under its
        # original key (see AdaptationController.adopt_app): rebuild it
        # with the exact logged id — register_app would mint a new one.
        instance = controller.adopt_app(str(data["app_name"]),
                                        int(data["instance_id"]))
        if instance.key != data["key"]:
            raise RecoveryError(
                f"replay diverged: adopt produced {instance.key!r}, "
                f"log says {data['key']!r} (seq {record.seq})")
    elif kind == "setup_bundle":
        instance = registry.instance(str(data["key"]))
        rsl = str(data["rsl"])
        registry.add_bundle(instance, build_bundle(rsl))
        journal.note_bundle(instance.key, str(data["bundle_name"]), rsl)
    elif kind == "apply":
        instance = registry.instance(str(data["key"]))
        state = instance.bundle_state(str(data["bundle_name"]))
        candidate = codec.candidate_from_dict(state, data)
        before = data.get("objective_before")
        controller.apply_candidate(
            instance, state, candidate, reason=str(data["reason"]),
            objective_before=math.inf if before is None else float(before))
        replayed = controller.decision_log[-1].objective_after
        logged = data.get("objective_after")
        if logged is not None and abs(replayed - float(logged)) > 1e-9:
            raise RecoveryError(
                f"replay diverged at seq {record.seq}: objective "
                f"{replayed!r} != logged {logged!r} for "
                f"{instance.key}.{state.bundle.bundle_name}")
    elif kind == "unconfigured":
        instance = registry.instance(str(data["key"]))
        state = instance.bundle_state(str(data["bundle_name"]))
        if state.chosen is not None:
            state.chosen.allocation.release()
            state.chosen = None
            controller.view.remove(instance.key)
    elif kind == "release":
        instance = registry.instance(str(data["key"]))
        if data["kind"] == "evicted":
            controller.evict_app(instance, reason=str(data["detail"]))
        else:
            controller.end_app(instance)
        journal.forget_app(instance.key)
    elif kind == "model":
        instance = registry.instance(str(data["key"]))
        model = journal.resolve_model(str(data["model_name"]))
        instance.models[str(data["model_key"])] = model
        journal.note_model(instance.key, str(data["model_key"]),
                           str(data["model_name"]))
        controller._engine.invalidate()
    elif kind == "node_failure":
        _replay_node_failure(controller, str(data["hostname"]))
    elif kind == "node_restored":
        controller.cluster.node(str(data["hostname"])).restore()
        controller.metrics.report("controller.node_restorations",
                                  controller.now, 1.0)
    elif kind == "term":
        # A fencing-term transition: restore the highest term this
        # controller ever served under so a restarted (possibly deposed)
        # primary can compare itself against the shared fencing record.
        controller.term = max(controller.term, int(data["term"]))
    elif kind in ("genesis", "lease_expired", "recovered",
                  "reevaluation_batch"):
        pass  # audit-only records: no state to re-apply
    else:
        raise RecoveryError(
            f"unknown WAL record kind {kind!r} (seq {record.seq})")


def _replay_node_failure(controller: AdaptationController,
                         hostname: str) -> None:
    """The displacement half of ``handle_node_failure``.

    The reconfiguration half arrives as subsequent ``apply`` records, so
    replay only fails the node and strips the placements it carried.
    """
    controller.cluster.node(hostname).fail()
    for instance in controller.registry.instances():
        for state in instance.bundles.values():
            chosen = state.chosen
            if chosen is None or \
                    hostname not in chosen.assignment.hostnames():
                continue
            chosen.allocation.release()
            state.chosen = None
            controller.view.remove(instance.key)
    controller.metrics.report("controller.node_failures", controller.now,
                              1.0)
