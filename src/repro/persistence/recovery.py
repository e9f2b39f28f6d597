"""Crash recovery: rebuild a controller from its durability directory.

:func:`restore_controller` (surfaced as
``AdaptationController.restore(path)``) performs the classic ARIES-shaped
sequence, adapted to a result-sourced log:

1. **Load** the newest snapshot that verifies (older generations are the
   fallback when the newest is corrupt), rebuilding registry, bundles,
   allocations, view placements and namespace, then re-checking the
   snapshot's own digest.
2. **Replay** the WAL tail deterministically.  The log records decision
   *results* (concrete candidates), so replay never re-runs the
   optimizer: the policy is swapped for a no-op, and the flight
   recorder, metrics and decision-trace log for throwaway ones, while
   each record is re-applied, at its original simulated time and through
   the controller's own state edits, and every ``apply`` or ``exchange``
   record's recomputed objective is compared against the logged one — a
   mismatch means replay is not reproducing history and recovery stops
   (:class:`~repro.errors.RecoveryError`).
3. **Resume**: the journal re-attaches, appending nothing (the
   :class:`RecoveryReport`, the ``controller.recovery_seconds`` metric
   and the ``controller.restore`` span chain record the restore).

Events that the crash interrupted *mid-operation* (e.g. a re-evaluation
sweep half-applied) are recovered up to their last durable record; a
``controller.reevaluate()`` after the restore reconverges the remainder,
because the policy's decisions depend only on current state.
"""

from __future__ import annotations

import math
import time as _time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.cluster.topology import Cluster
from repro.controller.controller import AdaptationController, DecisionPolicy
from repro.controller.friction import FrictionPolicy
from repro.controller.objective import Objective
from repro.errors import (
    RecoveryError,
    SnapshotCorruptionError,
    WalCorruptionError,
)
from repro.metrics import MetricInterface
from repro.obs.flightrec import FlightRecorder
from repro.obs.trace import NULL_TRACER, DecisionTraceLog
from repro.persistence import codec
from repro.persistence.crash import CrashSchedule
from repro.persistence.journal import DurabilityJournal
from repro.persistence.snapshot import latest_snapshot, snapshot_files
from repro.persistence.wal import WalRecord
from repro.prediction.models import PerformanceModel
from repro.rsl import build_bundle

__all__ = ["RecoveryReport", "restore_controller", "load_directory",
           "apply_record"]


@dataclass
class RecoveryReport:
    """What one :func:`restore_controller` run did, for logs and CI."""

    directory: str
    snapshot_path: str | None
    snapshot_seq: int
    records_replayed: int
    last_seq: int
    recovery_seconds: float = field(init=False, default=0.0)
    skipped_snapshots: list[str] = field(default_factory=list)


class _ReplayPolicy(DecisionPolicy):
    """Inert stand-in while the WAL tail is re-applied.

    Replay re-applies recorded *results*; any policy-driven optimization
    during that window would double-decide.  Releases still flow through
    ``policy.reevaluate`` on the controller's shared paths, so the no-op
    must answer, not raise.
    """

    def configure_new_bundle(self, controller, instance, state,
                             reason="initial") -> None:
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
        reevaluation_period_seconds: float = 30.0,
        tracer=None,
        snapshot_every: int = 64,
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
    with tracer.span("controller.restore", directory=directory) as span, \
            ExitStack() as on_error:
        with tracer.span("controller.restore.read") as read_span:
            journal = DurabilityJournal(
                directory, snapshot_every=snapshot_every, fsync=fsync,
                crash_schedule=crash_schedule, model_registry=model_registry)
            # A restore that fails leaves no open WAL handle behind.
            on_error.callback(journal.close)
            read = _read(directory, journal)
            read_span.set("records", len(read[0]))
        loaded = _load(
            directory, journal, read,
            lambda cluster: AdaptationController(
                cluster, metrics=metrics, objective=objective,
                policy=policy, friction_policy=friction_policy,
                reevaluation_period_seconds=reevaluation_period_seconds,
                tracer=tracer),
            tracer)
        if loaded is None:
            if snapshot_files(directory):
                raise SnapshotCorruptionError(
                    f"{directory}: every snapshot is corrupt and the WAL "
                    f"is empty — no valid state remains")
            raise RecoveryError(f"{directory}: nothing to restore")
        controller, report = loaded
        journal.attach(controller, resume=True)
        on_error.pop_all()
        elapsed = _time.perf_counter() - start
        report.recovery_seconds = elapsed
        controller.metrics.report("controller.recovery_seconds",
                                  controller.now, elapsed)
        controller.last_recovery = report
        span.set("records_replayed", report.records_replayed)
        span.set("recovery_seconds", elapsed)
    return controller


def load_directory(directory: str, journal: DurabilityJournal,
                   build: Callable[[Cluster], AdaptationController],
                   ) -> tuple[AdaptationController, RecoveryReport] | None:
    """Base plus tail: the state ``directory`` holds, in a new controller.

    Chooses the newest snapshot that verifies (or the genesis record),
    builds the controller with ``build(cluster)``, loads the snapshot
    into it and applies every later WAL record.  Returns ``None`` when
    the directory holds no WAL record and no snapshot that verifies.  The
    report's ``recovery_seconds`` is left at zero for the caller.
    """
    return _load(directory, journal, _read(directory, journal), build,
                 NULL_TRACER)


def _read(directory: str, journal: DurabilityJournal):
    """``(records, snapshot, skipped)``: the journal's WAL records, the
    newest snapshot that verifies, and the paths of those that did not."""
    skipped: list[str] = []
    snapshot = latest_snapshot(directory, skipped=skipped)
    return journal.wal.records(), snapshot, skipped


def _load(directory: str, journal: DurabilityJournal, read,
          build: Callable[[Cluster], AdaptationController], tracer,
          ) -> tuple[AdaptationController, RecoveryReport] | None:
    """:func:`load_directory` from what :func:`_read` returned; the
    topology build is a ``controller.restore.topology`` span of
    ``tracer``, loading and replay spans of the controller's tracer."""
    records, snapshot, skipped = read
    if snapshot is None and not records:
        return None
    base_seq, topology, state = _base_state(directory, snapshot, records)
    with tracer.span("controller.restore.topology"):
        cluster = codec.cluster_from_topology(topology)
    controller = build(cluster)
    with controller.tracer.span("controller.restore.load_snapshot",
                                seq=base_seq) as load_span:
        if state is not None:
            codec.apply_state(controller, journal, state)
        load_span.set("instances", len(controller.registry))
    tail = [record for record in records if record.seq > base_seq]
    with controller.tracer.span("controller.restore.replay_wal",
                                records=len(tail)):
        # The tail rebuilds the recovered baseline, as the snapshot load
        # does: the events, metric samples and traces its operations
        # emit again are not live history, so they go to throwaway
        # sinks, and a restore's history does not depend on where the
        # last snapshot fell.
        live = (controller.policy, controller.flight_recorder,
                controller.metrics, controller.trace_log)
        (controller.policy, controller.flight_recorder, controller.metrics,
         controller.trace_log) = (_ReplayPolicy(), FlightRecorder(),
                                  MetricInterface(), DecisionTraceLog())
        try:
            for record in tail:
                apply_record(controller, journal, record)
        finally:
            (controller.policy, controller.flight_recorder,
             controller.metrics, controller.trace_log) = live
    return controller, RecoveryReport(
        directory=directory,
        snapshot_path=snapshot[2] if snapshot else None,
        snapshot_seq=base_seq,
        records_replayed=len(tail),
        last_seq=records[-1].seq if records else base_seq,
        skipped_snapshots=skipped)


def _base_state(directory: str, snapshot, records: list[WalRecord]):
    """Choose the recovery base: ``(base_seq, topology, state-or-None)``."""
    if snapshot is not None:
        base_seq, state, _path = snapshot
        if records and records[0].seq > base_seq + 1:
            raise WalCorruptionError(
                f"{directory}: WAL starts at seq {records[0].seq} but the "
                f"newest valid snapshot covers only up to {base_seq}")
        return base_seq, state.get("topology"), state
    if records[0].seq != 1:
        raise SnapshotCorruptionError(
            f"{directory}: WAL was compacted to seq {records[0].seq} but "
            f"no snapshot verifies — the base state is gone")
    genesis = records[0]
    if genesis.kind != "genesis":
        raise RecoveryError(
            f"{directory}: first WAL record is {genesis.kind!r}, "
            f"expected genesis")
    return 1, genesis.data.get("topology"), None


def apply_record(controller: AdaptationController,
                 journal: DurabilityJournal, record: WalRecord) -> None:
    """Re-apply one logged record at its original simulated time.

    Every arm calls the controller's own operation or state edit with
    the logged result in place of a decision; none edits state itself.
    """
    controller.cluster.kernel.advance_to(record.time)
    kind, data = record.kind, record.data
    registry = controller.registry
    if kind == "register":
        instance = controller.register_app(
            str(data["app_name"]), resume_key=data.get("resume_key"))
        if instance.key != data["key"]:
            raise RecoveryError(
                f"replay diverged: register produced {instance.key!r}, "
                f"log says {data['key']!r} (seq {record.seq})")
    elif kind == "setup_bundle":
        instance = registry.instance(str(data["key"]))
        controller.add_bundle(instance, build_bundle(str(data["rsl"])))
    elif kind in ("apply", "exchange"):
        # One decision, one commit: an exchange's moves land together.
        payloads = data["moves"] if kind == "exchange" else [data]
        moves = []
        for payload in payloads:
            instance = registry.instance(str(payload["key"]))
            state = instance.bundle_state(str(payload["bundle_name"]))
            moves.append((instance, state,
                          codec.candidate_from_dict(state, payload)))
        first = payloads[0]
        before = first.get("objective_before")
        replayed = controller.commit(
            moves, reason=str(first["reason"]),
            objective_before=math.inf if before is None else float(before))
        logged = first.get("objective_after")
        if logged is not None and abs(replayed - float(logged)) > 1e-9:
            bundles = ", ".join(f"{instance.key}.{state.bundle.bundle_name}"
                                for instance, state, _ in moves)
            raise RecoveryError(
                f"replay diverged at seq {record.seq}: objective "
                f"{replayed!r} != logged {logged!r} for {bundles}")
    elif kind == "release":
        instance = registry.instance(str(data["key"]))
        if data["kind"] == "evicted":
            controller.evict_app(instance, reason=str(data["detail"]))
        else:
            controller.end_app(instance)
        journal.forget_app(instance.key)
    elif kind == "model":
        instance = registry.instance(str(data["key"]))
        model_key = codec.bundle_model_key(data["model_key"],
                                           instance.bundles)
        model_name = str(data["model_name"])
        controller.attach_model(instance, model_key,
                                journal.resolve_model(model_name))
        journal.note_model(instance.key, model_key, model_name)
    elif kind == "node_failure":
        # The displacement alone: the re-placements follow as ``apply``
        # records.
        controller.fail_node(str(data["hostname"]))
    elif kind == "node_restored":
        controller.handle_node_restored(str(data["hostname"]))
    elif kind == "term":
        # A fencing-term transition: restore the highest term this
        # controller ever served under so a restarted (possibly deposed)
        # primary can compare itself against the shared fencing record.
        controller.note_term(max(controller.term, int(data["term"])))
    elif kind in ("genesis", "lease_expired", "recovered",
                  "reevaluation_batch"):
        # Audit-only records: no state to re-apply.  Of these only
        # ``genesis`` is still written; older logs hold the others.
        pass
    else:
        raise RecoveryError(
            f"unknown WAL record kind {kind!r} (seq {record.seq})")
