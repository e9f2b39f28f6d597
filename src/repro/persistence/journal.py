"""The controller-facing durability surface: journal + snapshot cadence.

:class:`DurabilityJournal` sits between the
:class:`~repro.controller.controller.AdaptationController` and the on-disk
log: the controller calls ``record_*`` as each state-changing event
*completes in memory*, the journal frames it into the WAL, and — at
operation boundaries only (:meth:`checkpoint_if_due`) — folds the log into
a snapshot and compacts.  The log holds only what replay applies, plus
the ``genesis`` topology: events are the flight recorder's, counts the
metrics'.  Snapshots never run mid-operation: a snapshot's
``last_seq`` asserts that the captured state reflects *every* record up
to it, which is only true between operations.

The journal also keeps the one map live objects cannot answer: the
registered model *name* per explicit performance model — models are
opaque callables, so durable controllers register them by name against a
``model_registry`` the operator supplies again at restore.

Telemetry: every append bumps ``controller.wal.appends`` and
``controller.wal.bytes``; every snapshot bumps ``controller.snapshots``.
"""

from __future__ import annotations

import os
from time import perf_counter as _perf_counter
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.obs.flightrec import EVENT_WAL_APPEND
from repro.controller.registry import AppInstance
from repro.errors import ControllerError
from repro.persistence import codec
from repro.persistence.crash import CrashSchedule
from repro.persistence.snapshot import (prune_snapshots, snapshot_files,
                                       write_snapshot)
from repro.persistence.wal import WriteAheadLog
from repro.prediction.models import PerformanceModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.controller.controller import AdaptationController, Move

__all__ = ["DurabilityJournal", "WAL_FILENAME"]

WAL_FILENAME = "wal.log"


class DurabilityJournal:
    """Owns one directory of durability state (``wal.log`` + snapshots).

    ``snapshot_every`` — appends between snapshot checkpoints (0 disables
    automatic snapshots; :meth:`snapshot_now` still works).
    Snapshot retention is :data:`~repro.persistence.snapshot.KEEP_SNAPSHOTS`
    generations; the WAL is compacted to the oldest one kept.
    ``model_registry`` — name → :class:`PerformanceModel` used both to
    journal explicit models by name and to resolve them at restore.
    """

    def __init__(self, directory: str,
                 snapshot_every: int = 64,
                 fsync: str = "always",
                 crash_schedule: CrashSchedule | None = None,
                 model_registry: Mapping[str, PerformanceModel]
                 | None = None):
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.snapshot_every = snapshot_every
        self.model_registry = dict(model_registry or {})
        self.wal = WriteAheadLog(os.path.join(directory, WAL_FILENAME),
                                 fsync=fsync,
                                 crash_schedule=crash_schedule)
        self.controller: "AdaptationController | None" = None
        self.snapshots_written = 0
        self._append_hist = None   # cached controller.wal.append_seconds
        self._appends_since_snapshot = 0
        self._model_names: dict[str, dict[str, str]] = {}
        self._append_observers: list[Any] = []
        self._snapshot_observers: list[Any] = []

    # -- wiring ---------------------------------------------------------------

    def attach(self, controller: "AdaptationController",
               resume: bool = False) -> "DurabilityJournal":
        """Wire this journal into a controller's mutation paths.

        A fresh journal (``resume=False``) requires an empty controller —
        there is no history to journal for pre-existing state — and
        writes the genesis record (the cluster topology).  Recovery
        attaches with ``resume=True`` after rebuilding state from disk.
        """
        if self.controller is not None:
            raise ControllerError("journal already attached")
        if not resume:
            if len(controller.registry) != 0 or self.wal.last_seq \
                    or snapshot_files(self.directory):
                raise ControllerError(
                    "attach() needs an empty controller and an empty "
                    "durability directory; use "
                    "AdaptationController.restore() for existing state")
        self.controller = controller
        controller.journal = self
        if not resume:
            self.append("genesis", {
                "topology": codec.topology_to_dict(controller.cluster)})
        return self

    def close(self) -> None:
        if self.controller is not None:
            self.controller.journal = None
            self.controller = None
        self.wal.close()

    # -- replication hooks ----------------------------------------------------

    def add_append_observer(self, observer: Any) -> None:
        """Call ``observer(record)`` after every durable append.

        This is the WAL-shipping tap: the record is already on this
        journal's disk when the observer runs, so shipping it cannot get
        ahead of local durability.  Observers run on the appending thread
        (under the controller lock for server-driven mutations) and must
        not raise — :class:`~repro.persistence.replication.ReplicationPrimary`
        converts ship failures into dropped standby links.
        """
        self._append_observers.append(observer)

    def add_snapshot_observer(self, observer: Any) -> None:
        """Call ``observer(last_seq, state)`` after every snapshot."""
        self._snapshot_observers.append(observer)

    # -- model-name bookkeeping ------------------------------------------------

    def note_model(self, app_key: str, model_key: str,
                   model_name: str) -> None:
        self._model_names.setdefault(app_key, {})[model_key] = model_name

    def model_names_for(self, app_key: str) -> dict[str, str]:
        return dict(self._model_names.get(app_key, {}))

    def resolve_model(self, model_name: str) -> PerformanceModel:
        try:
            return self.model_registry[model_name]
        except KeyError:
            raise ControllerError(
                f"model {model_name!r} is not in the journal's "
                f"model_registry; pass it to restore()") from None

    def forget_app(self, app_key: str) -> None:
        self._model_names.pop(app_key, None)

    # -- the append path ------------------------------------------------------

    def append(self, kind: str, data: dict[str, Any]) -> None:
        controller = self.controller
        if controller is None:
            raise ControllerError("journal is not attached")
        before = self.wal.bytes_written
        started = _perf_counter()
        record = self.wal.append(kind, controller.now, data)
        elapsed = _perf_counter() - started
        for observer in self._append_observers:
            observer(record)
        self._appends_since_snapshot += 1
        now = controller.now
        controller.metrics.increment("controller.wal.appends", now)
        controller.metrics.increment("controller.wal.bytes", now,
                                     amount=float(self.wal.bytes_written
                                                  - before))
        appended = self.wal.bytes_written - before
        # The append+fsync distribution is the single most load-bearing
        # latency in the durable configuration — every admission waits on
        # it — so it stays always-on, alongside a flight-ring breadcrumb.
        hist = self._append_hist
        if hist is None:
            hist = self._append_hist = controller.metrics.histogram(
                "controller.wal.append_seconds")
        hist.observe(elapsed)
        controller.flight_recorder.record(
            EVENT_WAL_APPEND, record=kind, bytes=appended,
            seconds=round(elapsed, 6))

    # -- event records (called from the controller/server) --------------------

    def record_register(self, instance: AppInstance, resumed: bool,
                        resume_key: str | None) -> None:
        self.append("register", {
            "app_name": instance.app_name, "key": instance.key,
            "resumed": resumed, "resume_key": resume_key})

    def record_setup_bundle(self, app_key: str, bundle_name: str,
                            rsl_text: str) -> None:
        self.append("setup_bundle", {
            "key": app_key, "bundle_name": bundle_name, "rsl": rsl_text})

    def record_commit(self, moves: Sequence[Move], reason: str,
                      objective_before: float,
                      objective_after: float) -> None:
        """One decision: an ``apply`` record for a single move, one
        ``exchange`` record whose ``moves`` are the per-move payloads for
        several — replay re-applies all of them or none."""
        payloads = []
        for instance, state, candidate in moves:
            data = codec.candidate_to_dict(candidate)
            data.update({
                "key": instance.key,
                "bundle_name": state.bundle.bundle_name,
                "reason": reason,
                "objective_before": _finite(objective_before),
                "objective_after": objective_after,
            })
            payloads.append(data)
        if len(payloads) == 1:
            self.append("apply", payloads[0])
        else:
            self.append("exchange", {"moves": payloads})

    def record_release(self, app_key: str, kind: str, detail: str) -> None:
        self.append("release", {
            "key": app_key, "kind": kind, "detail": detail})
        self.forget_app(app_key)

    def record_model(self, app_key: str, model_key: str,
                     model_name: str) -> None:
        self.note_model(app_key, model_key, model_name)
        self.append("model", {
            "key": app_key, "model_key": model_key,
            "model_name": model_name})

    def record_node_failure(self, hostname: str) -> None:
        self.append("node_failure", {"hostname": hostname})

    def record_node_restored(self, hostname: str) -> None:
        self.append("node_restored", {"hostname": hostname})

    def record_term(self, term: int, holder: str) -> None:
        """Journal a fencing-term transition (election or first lease).

        Replay restores ``controller.term`` from these, so a restarted
        server knows the highest term it ever served under and can spot
        that the fencing record moved on without it.
        """
        self.append("term", {"term": int(term), "holder": holder})

    # -- snapshots ------------------------------------------------------------

    def checkpoint_if_due(self) -> bool:
        """Snapshot when enough appends accumulated (operation boundary).

        The controller calls this at the *end* of its public mutating
        operations, never mid-flight, so the captured state is always
        consistent with the log position.
        """
        if self.snapshot_every <= 0:
            return False
        if self._appends_since_snapshot < self.snapshot_every:
            return False
        self.snapshot_now()
        return True

    def snapshot_now(self) -> str:
        """Write a snapshot, prune old generations, compact the WAL."""
        controller = self.controller
        if controller is None:
            raise ControllerError("journal is not attached")
        if self.wal.first_seq is None:
            raise ControllerError("cannot snapshot an empty log")
        last_seq = self.wal.last_seq
        state = codec.controller_state(controller, self)
        path = write_snapshot(self.directory, last_seq, state)
        self.snapshots_written += 1
        self._appends_since_snapshot = 0
        controller.metrics.increment("controller.snapshots",
                                     controller.now)
        retained = prune_snapshots(self.directory)
        # Compact to the *oldest* retained snapshot: its state plus the
        # remaining tail can always rebuild, even if newer files rot.
        oldest_seq = min(_snapshot_seq(p) for p in retained)
        self.wal.compact(oldest_seq + 1)
        for observer in self._snapshot_observers:
            observer(last_seq, state)
        return path


def _snapshot_seq(path: str) -> int:
    name = os.path.basename(path)
    return int(name[len("snapshot-"):-len(".json")])


def _finite(value: float) -> float | None:
    """``math.inf`` (the no-prior-objective sentinel) is not strict JSON."""
    import math
    return None if value is None or math.isinf(value) else value
