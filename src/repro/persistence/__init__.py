"""Durability for the adaptation controller (write-ahead log + snapshots).

The paper's controller keeps every registration, bundle state, and
placement in memory: one crash strands every tuned application.  This
package makes the controller restartable — every state-changing event is
journaled to an append-only write-ahead log (:mod:`repro.persistence.wal`),
periodic snapshots bound replay time (:mod:`repro.persistence.snapshot`),
and :func:`repro.persistence.recovery.restore_controller` (surfaced as
``AdaptationController.restore``) rebuilds an identical controller from
disk, verified against the log's own recorded objectives.

Crash injection for tests lives in :mod:`repro.persistence.crash`: the
process-level analogue of :mod:`repro.api.faults`, killing the controller
at seeded WAL-append boundaries.

Replication (:mod:`repro.persistence.replication`) extends durability
across machines: a primary ships its WAL records — the exact CRC-framed
bytes — to hot standbys, and a term-fenced :class:`FencingStore` decides
who may serve.  See docs/replication.md.
"""

from repro.persistence.crash import (
    CrashPoint,
    ScriptedCrashSchedule,
    SimulatedCrash,
)
from repro.persistence.journal import DurabilityJournal
from repro.persistence.recovery import RecoveryReport, restore_controller
from repro.persistence.replication import (
    FencingRecord,
    FencingStore,
    ReplicationPrimary,
    ReplicationStandby,
)
from repro.persistence.snapshot import (
    latest_snapshot,
    read_snapshot,
    snapshot_files,
    write_snapshot,
)
from repro.persistence.wal import WalRecord, WriteAheadLog, scan_wal

__all__ = [
    "CrashPoint",
    "DurabilityJournal",
    "FencingRecord",
    "FencingStore",
    "RecoveryReport",
    "ReplicationPrimary",
    "ReplicationStandby",
    "ScriptedCrashSchedule",
    "SimulatedCrash",
    "WalRecord",
    "WriteAheadLog",
    "latest_snapshot",
    "read_snapshot",
    "restore_controller",
    "scan_wal",
    "snapshot_files",
    "write_snapshot",
]
