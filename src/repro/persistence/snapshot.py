"""Atomic controller snapshots bounding WAL replay time.

A snapshot file is a small JSON envelope whose ``state`` member is the
*canonical string* encoding of the controller state (see
:mod:`repro.persistence.codec`), checksummed as bytes::

    {"format": 2, "last_seq": 42, "crc": "9a0c31d7", "state": "{...}"}

``last_seq`` is the sequence number of the last WAL record folded into
the state: recovery loads the snapshot and replays records with
``seq > last_seq``.  Writing is write-to-temp + ``fsync`` +
``os.replace`` so a crash mid-snapshot leaves the previous snapshot
untouched.  Corrupt snapshots raise
:class:`~repro.errors.SnapshotCorruptionError`; :func:`latest_snapshot`
falls back to the next older file, so a damaged newest snapshot degrades
to a longer replay rather than a wrong state.
A format-1 file (bundles as RSL text, links as dicts) is intact, not
corrupt: it raises a :class:`~repro.errors.RecoveryError` naming it.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from typing import Any

from repro.errors import RecoveryError, SnapshotCorruptionError
from repro.persistence.wal import _fsync_directory

__all__ = ["write_snapshot", "read_snapshot", "snapshot_files",
           "latest_snapshot", "SNAPSHOT_FORMAT"]

SNAPSHOT_FORMAT = 2

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{12})\.json$")


def _snapshot_name(last_seq: int) -> str:
    return f"snapshot-{last_seq:012d}.json"


def write_snapshot(directory: str, last_seq: int,
                   state: dict[str, Any]) -> str:
    """Atomically write one snapshot; returns its path."""
    os.makedirs(directory, exist_ok=True)
    state_text = json.dumps(state, sort_keys=True, separators=(",", ":"))
    envelope = {
        "format": SNAPSHOT_FORMAT,
        "last_seq": last_seq,
        "crc": f"{zlib.crc32(state_text.encode('utf-8')):08x}",
        "state": state_text,
    }
    path = os.path.join(directory, _snapshot_name(last_seq))
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as tmp:
        json.dump(envelope, tmp)
        tmp.flush()
        os.fsync(tmp.fileno())
    os.replace(tmp_path, path)
    _fsync_directory(directory)
    return path


def read_snapshot(path: str) -> tuple[int, dict[str, Any]]:
    """Load and verify one snapshot; ``(last_seq, state)``.

    Raises :class:`~repro.errors.SnapshotCorruptionError` when the file
    is unreadable, the envelope is malformed, or the checksum mismatches,
    and :class:`~repro.errors.RecoveryError` for an older format.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            envelope = json.load(handle)
    except (OSError, ValueError) as exc:
        raise SnapshotCorruptionError(f"{path}: unreadable snapshot "
                                      f"({exc})") from exc
    version = envelope.get("format") if isinstance(envelope, dict) else None
    if version == 1:
        raise RecoveryError(
            f"{path}: snapshot format 1 (bundles as RSL text, links as "
            f"dicts) is not read by this version, which reads format "
            f"{SNAPSHOT_FORMAT}")
    if version != SNAPSHOT_FORMAT:
        raise SnapshotCorruptionError(f"{path}: unknown snapshot format")
    state_text = envelope.get("state")
    if not isinstance(state_text, str):
        raise SnapshotCorruptionError(f"{path}: missing state body")
    crc = f"{zlib.crc32(state_text.encode('utf-8')):08x}"
    if crc != envelope.get("crc"):
        raise SnapshotCorruptionError(
            f"{path}: checksum mismatch (stored {envelope.get('crc')!r}, "
            f"computed {crc!r})")
    try:
        state = json.loads(state_text)
        last_seq = int(envelope["last_seq"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotCorruptionError(
            f"{path}: malformed snapshot body ({exc})") from exc
    if not isinstance(state, dict):
        raise SnapshotCorruptionError(f"{path}: state is not an object")
    return last_seq, state


def snapshot_files(directory: str) -> list[str]:
    """Snapshot paths in the directory, newest (highest seq) first."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    found = []
    for name in names:
        match = _SNAPSHOT_RE.match(name)
        if match:
            found.append((int(match.group(1)), name))
    return [os.path.join(directory, name)
            for _seq, name in sorted(found, reverse=True)]


def latest_snapshot(directory: str,
                    skipped: list[str] | None = None,
                    ) -> tuple[int, dict[str, Any], str] | None:
    """The newest snapshot that verifies, or ``None``.

    Corrupt files are skipped (recorded in ``skipped`` when given) in
    favor of older ones — never silently loaded; an older format raises.
    """
    for path in snapshot_files(directory):
        try:
            last_seq, state = read_snapshot(path)
        except SnapshotCorruptionError:
            if skipped is not None:
                skipped.append(path)
            continue
        return last_seq, state, path
    return None
