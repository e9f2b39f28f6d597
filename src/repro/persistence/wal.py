"""Append-only write-ahead log with framed, checksummed JSON records.

One record per line::

    <length:8 hex> <crc32:8 hex> <payload JSON>\\n

``length`` is the byte count of the UTF-8 payload, ``crc32`` its checksum
(:func:`zlib.crc32`).  The payload itself carries a contiguous sequence
number, the simulation timestamp, the event kind, and the event data::

    {"seq": 7, "t": 12.5, "kind": "apply", "data": {...}}

The framing makes corruption *classifiable* on open:

* a bad final record with nothing valid after it is a **torn tail** — the
  normal artifact of a crash mid-append — and is truncated away;
* a bad record **followed by** a well-formed one, or a gap in the
  sequence numbers, means the middle of the log rotted: recovery must not
  guess, so :class:`~repro.errors.WalCorruptionError` is raised.

Appends are a single ``write()`` of the full frame followed by ``flush``
and (policy-permitting) ``fsync`` — the strongest atomicity a regular
file offers.  Compaction (after a snapshot) rewrites the retained suffix
to a temporary file and atomically renames it into place, copying the
kept records' frames verbatim: a record is encoded once, on append.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.errors import WalCorruptionError
from repro.persistence.crash import CrashPoint, CrashSchedule, SimulatedCrash

__all__ = ["WalRecord", "WriteAheadLog", "scan_wal", "encode_record",
           "decode_frame"]

#: ``fsync`` policies: "always" syncs every append (durable against power
#: loss), "never" leaves flushing to the OS (tests, benchmarks).
FSYNC_POLICIES = ("always", "never")

_HEADER_LEN = 18  # "xxxxxxxx xxxxxxxx "


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record."""

    seq: int
    time: float
    kind: str
    data: dict[str, Any]
    #: The framed line, newline included, that a log wrote for this
    #: record or verified on reading it; empty for a record built in
    #: memory.  Compaction and replication copy it instead of encoding.
    frame: bytes = field(default=b"", compare=False, repr=False)


def encode_record(record: WalRecord) -> bytes:
    """Frame one record as a length- and checksum-prefixed line."""
    payload = json.dumps(
        {"seq": record.seq, "t": record.time, "kind": record.kind,
         "data": record.data},
        sort_keys=True, separators=(",", ":")).encode("utf-8")
    header = f"{len(payload):08x} {zlib.crc32(payload):08x} "
    return header.encode("ascii") + payload + b"\n"


def _decode_line(line: bytes) -> WalRecord | None:
    """Decode one framed line; ``None`` when the frame does not verify."""
    if len(line) < _HEADER_LEN + 2:  # header + "{}" at minimum
        return None
    header, payload = line[:_HEADER_LEN], line[_HEADER_LEN:]
    try:
        length = int(header[0:8], 16)
        crc = int(header[9:17], 16)
    except ValueError:
        return None
    if header[8:9] != b" " or header[17:18] != b" ":
        return None
    if len(payload) != length or zlib.crc32(payload) != crc:
        return None
    try:
        body = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(body, dict) or not isinstance(body.get("data"), dict):
        return None
    try:
        return WalRecord(seq=int(body["seq"]), time=float(body["t"]),
                         kind=str(body["kind"]), data=body["data"],
                         frame=line + b"\n")
    except (KeyError, TypeError, ValueError):
        return None


def decode_frame(line: bytes) -> WalRecord | None:
    """Decode one framed line (sans newline); ``None`` if it fails to verify.

    This is the replication receive path: a standby re-runs the same
    length/CRC verification over the exact bytes the primary wrote, so a
    frame damaged anywhere between the primary's disk and the standby's
    is rejected rather than applied.
    """
    return _decode_line(line)


def scan_wal(path: str) -> tuple[list[WalRecord], int]:
    """Validate a log file; returns ``(records, valid_byte_count)``.

    ``valid_byte_count`` is the offset up to which the file verified —
    anything beyond it is a torn tail the caller may truncate.  Raises
    :class:`~repro.errors.WalCorruptionError` for mid-file damage (a bad
    record with valid records after it) or sequence-number gaps, which a
    crash cannot produce and truncation cannot fix.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        return [], 0

    records: list[WalRecord] = []
    offset = 0
    valid_bytes = 0
    lines = raw.split(b"\n")
    # split() leaves a trailing "" when the file ends with a newline; a
    # non-empty final element is an unterminated (torn) last line.
    for index, line in enumerate(lines):
        is_last = index == len(lines) - 1
        if is_last and line == b"":
            break
        record = None if is_last else _decode_line(line)
        if not is_last and record is None:
            # A bad record mid-file: torn tail only if *nothing* after it
            # verifies; otherwise the log rotted and cannot be trusted.
            for later in lines[index + 1:]:
                if later and _decode_line(later) is not None:
                    raise WalCorruptionError(
                        f"{path}: corrupt record at byte {offset} with "
                        f"valid records after it")
            break
        if is_last:
            break  # unterminated final line: torn tail
        expected = records[-1].seq + 1 if records else record.seq
        if record.seq != expected:
            raise WalCorruptionError(
                f"{path}: sequence gap — expected seq {expected}, "
                f"found {record.seq}")
        records.append(record)
        offset += len(line) + 1
        valid_bytes = offset
    return records, valid_bytes


class WriteAheadLog:
    """The append/replay handle over one log file.

    ``fsync`` selects the durability policy (see :data:`FSYNC_POLICIES`).
    ``crash_schedule`` injects :class:`SimulatedCrash` at append
    boundaries for the recovery tests.  Opening an existing file
    validates it (:func:`scan_wal`) and truncates any torn tail in place.
    """

    def __init__(self, path: str, fsync: str = "always",
                 crash_schedule: CrashSchedule | None = None):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"unknown fsync policy {fsync!r}")
        self.path = path
        self.fsync = fsync
        self.crash_schedule = crash_schedule
        self._crashed: SimulatedCrash | None = None
        self.append_count = 0
        self.bytes_written = 0
        existing, valid_bytes = scan_wal(path)
        self._records: list[WalRecord] = existing
        # Sequence numbers survive compaction: the next seq continues
        # from the highest ever appended, not from what is still on disk.
        self._last_seq = existing[-1].seq if existing else 0
        try:
            size = os.path.getsize(path)
        except OSError:
            size = 0
        if size > valid_bytes:
            with open(path, "r+b") as handle:
                handle.truncate(valid_bytes)
        self._handle = open(path, "ab")

    @property
    def next_seq(self) -> int:
        return self._last_seq + 1

    @property
    def first_seq(self) -> int | None:
        return self._records[0].seq if self._records else None

    @property
    def last_record(self) -> WalRecord | None:
        return self._records[-1] if self._records else None

    @property
    def last_seq(self) -> int:
        """The newest seq ever appended (0 for a new log), compacted or not."""
        return self._records[-1].seq if self._records else self._last_seq

    def records(self) -> list[WalRecord]:
        return list(self._records)

    def append(self, kind: str, time: float,
               data: dict[str, Any]) -> WalRecord:
        """Durably append one record (the only mutation path).

        The crash schedule, when armed, fires here: before the write, as
        a torn partial write, or after the record is durable.  A crash is
        the death of the whole process, not of one thread: once a point
        has fired, every later append on this handle dies too.  Without
        the latch a concurrent writer could slip a record past the crash
        instant — and, because the fatal append never ran its observers,
        ship the successor of a record that was never shipped, handing
        replicas an unfixable sequence gap.
        """
        if self._crashed is not None:
            raise SimulatedCrash(self._crashed.point,
                                 self._crashed.append_index)
        seq, data = self.next_seq, dict(data)
        frame = encode_record(WalRecord(seq, time, kind, data))
        record = WalRecord(seq, time, kind, data, frame)
        index = self.append_count
        self.append_count += 1
        point = self.crash_schedule.decide(index) \
            if self.crash_schedule is not None else None
        if point is CrashPoint.BEFORE_APPEND:
            raise self._die(point, index)
        if point is CrashPoint.TORN_APPEND:
            torn = frame[:max(1, len(frame) // 2)]
            self._handle.write(torn)
            self._handle.flush()
            os.fsync(self._handle.fileno())
            raise self._die(point, index)
        self._handle.write(frame)
        self._handle.flush()
        if self.fsync == "always":
            os.fsync(self._handle.fileno())
        self._records.append(record)
        self._last_seq = record.seq
        self.bytes_written += len(frame)
        if point is CrashPoint.AFTER_APPEND:
            raise self._die(point, index)
        return record

    def _die(self, point: CrashPoint, index: int) -> SimulatedCrash:
        """Latch the crash and release the handle, as a dead process
        would: every write before it was flushed, so nothing more
        reaches disk."""
        self._crashed = SimulatedCrash(point, index)
        self._handle.close()
        return self._crashed

    def append_record(self, record: WalRecord) -> WalRecord:
        """Durably append an already-sequenced record verbatim.

        The replication apply path: a standby persists the primary's
        records under the primary's sequence numbers instead of minting
        its own.  Contiguity is enforced — a gap means records were lost
        in flight, which truncation cannot fix, so it raises
        :class:`~repro.errors.WalCorruptionError` (the standby reacts by
        re-requesting from its last acknowledged seq).  Any starting seq
        is accepted on an empty log (the standby may have been seeded
        from a snapshot past genesis).  Crash schedules do not apply —
        this is not the decision path.  The record must come from
        :func:`decode_frame`: its verified frame is what gets written, so
        the standby's log is the primary's, byte for byte.
        """
        if self._records and record.seq != self._records[-1].seq + 1:
            raise WalCorruptionError(
                f"{self.path}: replicated record seq {record.seq} does "
                f"not follow {self._records[-1].seq}")
        frame = record.frame
        if not frame:
            raise ValueError(f"record seq {record.seq} carries no frame")
        self._handle.write(frame)
        self._handle.flush()
        if self.fsync == "always":
            os.fsync(self._handle.fileno())
        self._records.append(record)
        self._last_seq = max(self._last_seq, record.seq)
        self.append_count += 1
        self.bytes_written += len(frame)
        return record

    def compact(self, keep_from_seq: int) -> int:
        """Drop records with ``seq < keep_from_seq``; returns bytes freed.

        Writes the retained suffix's frames, verbatim, to ``<path>.tmp``
        and atomically renames it over the log, so a crash
        mid-compaction leaves either the old or the new file — never a
        mix.  The bytes freed are the dropped frames' lengths.
        """
        kept = [r for r in self._records if r.seq >= keep_from_seq]
        if len(kept) == len(self._records):
            return 0
        tmp_path = self.path + ".tmp"
        with open(tmp_path, "wb") as tmp:
            tmp.write(b"".join(record.frame for record in kept))
            tmp.flush()
            os.fsync(tmp.fileno())
        self._handle.close()
        os.replace(tmp_path, self.path)
        _fsync_directory(os.path.dirname(self.path))
        freed = sum(len(record.frame) for record in self._records
                    if record.seq < keep_from_seq)
        self._records = kept
        self._handle = open(self.path, "ab")
        return freed

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def _fsync_directory(directory: str) -> None:
    """Make a rename durable (best effort on platforms that allow it)."""
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)
