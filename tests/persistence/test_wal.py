"""Write-ahead log framing, corruption classification, and compaction."""

import json
import os
import pathlib
import zlib

import pytest

from repro.errors import WalCorruptionError
from repro.persistence import (
    CrashPoint,
    ScriptedCrashSchedule,
    SimulatedCrash,
    WalRecord,
    WriteAheadLog,
    scan_wal,
)
from repro.persistence.wal import encode_record


def wal_path(tmp_path):
    return str(tmp_path / "wal.log")


def fill(log, count, start=0):
    for index in range(start, start + count):
        log.append("event", float(index), {"n": index})


class TestFraming:
    def test_append_then_reopen_round_trips(self, tmp_path):
        path = wal_path(tmp_path)
        with WriteAheadLog(path, fsync="never") as log:
            log.append("genesis", 0.0, {"hello": "world"})
            log.append("apply", 1.5, {"key": "app.1", "option": "big"})
        records, valid = scan_wal(path)
        assert [r.kind for r in records] == ["genesis", "apply"]
        assert [r.seq for r in records] == [1, 2]
        assert records[1].time == 1.5
        assert records[1].data == {"key": "app.1", "option": "big"}
        assert valid == os.path.getsize(path)

    def test_encoded_frame_is_self_describing(self):
        record = WalRecord(seq=7, time=2.0, kind="x", data={"a": 1})
        frame = encode_record(record)
        assert frame.endswith(b"\n")
        length = int(frame[:8], 16)
        assert length == len(frame) - 18 - 1  # header + newline

    def test_missing_file_scans_empty(self, tmp_path):
        assert scan_wal(str(tmp_path / "absent.log")) == ([], 0)

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(wal_path(tmp_path), fsync="sometimes")


class TestCorruptionClassification:
    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        path = wal_path(tmp_path)
        with WriteAheadLog(path, fsync="never") as log:
            fill(log, 3)
        good_size = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(b"0000002a 1234")  # half a frame, no newline
        log = WriteAheadLog(path, fsync="never")
        assert [r.seq for r in log.records()] == [1, 2, 3]
        assert os.path.getsize(path) == good_size
        log.close()

    def test_torn_final_line_with_newline_is_truncated(self, tmp_path):
        path = wal_path(tmp_path)
        with WriteAheadLog(path, fsync="never") as log:
            fill(log, 2)
        with open(path, "ab") as handle:
            handle.write(b"garbage that is not a frame\n")
        log = WriteAheadLog(path, fsync="never")
        assert len(log.records()) == 2
        log.close()

    def test_midfile_corruption_raises_typed_error(self, tmp_path):
        path = wal_path(tmp_path)
        with WriteAheadLog(path, fsync="never") as log:
            fill(log, 3)
        raw = pathlib.Path(path).read_bytes()
        lines = raw.split(b"\n")
        # Flip a payload byte in the middle record: its CRC now fails,
        # but a valid record follows — that is rot, not a torn tail.
        middle = bytearray(lines[1])
        middle[-1] ^= 0xFF
        lines[1] = bytes(middle)
        with open(path, "wb") as handle:
            handle.write(b"\n".join(lines))
        with pytest.raises(WalCorruptionError, match="valid records after"):
            scan_wal(path)
        with pytest.raises(WalCorruptionError):
            WriteAheadLog(path, fsync="never")

    def test_sequence_gap_raises_typed_error(self, tmp_path):
        path = wal_path(tmp_path)
        frames = [encode_record(WalRecord(seq, 0.0, "e", {}))
                  for seq in (1, 2, 4)]
        with open(path, "wb") as handle:
            handle.write(b"".join(frames))
        with pytest.raises(WalCorruptionError, match="sequence gap"):
            scan_wal(path)

    def test_appending_after_torn_tail_truncation_stays_valid(self, tmp_path):
        path = wal_path(tmp_path)
        with WriteAheadLog(path, fsync="never") as log:
            fill(log, 2)
        with open(path, "ab") as handle:
            handle.write(b"\x00\x01partial")
        with WriteAheadLog(path, fsync="never") as log:
            log.append("next", 9.0, {})
            assert [r.seq for r in log.records()] == [1, 2, 3]
        records, _ = scan_wal(path)
        assert [r.seq for r in records] == [1, 2, 3]


class TestCompaction:
    def test_compact_drops_prefix_and_reports_bytes(self, tmp_path):
        path = wal_path(tmp_path)
        log = WriteAheadLog(path, fsync="never")
        fill(log, 5)
        before = os.path.getsize(path)
        freed = log.compact(keep_from_seq=4)
        assert freed > 0
        assert os.path.getsize(path) == before - freed
        assert [r.seq for r in log.records()] == [4, 5]
        assert log.first_seq == 4
        log.close()

    def test_sequence_numbers_survive_full_compaction(self, tmp_path):
        """Regression: compacting everything away must not reset seq.

        A snapshot at the log head compacts the file to empty; the next
        append must continue the sequence, or recovery's tail filter
        (``seq > snapshot_seq``) would silently skip new records.
        """
        path = wal_path(tmp_path)
        log = WriteAheadLog(path, fsync="never")
        assert log.last_seq == 0
        fill(log, 5)
        assert log.last_seq == 5
        log.compact(keep_from_seq=6)  # drops every record
        assert log.records() == []
        assert log.first_seq is None and log.last_seq == 5
        assert log.next_seq == 6
        record = log.append("later", 9.0, {})
        assert record.seq == 6
        log.close()
        reopened = WriteAheadLog(path, fsync="never")
        assert [r.seq for r in reopened.records()] == [6]
        reopened.close()

    def test_compact_noop_when_nothing_to_drop(self, tmp_path):
        log = WriteAheadLog(wal_path(tmp_path), fsync="never")
        fill(log, 3)
        assert log.compact(keep_from_seq=1) == 0
        assert len(log.records()) == 3
        log.close()

    def test_compacted_bytes_are_pinned(self, tmp_path):
        """Copying the written frames yields the file that re-encoding
        every kept record used to."""
        path = wal_path(tmp_path)
        log = WriteAheadLog(path, fsync="never")
        fill(log, 3)
        assert log.compact(keep_from_seq=2) == 66
        log.close()
        with open(path, "rb") as handle:
            assert handle.read() == (
                b'0000002f 1e593fa9 {"data":{"n":1},"kind":"event",'
                b'"seq":2,"t":1.0}\n'
                b'0000002f 8ea80823 {"data":{"n":2},"kind":"event",'
                b'"seq":3,"t":2.0}\n')

    @pytest.mark.parametrize("reopen", [False, True],
                             ids=["written", "reopened"])
    def test_compaction_copies_lines_verbatim(self, tmp_path, reopen):
        """Lines another encoder wrote (spaced, unsorted, integer times)
        verify on open and survive compaction byte for byte; the bytes
        freed are what the file lost."""
        path = wal_path(tmp_path)
        lines = [foreign_frame({"t": seq, "seq": seq, "kind": "event",
                                "data": {"n": seq}}) for seq in (1, 2, 3, 4)]
        with open(path, "wb") as handle:
            handle.write(b"".join(lines))
        log = WriteAheadLog(path, fsync="never")
        log.append("native", 5.0, {"n": 5})
        if reopen:
            log.close()
            log = WriteAheadLog(path, fsync="never")
        with open(path, "rb") as handle:
            native = handle.read()[len(b"".join(lines)):]
        before = os.path.getsize(path)
        freed = log.compact(keep_from_seq=3)
        assert freed == before - os.path.getsize(path)
        assert freed == len(lines[0]) + len(lines[1])
        with open(path, "rb") as handle:
            assert handle.read() == lines[2] + lines[3] + native
        assert [r.seq for r in log.records()] == [3, 4, 5]
        log.close()


def foreign_frame(body):
    """``body`` framed in a layout ``encode_record`` never writes: spaced
    JSON, keys in the order given."""
    payload = json.dumps(body).encode("utf-8")
    header = f"{len(payload):08x} {zlib.crc32(payload):08x} "
    return header.encode("ascii") + payload + b"\n"


class TestCrashInjection:
    def test_before_append_leaves_no_trace(self, tmp_path):
        path = wal_path(tmp_path)
        schedule = ScriptedCrashSchedule({1: CrashPoint.BEFORE_APPEND})
        log = WriteAheadLog(path, fsync="never", crash_schedule=schedule)
        log.append("a", 0.0, {})
        size_before = os.path.getsize(path)
        with pytest.raises(SimulatedCrash) as excinfo:
            log.append("b", 1.0, {})
        assert excinfo.value.point is CrashPoint.BEFORE_APPEND
        assert excinfo.value.append_index == 1
        log.close()
        assert os.path.getsize(path) == size_before
        records, _ = scan_wal(path)
        assert [r.kind for r in records] == ["a"]

    def test_torn_append_leaves_a_truncatable_tail(self, tmp_path):
        path = wal_path(tmp_path)
        schedule = ScriptedCrashSchedule({1: CrashPoint.TORN_APPEND})
        log = WriteAheadLog(path, fsync="never", crash_schedule=schedule)
        log.append("a", 0.0, {})
        size_before = os.path.getsize(path)
        with pytest.raises(SimulatedCrash):
            log.append("b", 1.0, {"big": "x" * 64})
        log.close()
        assert os.path.getsize(path) > size_before  # partial frame landed
        reopened = WriteAheadLog(path, fsync="never")
        assert [r.kind for r in reopened.records()] == ["a"]
        assert os.path.getsize(path) == size_before  # tail truncated
        reopened.close()

    def test_after_append_persists_the_record(self, tmp_path):
        path = wal_path(tmp_path)
        schedule = ScriptedCrashSchedule({1: CrashPoint.AFTER_APPEND})
        log = WriteAheadLog(path, fsync="never", crash_schedule=schedule)
        log.append("a", 0.0, {})
        with pytest.raises(SimulatedCrash):
            log.append("b", 1.0, {})
        log.close()
        records, _ = scan_wal(path)
        assert [r.kind for r in records] == ["a", "b"]

    def test_crash_kills_the_process_not_one_thread(self, tmp_path):
        path = wal_path(tmp_path)
        schedule = ScriptedCrashSchedule({1: CrashPoint.AFTER_APPEND})
        log = WriteAheadLog(path, fsync="never", crash_schedule=schedule)
        log.append("a", 0.0, {})
        with pytest.raises(SimulatedCrash):
            log.append("b", 1.0, {})
        # A writer racing past the crash instant dies too — the crash
        # models process death, so no later append may land (it would
        # ship the successor of a record that was never shipped).
        with pytest.raises(SimulatedCrash) as excinfo:
            log.append("c", 2.0, {})
        assert excinfo.value.append_index == 1
        # ... and its handle is released, as a dead process's would be.
        assert log._handle.closed
        log.close()
        records, _ = scan_wal(path)
        assert [r.kind for r in records] == ["a", "b"]

    def test_simulated_crash_is_not_a_harmony_error(self):
        from repro.errors import HarmonyError
        crash = SimulatedCrash(CrashPoint.BEFORE_APPEND, 0)
        assert not isinstance(crash, HarmonyError)
