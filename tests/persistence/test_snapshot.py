"""Snapshot envelope integrity and newest-valid-wins selection."""

import json
import os

import pytest

from repro.errors import SnapshotCorruptionError
from repro.persistence import (
    latest_snapshot,
    read_snapshot,
    snapshot_files,
    write_snapshot,
)
from repro.persistence.snapshot import KEEP_SNAPSHOTS, prune_snapshots

STATE = {"time": 3.0, "instances": [{"app_name": "App", "id": 1}]}


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = write_snapshot(str(tmp_path), 42, STATE)
        assert os.path.basename(path) == "snapshot-000000000042.json"
        last_seq, state = read_snapshot(path)
        assert last_seq == 42
        assert state == STATE

    def test_no_temp_file_left_behind(self, tmp_path):
        write_snapshot(str(tmp_path), 1, STATE)
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]

    def test_files_listed_newest_first(self, tmp_path):
        for seq in (5, 90, 17):
            write_snapshot(str(tmp_path), seq, STATE)
        names = [os.path.basename(p) for p in snapshot_files(str(tmp_path))]
        assert names == ["snapshot-000000000090.json",
                         "snapshot-000000000017.json",
                         "snapshot-000000000005.json"]


class TestRetention:
    def test_prune_keeps_the_newest_generations(self, tmp_path):
        for seq in (5, 90, 17, 3):
            write_snapshot(str(tmp_path), seq, STATE)
        kept = prune_snapshots(str(tmp_path))
        assert KEEP_SNAPSHOTS == 2
        assert [os.path.basename(p) for p in kept] == [
            "snapshot-000000000090.json", "snapshot-000000000017.json"]
        assert snapshot_files(str(tmp_path)) == kept

    def test_prune_within_the_bound_deletes_nothing(self, tmp_path):
        path = write_snapshot(str(tmp_path), 7, STATE)
        assert prune_snapshots(str(tmp_path)) == [path]
        assert snapshot_files(str(tmp_path)) == [path]


class TestCorruption:
    def test_checksum_mismatch_raises(self, tmp_path):
        path = write_snapshot(str(tmp_path), 1, STATE)
        with open(path) as handle:
            envelope = json.load(handle)
        envelope["state"] = envelope["state"].replace("App", "Bpp")
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        with pytest.raises(SnapshotCorruptionError, match="checksum"):
            read_snapshot(path)

    def test_truncated_file_raises(self, tmp_path):
        path = write_snapshot(str(tmp_path), 1, STATE)
        with open(path, "rb") as handle:
            raw = handle.read()
        with open(path, "wb") as handle:
            handle.write(raw[:len(raw) // 2])
        with pytest.raises(SnapshotCorruptionError, match="unreadable"):
            read_snapshot(path)

    def test_empty_file_raises(self, tmp_path):
        path = str(tmp_path / "snapshot-000000000001.json")
        with open(path, "w"):
            pass
        with pytest.raises(SnapshotCorruptionError):
            read_snapshot(path)

    def test_unknown_format_raises(self, tmp_path):
        path = str(tmp_path / "snapshot-000000000001.json")
        with open(path, "w") as handle:
            json.dump({"format": 99, "state": "{}"}, handle)
        with pytest.raises(SnapshotCorruptionError, match="format"):
            read_snapshot(path)


class TestLatestSnapshot:
    def test_newest_valid_wins(self, tmp_path):
        write_snapshot(str(tmp_path), 10, {"gen": "old"})
        write_snapshot(str(tmp_path), 20, {"gen": "new"})
        last_seq, state, path = latest_snapshot(str(tmp_path))
        assert last_seq == 20
        assert state == {"gen": "new"}
        assert path.endswith("snapshot-000000000020.json")

    def test_corrupt_newest_falls_back_to_older(self, tmp_path):
        write_snapshot(str(tmp_path), 10, {"gen": "old"})
        newest = write_snapshot(str(tmp_path), 20, {"gen": "new"})
        with open(newest, "w") as handle:
            handle.write("{not json")
        skipped = []
        last_seq, state, _path = latest_snapshot(str(tmp_path),
                                                 skipped=skipped)
        assert last_seq == 10
        assert state == {"gen": "old"}
        assert skipped == [newest]

    def test_all_corrupt_returns_none(self, tmp_path):
        newest = write_snapshot(str(tmp_path), 20, {"gen": "new"})
        with open(newest, "w"):
            pass
        skipped = []
        assert latest_snapshot(str(tmp_path), skipped=skipped) is None
        assert skipped == [newest]

    def test_empty_directory_returns_none(self, tmp_path):
        assert latest_snapshot(str(tmp_path)) is None
