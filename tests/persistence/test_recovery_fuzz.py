"""Fuzz-style durability tests: damaged files never yield wrong state.

The contract under arbitrary tail damage and bit rot is binary —
recovery either succeeds on a *valid prefix* of history (verified by the
replay's own objective checks) or raises a typed corruption error.  It
must never return a controller built from records it could not verify.
"""

import copy
import json
import os
import random
import zlib

import pytest

from repro.cluster import Cluster
from repro.controller import AdaptationController
from repro.errors import (
    HarmonyError,
    RecoveryError,
    RslSemanticError,
    SimulationError,
    SnapshotCorruptionError,
    WalCorruptionError,
)
from repro.persistence import DurabilityJournal, snapshot_files
from repro.persistence.journal import WAL_FILENAME
from repro.persistence.wal import scan_wal

RSL = """
harmonyBundle {name} where {{
    {{small {{node worker {{os linux}} {{seconds 5}} {{memory 16}}}}}}
    {{big {{node worker {{os linux}} {{seconds 3}} {{memory 64}}}}}}}}
"""

TYPED_ERRORS = (WalCorruptionError, SnapshotCorruptionError, RecoveryError)


def build_history(directory, snapshot_every=0):
    """Journal a scripted scenario; returns the live controller digest."""
    controller = AdaptationController(
        Cluster.full_mesh(["n0", "n1", "n2", "n3"], memory_mb=96))
    journal = DurabilityJournal(str(directory), fsync="never",
                                snapshot_every=snapshot_every)
    journal.attach(controller)
    instances = []
    for index in range(3):
        instance = controller.register_app(f"app{index}")
        controller.setup_bundle(instance, RSL.format(name=f"app{index}"))
        instances.append(instance)
    controller.handle_node_failure("n0")
    controller.end_app(instances[1])
    controller.handle_node_restored("n0")
    journal.close()
    return controller


def try_restore(directory):
    """Returns ``("ok", controller)`` or ``("error", exc)``."""
    try:
        return "ok", AdaptationController.restore(str(directory),
                                                  fsync="never")
    except TYPED_ERRORS as exc:
        return "error", exc


class TestTruncationFuzz:
    def test_every_truncation_point_recovers_a_valid_prefix(self, tmp_path):
        """Chop the WAL at every byte offset: always prefix-or-error."""
        build_history(tmp_path)
        wal = str(tmp_path / WAL_FILENAME)
        pristine = open(wal, "rb").read()
        full_records, _ = scan_wal(wal)
        rng = random.Random(20260805)
        cut_points = sorted(rng.sample(range(len(pristine)),
                                       min(60, len(pristine))))
        for cut in cut_points:
            with open(wal, "wb") as handle:
                handle.write(pristine[:cut])
            outcome, result = try_restore(tmp_path)
            prefix, _ = scan_wal(wal)  # restore truncated the torn tail
            assert len(prefix) <= len(full_records)
            if outcome == "ok":
                # The replayed history is exactly the surviving prefix.
                report = result.last_recovery
                assert report.last_seq <= full_records[-1].seq
                result.journal.close()
            else:
                assert isinstance(result, TYPED_ERRORS)

    def test_truncating_whole_file_is_unrecoverable_but_typed(self,
                                                              tmp_path):
        build_history(tmp_path)
        wal = str(tmp_path / WAL_FILENAME)
        open(wal, "wb").close()
        outcome, result = try_restore(tmp_path)
        assert outcome == "error"
        assert isinstance(result, RecoveryError)


class TestBitRotFuzz:
    def test_random_byte_flips_never_load_silently(self, tmp_path):
        """Flip one byte at a time across the WAL body."""
        live = build_history(tmp_path)
        wal = str(tmp_path / WAL_FILENAME)
        pristine = open(wal, "rb").read()
        expected_objective = live.current_objective()
        rng = random.Random(1999)
        for offset in sorted(rng.sample(range(len(pristine)), 40)):
            flipped = bytearray(pristine)
            flipped[offset] ^= 0x5A
            with open(wal, "wb") as handle:
                handle.write(bytes(flipped))
            outcome, result = try_restore(tmp_path)
            if outcome == "ok":
                # The flip landed in the final record, which recovery
                # truncated as a torn tail — or somewhere harmless.  If
                # the whole history survived, the rebuilt objective must
                # be the live one; shorter prefixes verified themselves
                # record by record during replay.
                report = result.last_recovery
                if report.last_seq == len(pristine.splitlines()):
                    assert result.current_objective() == \
                        pytest.approx(expected_objective)
                result.journal.close()
            else:
                assert isinstance(result, TYPED_ERRORS)

    def test_flips_inside_snapshots_fall_back_or_raise(self, tmp_path):
        build_history(tmp_path, snapshot_every=4)
        files = snapshot_files(str(tmp_path))
        assert files
        rng = random.Random(7)
        pristine = {path: open(path, "rb").read() for path in files}
        for path in files:
            for _ in range(10):
                flipped = bytearray(pristine[path])
                flipped[rng.randrange(len(flipped))] ^= 0x81
                with open(path, "wb") as handle:
                    handle.write(bytes(flipped))
                outcome, result = try_restore(tmp_path)
                if outcome == "ok":
                    # A valid older snapshot (or an undamaged parse)
                    # carried recovery; the replay checks vouched for it.
                    result.journal.close()
                else:
                    assert isinstance(result, TYPED_ERRORS)
            with open(path, "wb") as handle:
                handle.write(pristine[path])

    def test_deleting_wal_with_snapshots_still_recovers(self, tmp_path):
        live = build_history(tmp_path, snapshot_every=4)
        os.remove(str(tmp_path / WAL_FILENAME))
        outcome, result = try_restore(tmp_path)
        # The newest snapshot alone is a consistent (if possibly stale)
        # state: its internal digest re-verifies on load.
        assert outcome == "ok"
        assert result.last_recovery.records_replayed == 0
        assert len(result.registry) <= len(live.registry) + 1
        result.journal.close()


def _first_model(state):
    return next(bundle["model"] for instance in state["instances"]
                for bundle in instance["bundles"])


def _drop(key):
    return lambda state: _first_model(state)["options"][0].pop(key)


def _set_node(key, value):
    def mutate(state):
        _first_model(state)["options"][0]["nodes"][0][key] = value
    return mutate


def _set_model(key, value):
    return lambda state: _first_model(state).__setitem__(key, value)


def _ghost_link(state):
    _first_model(state)["options"][0]["links"].append(
        ["worker", "ghost", 2.0])


def _duplicate_option(state):
    options = _first_model(state)["options"]
    options.append(copy.deepcopy(options[0]))


def _ghost_host(state):
    state["topology"]["links"][0][1] = "ghost"


def _short_link_row(state):
    state["topology"]["links"][0].pop()


def _drop_topology(state):
    del state["topology"]


#: name -> (mutation of a verified snapshot body, typed error, message).
MALFORMED = {
    "model_missing_key": (_drop("nodes"), RecoveryError,
                          "malformed bundle model: KeyError: 'nodes'"),
    "node_missing_key": (lambda state: _first_model(state)["options"][0]
                         ["nodes"][0].pop("seconds"), RecoveryError,
                         "KeyError: 'seconds'"),
    "quantity_wrong_type": (_set_node("memory", {"mb": 16}), RecoveryError,
                            "malformed bundle model: TypeError"),
    "quantity_wrong_shape": (_set_node("memory", [16.0]), RecoveryError,
                             "malformed bundle model: ValueError"),
    "options_wrong_type": (_set_model("options", 7), RecoveryError,
                           "malformed bundle model: TypeError"),
    "link_endpoint_names_no_node": (_ghost_link, RslSemanticError,
                                    "link endpoint 'ghost' names no "
                                    "declared node"),
    "duplicate_option": (_duplicate_option, RslSemanticError,
                         "duplicate option names"),
    "topology_endpoint_names_no_node": (_ghost_host, SimulationError,
                                        "'ghost' is not a cluster node"),
    "topology_short_link_row": (_short_link_row, RecoveryError,
                                "malformed topology: ValueError"),
    "topology_missing": (_drop_topology, RecoveryError,
                         "malformed topology: TypeError"),
}


class TestMalformedModelBodies:
    """A snapshot whose checksum verifies but whose model body no encoder
    wrote fails with a typed error — the model's own checks, or a
    ``RecoveryError`` naming the decoder's ``KeyError``/``TypeError``."""

    @pytest.mark.parametrize("mutate, error, message", MALFORMED.values(),
                             ids=MALFORMED.keys())
    def test_rechecksummed_mutation_fails_typed(self, tmp_path, mutate,
                                                error, message):
        build_history(tmp_path, snapshot_every=4)
        newest = snapshot_files(str(tmp_path))[0]
        with open(newest) as handle:
            envelope = json.load(handle)
        state = json.loads(envelope["state"])
        mutate(state)
        text = json.dumps(state, sort_keys=True, separators=(",", ":"))
        envelope["state"] = text
        envelope["crc"] = f"{zlib.crc32(text.encode('utf-8')):08x}"
        with open(newest, "w") as handle:
            json.dump(envelope, handle)
        with pytest.raises(HarmonyError, match=message) as caught:
            AdaptationController.restore(str(tmp_path), fsync="never")
        assert isinstance(caught.value, error)
