"""Journal cadence and restore(): the durability loop at unit scale.

A small scripted scenario (three apps, a node failure, a clean exit, a
node restoration) drives a journaled controller; ``restore()`` must then
rebuild an equivalent controller from disk alone — same ``describe_system``,
same predictions, same objective.
"""

import json
import os

import pytest

from repro.cluster import Cluster
from repro.controller import AdaptationController
from repro.errors import (
    ControllerError,
    RecoveryError,
    SnapshotCorruptionError,
    WalCorruptionError,
)
from repro.persistence import DurabilityJournal, WriteAheadLog, snapshot_files
from repro.persistence.codec import topology_to_dict
from repro.persistence.journal import WAL_FILENAME
from repro.persistence.snapshot import read_snapshot, write_snapshot
from repro.prediction.models import CallableModel
from tests.pods import POD_RSL, build_pod_cluster


@pytest.fixture(autouse=True)
def _closed_at_teardown(monkeypatch, closing):
    """Every journal a test here builds or restores is closed when it
    ends, whatever it asserted."""
    monkeypatch.setitem(globals(), "DurabilityJournal",
                        lambda *args, cls=DurabilityJournal, **kwargs:
                        closing(cls(*args, **kwargs)))
    restore = AdaptationController.restore

    def restored(*args, **kwargs):
        controller = restore(*args, **kwargs)
        closing(controller.journal)
        return controller

    monkeypatch.setattr(AdaptationController, "restore", restored)

RSL = """
harmonyBundle {name} where {{
    {{small {{node worker {{os linux}} {{seconds 5}} {{memory 16}}}}}}
    {{big {{node worker {{os linux}} {{seconds 3}} {{memory 64}}}}}}}}
"""


def make_cluster():
    return Cluster.full_mesh(["n0", "n1", "n2", "n3"], memory_mb=96)


def journaled_controller(directory, snapshot_every=0, **journal_kwargs):
    controller = AdaptationController(make_cluster())
    journal = DurabilityJournal(str(directory), fsync="never",
                                snapshot_every=snapshot_every,
                                **journal_kwargs)
    journal.attach(controller)
    return controller, journal


def run_scenario(controller):
    """Three apps join; a node fails; one app leaves; the node returns."""
    instances = []
    for index in range(3):
        instance = controller.register_app(f"app{index}")
        controller.setup_bundle(instance, RSL.format(name=f"app{index}"))
        instances.append(instance)
    controller.handle_node_failure("n0")
    controller.end_app(instances[1])
    controller.handle_node_restored("n0")
    return instances


def digest(controller):
    return {
        "system": controller.describe_system(),
        "objective": controller.current_objective(),
        "predictions": controller.predict_all(controller.view),
        "registry": sorted(i.key for i in controller.registry.instances()),
    }


def assert_equivalent(restored, original):
    left, right = digest(restored), digest(original)
    assert left["system"] == right["system"]
    assert left["registry"] == right["registry"]
    assert sorted(left["predictions"]) == sorted(right["predictions"])
    for key, value in right["predictions"].items():
        assert left["predictions"][key] == pytest.approx(value, abs=1e-9)
    assert left["objective"] == pytest.approx(right["objective"], abs=1e-9)


class TestJournalWiring:
    def test_attach_requires_empty_controller(self, tmp_path):
        controller = AdaptationController(make_cluster())
        controller.register_app("app0")
        journal = DurabilityJournal(str(tmp_path), fsync="never")
        with pytest.raises(ControllerError, match="empty controller"):
            journal.attach(controller)

    def test_attach_requires_empty_directory(self, tmp_path):
        _controller, journal = journaled_controller(tmp_path)
        journal.close()
        fresh = AdaptationController(make_cluster())
        reopened = DurabilityJournal(str(tmp_path), fsync="never")
        with pytest.raises(ControllerError, match="restore"):
            reopened.attach(fresh)

    def test_every_event_kind_is_journaled(self, tmp_path):
        controller, journal = journaled_controller(tmp_path)
        run_scenario(controller)
        kinds = [record.kind for record in journal.wal.records()]
        assert kinds[0] == "genesis"
        assert kinds.count("register") == 3
        assert kinds.count("setup_bundle") == 3
        assert "node_failure" in kinds
        assert "release" in kinds
        assert "node_restored" in kinds
        # Releases precede the re-optimization applies they trigger.
        assert kinds.index("node_failure") < len(kinds) - 1

    def test_wal_metrics_are_exported(self, tmp_path):
        controller, journal = journaled_controller(tmp_path)
        run_scenario(controller)
        metrics = controller.metrics
        assert metrics.latest("controller.wal.appends") == \
            journal.wal.append_count
        assert metrics.latest("controller.wal.bytes") == \
            journal.wal.bytes_written
        assert metrics.latest("controller.wal.bytes") > 0


class TestSnapshots:
    def test_cadence_writes_snapshots_and_compacts(self, tmp_path):
        controller, journal = journaled_controller(tmp_path,
                                                   snapshot_every=4)
        run_scenario(controller)
        assert journal.snapshots_written >= 1
        assert controller.metrics.latest("controller.snapshots") == \
            journal.snapshots_written
        files = snapshot_files(str(tmp_path))
        assert 1 <= len(files) <= 2  # KEEP_SNAPSHOTS generations
        # Compaction kept the tail needed by the *oldest* retained file.
        oldest = min(int(os.path.basename(p)[len("snapshot-"):-5])
                     for p in files)
        first = journal.wal.first_seq
        assert first is None or first == oldest + 1

    def test_snapshot_digest_reads_the_prediction_cache(self, tmp_path):
        """A snapshot of a current cache predicts nothing again, and its
        digest is what a full pass over the view computes."""
        controller = AdaptationController(build_pod_cluster(2))
        journal = DurabilityJournal(str(tmp_path), fsync="never")
        journal.attach(controller)
        for index in range(8):
            instance = controller.register_app(f"Pod{index % 2}App{index}")
            controller.setup_bundle(instance, POD_RSL.format(
                pod=index % 2, index=index))
        objective = controller.current_objective()
        before = controller.stats.snapshot()
        journal.snapshot_now()
        after = controller.stats.snapshot()
        assert after["full_view_recomputes"] == \
            before["full_view_recomputes"]
        assert after["predictions_recomputed"] == \
            before["predictions_recomputed"]
        path, = snapshot_files(str(tmp_path))
        recorded = read_snapshot(path)[1]["digest"]
        assert len(recorded["predictions"]) == 8
        assert recorded["predictions"] == \
            controller.predict_all(controller.view)
        assert recorded["objective"] == objective

    def test_snapshot_requires_attachment(self, tmp_path):
        journal = DurabilityJournal(str(tmp_path), fsync="never")
        with pytest.raises(ControllerError, match="not attached"):
            journal.snapshot_now()


class TestRestore:
    def test_restore_matches_live_controller(self, tmp_path):
        controller, journal = journaled_controller(tmp_path)
        run_scenario(controller)
        journal.close()
        restored = AdaptationController.restore(str(tmp_path),
                                                fsync="never")
        assert_equivalent(restored, controller)
        report = restored.last_recovery
        assert report.snapshot_path is None  # no snapshot: genesis replay
        assert report.records_replayed == len(journal.wal.records()) - 1
        assert report.recovery_seconds >= 0.0
        assert restored.metrics.latest(
            "controller.recovery_seconds") >= 0.0

    def test_restore_appends_nothing(self, tmp_path):
        # The RecoveryReport, the recovery_seconds metric and the
        # controller.restore span record a restore; the WAL does not.
        controller, journal = journaled_controller(tmp_path)
        run_scenario(controller)
        last_seq = journal.wal.last_seq
        journal.close()
        for _ in range(2):
            restored = AdaptationController.restore(str(tmp_path),
                                                    fsync="never")
            assert restored.journal.wal.last_seq == last_seq
            assert restored.last_recovery.last_seq == last_seq
            restored.journal.close()

    def test_restore_from_snapshot_plus_tail(self, tmp_path):
        controller, journal = journaled_controller(tmp_path,
                                                   snapshot_every=5)
        run_scenario(controller)
        journal.close()
        restored = AdaptationController.restore(str(tmp_path),
                                                fsync="never")
        assert_equivalent(restored, controller)
        assert restored.last_recovery.snapshot_path is not None
        assert restored.last_recovery.snapshot_seq > 0

    def test_history_does_not_depend_on_the_snapshot_cadence(self, tmp_path):
        """Replay rebuilds the baseline as a snapshot load does: two
        apps and an eviction restored from the WAL alone leave the same
        flight events and controller metrics as from a snapshot, the
        live history only."""
        def history(directory, snapshot):
            controller, journal = journaled_controller(directory)
            first, second = (controller.register_app(f"app{index}")
                             for index in range(2))
            for instance in (first, second):
                controller.setup_bundle(instance,
                                        RSL.format(name=instance.app_name))
            controller.evict_app(first)
            if snapshot:
                journal.snapshot_now()
            journal.close()
            restored = AdaptationController.restore(str(directory),
                                                    fsync="never")
            assert (restored.last_recovery.snapshot_path is not None) is \
                snapshot
            assert_equivalent(restored, controller)
            kinds = sorted(event["kind"] for event
                           in restored.flight_recorder.events())
            return kinds, restored.metrics.names("controller"), \
                restored.metrics.latest("controller.evictions")

        from_wal = history(tmp_path / "wal", snapshot=False)
        assert from_wal == history(tmp_path / "snapshot", snapshot=True)
        kinds, names, evictions = from_wal
        assert "registered" not in kinds and "evicted" not in kinds
        assert evictions is None and names == ["controller.recovery_seconds"]

    def test_restored_controller_keeps_journaling(self, tmp_path):
        controller, journal = journaled_controller(tmp_path)
        run_scenario(controller)
        journal.close()
        restored = AdaptationController.restore(str(tmp_path),
                                                fsync="never")
        extra = restored.register_app("late")
        restored.setup_bundle(extra, RSL.format(name="late"))
        restored.journal.close()
        second = AdaptationController.restore(str(tmp_path), fsync="never")
        assert_equivalent(second, restored)

    def test_corrupt_newest_snapshot_falls_back_to_older(self, tmp_path):
        controller, journal = journaled_controller(tmp_path,
                                                   snapshot_every=4)
        run_scenario(controller)
        assert len(snapshot_files(str(tmp_path))) == 2
        newest = snapshot_files(str(tmp_path))[0]
        with open(newest, "w") as handle:
            handle.write("rotted")
        journal.close()
        restored = AdaptationController.restore(str(tmp_path),
                                                fsync="never")
        assert_equivalent(restored, controller)
        assert restored.last_recovery.skipped_snapshots == [newest]
        assert restored.last_recovery.snapshot_path == \
            snapshot_files(str(tmp_path))[1]

    def test_all_snapshots_corrupt_with_compacted_wal_raises(self,
                                                             tmp_path):
        controller, journal = journaled_controller(tmp_path,
                                                   snapshot_every=4)
        run_scenario(controller)
        journal.close()
        for path in snapshot_files(str(tmp_path)):
            with open(path, "w") as handle:
                handle.write("rotted")
        # The WAL was compacted past genesis: with no valid snapshot the
        # base state is unrecoverable — a typed error, never wrong state.
        with pytest.raises(SnapshotCorruptionError,
                           match="no snapshot verifies"):
            AdaptationController.restore(str(tmp_path), fsync="never")

    def test_restore_empty_directory_raises(self, tmp_path):
        from repro.errors import RecoveryError
        with pytest.raises(RecoveryError, match="nothing to restore"):
            AdaptationController.restore(str(tmp_path), fsync="never")

    @pytest.mark.parametrize("damage", ["empty", "legacy_record"])
    def test_a_failed_restore_closes_its_wal(self, tmp_path, monkeypatch,
                                            damage):
        """A restore that raises — nothing to restore, or a record replay
        refuses — closes the WAL it opened instead of leaving the handle
        to the garbage collector."""
        from repro.persistence import recovery
        if damage == "legacy_record":
            controller, journal = journaled_controller(tmp_path)
            controller.register_app("app0")
            journal.append("adopt", {"app_name": "moved", "key": "moved.7",
                                     "instance_id": 7})
            journal.close()
        opened = []

        class Recording(recovery.DurabilityJournal):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        monkeypatch.setattr(recovery, "DurabilityJournal", Recording)
        with pytest.raises(RecoveryError):
            AdaptationController.restore(str(tmp_path), fsync="never")
        assert [journal.wal._handle.closed for journal in opened] == [True]

    def test_legacy_adopt_record_is_refused(self, tmp_path):
        """An ``adopt`` record re-admitted an instance under its old key
        in logs from when sessions could move between controllers, and
        an ``unconfigured`` record left a bundle unconfigured after a
        failed reconfiguration, before decisions committed all or
        nothing; no operation writes or replays either any more, so a
        log holding one is refused by name instead of restored without
        it."""
        from repro.errors import RecoveryError
        legacy = {"adopt": {"app_name": "moved", "key": "moved.7",
                            "instance_id": 7},
                  "unconfigured": {"key": "app0.1", "bundle_name": "b"}}
        for kind, data in legacy.items():
            directory = tmp_path / kind
            controller, journal = journaled_controller(directory)
            controller.register_app("app0")
            journal.append(kind, data)
            seq = journal.wal.last_seq
            journal.close()
            with pytest.raises(RecoveryError, match=(
                    rf"unknown WAL record kind '{kind}' \(seq {seq}\)")):
                AdaptationController.restore(str(directory), fsync="never")

    def test_format_1_snapshot_is_refused_by_name(self, tmp_path):
        """Format 1 stored bundles as RSL text and links as dicts.  Such a
        file is intact, so it is refused by its format rather than skipped
        as corrupt (which would end in "every snapshot is corrupt")."""
        controller, journal = journaled_controller(tmp_path,
                                                   snapshot_every=4)
        run_scenario(controller)
        journal.close()
        paths = snapshot_files(str(tmp_path))
        assert paths
        for path in paths:
            with open(path) as handle:
                envelope = json.load(handle)
            envelope["format"] = 1
            with open(path, "w") as handle:
                json.dump(envelope, handle)
        with pytest.raises(RecoveryError, match=(
                r"snapshot-\d+\.json: snapshot format 1 .* reads format 2")):
            AdaptationController.restore(str(tmp_path), fsync="never")

    def test_genesis_with_dict_links_is_refused_by_name(self, tmp_path):
        """A genesis record from format 1 holds its links as dicts."""
        topology = topology_to_dict(make_cluster())
        keys = ("host_a", "host_b", "bandwidth_mbps", "latency_seconds")
        topology["links"] = [dict(zip(keys, row))
                             for row in topology["links"]]
        wal = WriteAheadLog(str(tmp_path / WAL_FILENAME), fsync="never")
        wal.append("genesis", 0.0, {"topology": topology})
        wal.close()
        with pytest.raises(RecoveryError, match=(
                "topology links are dicts, as snapshot format 1 wrote")):
            AdaptationController.restore(str(tmp_path), fsync="never")

    def _rot_two_snapshot_generations(self, tmp_path, journal):
        """Write two snapshot generations by hand, then rot both.

        The journal's own cadence compacts the WAL to the oldest retained
        snapshot, which would destroy the genesis fallback this scenario
        is about — so the snapshots are written directly instead, leaving
        the WAL intact from genesis.
        """
        seqs = [record.seq for record in journal.wal.records()]
        write_snapshot(str(tmp_path), seqs[len(seqs) // 2], {"bogus": 1})
        write_snapshot(str(tmp_path), seqs[-1], {"bogus": 2})
        journal.close()
        paths = snapshot_files(str(tmp_path))
        assert len(paths) == 2
        for path in paths:
            with open(path, "w") as handle:
                handle.write("rotted")
        return paths

    def test_all_snapshots_corrupt_falls_through_to_wal_replay(
            self, tmp_path):
        # Unlike the compacted-WAL case above, the full log still starts
        # at genesis: losing every snapshot costs a longer replay, never
        # the state.
        controller, journal = journaled_controller(tmp_path)
        run_scenario(controller)
        paths = self._rot_two_snapshot_generations(tmp_path, journal)
        restored = AdaptationController.restore(str(tmp_path),
                                                fsync="never")
        assert_equivalent(restored, controller)
        report = restored.last_recovery
        assert sorted(report.skipped_snapshots) == sorted(paths)
        assert report.snapshot_path is None  # clean genesis replay

    def test_wal_damage_behind_corrupt_snapshots_is_typed(self, tmp_path):
        controller, journal = journaled_controller(tmp_path)
        run_scenario(controller)
        self._rot_two_snapshot_generations(tmp_path, journal)
        # Rot a mid-WAL record too: now no trustworthy base state exists
        # anywhere, and recovery must refuse rather than guess.
        wal_path = tmp_path / WAL_FILENAME
        lines = wal_path.read_bytes().split(b"\n")
        lines[3] = b"rotted"
        wal_path.write_bytes(b"\n".join(lines))
        with pytest.raises(WalCorruptionError,
                           match="valid records after"):
            AdaptationController.restore(str(tmp_path), fsync="never")


class TestExplicitModels:
    def test_journaled_model_requires_a_name(self, tmp_path):
        controller, _journal = journaled_controller(tmp_path)
        instance = controller.register_app("app0")
        controller.setup_bundle(instance, RSL.format(name="app0"))
        with pytest.raises(ControllerError, match="model_name"):
            controller.register_model(
                instance, "where", CallableModel(lambda *a: 1.0))

    def test_named_model_survives_restore(self, tmp_path):
        registry = {"flat2": CallableModel(
            lambda demands, assignment, view: 2.0)}
        controller, journal = journaled_controller(
            tmp_path, model_registry=registry)
        instance = controller.register_app("app0")
        controller.setup_bundle(instance, RSL.format(name="app0"))
        controller.register_model(instance, "where", registry["flat2"],
                                  model_name="flat2")
        controller.reevaluate()
        journal.close()
        restored = AdaptationController.restore(
            str(tmp_path), model_registry=registry, fsync="never")
        assert_equivalent(restored, controller)
        key = restored.registry.instances()[0].key
        assert restored.predict_all(restored.view)[key] == \
            pytest.approx(2.0)

    @pytest.mark.parametrize("snapshot", [False, True],
                             ids=["wal_tail", "snapshot"])
    def test_restored_index_still_knows_the_model_is_opaque(self, tmp_path,
                                                            snapshot):
        """An opaque model may read any partition, so it turns pruning
        off.  A restore rebuilds the registry without telling the
        partition index about the model; the index's first rebuild must
        find it again, or the restored controller prunes where the live
        one may not."""
        registry = {"opaque": CallableModel(
            lambda demands, assignment, view: 2.0)}
        controller = AdaptationController(build_pod_cluster(2, 4))
        journal = DurabilityJournal(str(tmp_path), fsync="never",
                                    snapshot_every=0,
                                    model_registry=registry)
        journal.attach(controller)
        instances = []
        for index in range(4):
            instance = controller.register_app(f"Pod{index % 2}App{index}")
            controller.setup_bundle(
                instance, POD_RSL.format(pod=index % 2, index=index))
            instances.append(instance)
        controller.register_model(instances[0], "size", registry["opaque"],
                                  model_name="opaque")
        controller.reevaluate()
        if snapshot:
            journal.snapshot_now()
        journal.close()
        restored = AdaptationController.restore(
            str(tmp_path), model_registry=registry, fsync="never")
        assert (restored.last_recovery.snapshot_path is not None) == snapshot
        restored.reevaluate()
        for each in (controller, restored):
            assert not each.partition_index.prunable(each.objective)
            assert sorted(each._engine._opaque) == ["Pod0App0.1"]

    @pytest.mark.parametrize("snapshot", [False, True],
                             ids=["wal_tail", "snapshot"])
    def test_per_option_model_key_is_refused(self, tmp_path, snapshot):
        """A ``bundle.option`` model key comes from a log written when
        models were registered per option; no prediction reads such a
        model any more, so a restore refuses it by name instead of
        restoring a controller that predicts differently."""
        registry = {"flat2": CallableModel(lambda *a: 2.0)}
        controller, journal = journaled_controller(
            tmp_path, model_registry=registry)
        instance = controller.register_app("app0")
        controller.setup_bundle(instance, RSL.format(name="app0"))
        if snapshot:
            controller.register_model(instance, "where", registry["flat2"],
                                      model_name="flat2")
            path = journal.snapshot_now()
            seq, state = read_snapshot(path)
            models = state["instances"][0]["models"]
            models["where.small"] = models.pop("where")
            write_snapshot(str(tmp_path), seq, state)
        else:
            journal.append("model", {"key": instance.key,
                                     "model_key": "where.small",
                                     "model_name": "flat2"})
        journal.close()
        with pytest.raises(RecoveryError, match=(
                r"per-option model key 'where\.small'")):
            AdaptationController.restore(
                str(tmp_path), model_registry=registry, fsync="never")

    @pytest.mark.parametrize("snapshot", [False, True],
                             ids=["wal_tail", "snapshot"])
    def test_a_dotted_bundle_name_keeps_its_model(self, tmp_path,
                                                  snapshot):
        """RSL allows a dot in a bundle name; a model registered for
        such a bundle is a bundle's model, not a per-option one."""
        registry = {"flat2": CallableModel(lambda *a: 2.0)}
        controller, journal = journaled_controller(
            tmp_path, model_registry=registry)
        instance = controller.register_app("app0")
        controller.setup_bundle(instance, RSL.format(name="app0").replace(
            "app0 where", "app0 my.where"))
        controller.register_model(instance, "my.where", registry["flat2"],
                                  model_name="flat2")
        if snapshot:
            journal.snapshot_now()
        journal.close()
        restored = AdaptationController.restore(
            str(tmp_path), model_registry=registry, fsync="never")
        assert_equivalent(restored, controller)
        assert restored.predict_all(restored.view)[instance.key] == \
            pytest.approx(2.0)

    def test_restore_without_registry_entry_raises(self, tmp_path):
        registry = {"flat2": CallableModel(lambda *a: 2.0)}
        controller, journal = journaled_controller(
            tmp_path, model_registry=registry)
        instance = controller.register_app("app0")
        controller.setup_bundle(instance, RSL.format(name="app0"))
        controller.register_model(instance, "where", registry["flat2"],
                                  model_name="flat2")
        journal.close()
        with pytest.raises(ControllerError, match="model_registry"):
            AdaptationController.restore(str(tmp_path), fsync="never")
