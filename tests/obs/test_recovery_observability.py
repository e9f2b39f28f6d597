"""Recovery is observable: span chain + WAL/snapshot/recovery counters."""

import json

import pytest

from repro.cluster import Cluster
from repro.controller import AdaptationController
from repro.errors import WalCorruptionError
from repro.obs.export import (json_snapshot, prometheus_text,
                               spans_to_jsonl)
from repro.obs.trace import Tracer
from repro.persistence import DurabilityJournal

RSL = """
harmonyBundle {name} where {{
    {{small {{node worker {{os linux}} {{seconds 5}} {{memory 16}}}}}}
    {{big {{node worker {{os linux}} {{seconds 3}} {{memory 64}}}}}}}}
"""

#: The children of ``controller.restore``, in the order they run.
STAGES = ("read", "topology", "load_snapshot", "replay_wal")


def journaled_history(directory, snapshot_every=4):
    controller = AdaptationController(
        Cluster.full_mesh(["n0", "n1", "n2"], memory_mb=96))
    journal = DurabilityJournal(str(directory), fsync="never",
                                snapshot_every=snapshot_every)
    journal.attach(controller)
    for index in range(2):
        instance = controller.register_app(f"app{index}")
        controller.setup_bundle(instance, RSL.format(name=f"app{index}"))
    controller.handle_node_failure("n0")
    journal.close()
    return controller


class TestRecoverySpans:
    def test_restore_emits_a_parented_span_chain(self, tmp_path):
        journaled_history(tmp_path)
        tracer = Tracer()
        restored = AdaptationController.restore(str(tmp_path),
                                                fsync="never",
                                                tracer=tracer)
        (root,) = tracer.find("controller.restore")
        stages = []
        for stage in STAGES:
            (span,) = tracer.find(f"controller.restore.{stage}")
            stages.append(span)
        read, _topology, _load, replay = stages
        for stage in stages:
            assert stage.parent_id == root.span_id
        # The stages run in order, inside the root's window.
        starts = [span.start_seconds for span in [root] + stages]
        assert starts == sorted(starts)
        assert all(stage.start_seconds + stage.duration_seconds <=
                   root.start_seconds + root.duration_seconds
                   for stage in stages)
        assert read.attributes["records"] > 0
        assert root.attributes["directory"] == str(tmp_path)
        assert root.attributes["records_replayed"] == \
            restored.last_recovery.records_replayed
        assert root.attributes["recovery_seconds"] >= 0.0
        assert replay.attributes["records"] == \
            restored.last_recovery.records_replayed
        restored.journal.close()

    def test_span_chain_survives_the_jsonl_dump(self, tmp_path):
        journaled_history(tmp_path)
        tracer = Tracer()
        restored = AdaptationController.restore(str(tmp_path),
                                                fsync="never",
                                                tracer=tracer)
        records = [json.loads(line)
                   for line in spans_to_jsonl(tracer.spans).splitlines()]
        by_name = {record["name"]: record for record in records}
        root = by_name["controller.restore"]
        for stage in STAGES:
            child = by_name[f"controller.restore.{stage}"]
            assert child["parent_id"] == root["span_id"]
        restored.journal.close()


class TestRecoveryCounters:
    def test_counters_flow_through_both_exporters(self, tmp_path):
        live = journaled_history(tmp_path)
        assert live.metrics.latest("controller.wal.appends") > 0
        assert live.metrics.latest("controller.snapshots") >= 1

        restored = AdaptationController.restore(str(tmp_path),
                                                fsync="never")
        snapshot = json_snapshot(restored.metrics)["metrics"]
        # The restored process's own counters: the measured recovery
        # time, and no append — a restore writes nothing to the WAL.
        assert snapshot["controller.recovery_seconds"]["latest"] >= 0.0
        assert "controller.wal.appends" not in snapshot
        assert "controller_recovery_seconds" in \
            prometheus_text(restored.metrics)

        extra = restored.register_app("late")
        restored.setup_bundle(extra, RSL.format(name="late"))
        restored.journal.snapshot_now()
        snapshot = json_snapshot(restored.metrics)["metrics"]
        # register, setup_bundle and the placement's apply.
        assert snapshot["controller.wal.appends"]["latest"] == 3.0
        assert snapshot["controller.wal.bytes"]["latest"] > 0.0
        text = prometheus_text(restored.metrics)
        assert "controller_wal_appends" in text
        assert "controller_wal_bytes" in text
        assert "controller_snapshots" in text
        restored.journal.close()


class TestRecoverySpansCoverFailures:
    def test_a_restore_that_fails_opening_its_log_still_records_it(
            self, tmp_path):
        """The root and ``read`` spans open before the journal does, so a
        log damaged mid-file — refused while the journal opens — is
        still a recorded restore."""
        journaled_history(tmp_path)
        path = tmp_path / "wal.log"
        data = bytearray(path.read_bytes())
        data[len(data) // 3] ^= 0xFF
        path.write_bytes(bytes(data))
        tracer = Tracer()
        with pytest.raises(WalCorruptionError):
            AdaptationController.restore(str(tmp_path), fsync="never",
                                         tracer=tracer)
        (root,) = tracer.find("controller.restore")
        (read,) = tracer.find("controller.restore.read")
        assert read.parent_id == root.span_id
        assert not tracer.find("controller.restore.topology")
