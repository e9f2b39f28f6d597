"""Recovery is observable: span chain + WAL/snapshot/recovery counters."""

import json

from repro.cluster import Cluster
from repro.controller import AdaptationController
from repro.obs.export import json_snapshot, prometheus_text
from repro.obs.trace import Tracer
from repro.persistence import DurabilityJournal

RSL = """
harmonyBundle {name} where {{
    {{small {{node worker {{os linux}} {{seconds 5}} {{memory 16}}}}}}
    {{big {{node worker {{os linux}} {{seconds 3}} {{memory 64}}}}}}}}
"""


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
        (load,) = tracer.find("controller.restore.load_snapshot")
        (replay,) = tracer.find("controller.restore.replay_wal")
        assert load.parent_id == root.span_id
        assert replay.parent_id == root.span_id
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
                   for line in tracer.to_jsonl().splitlines()]
        by_name = {record["name"]: record for record in records}
        root = by_name["controller.restore"]
        for child in ("controller.restore.load_snapshot",
                      "controller.restore.replay_wal"):
            assert by_name[child]["parent_id"] == root["span_id"]
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
