"""A departure advances the prediction cache; it no longer drops it.

``_release_app`` hands the token ``view.remove`` returns to
``TrialEngine.commit``, so the survivors' predictions move by the
departure's dirty set.  The cache must equal what a rebuild would have
produced at the moment of the release — keys in the same order — and
after every operation since.  Between releases only the mapping is
compared: a rolled-back pairwise trial re-inserts the application it
removed at the end of the view (at the parent commit too), which is why
the objectives sum with ``fsum``.
"""

import json

import pytest

from repro.controller import AdaptationController
from repro.errors import RecoveryError
from repro.persistence import DurabilityJournal
from repro.persistence.journal import WAL_FILENAME
from repro.persistence.wal import WalRecord, encode_record, scan_wal
from tests.controller.churn_scripts import make_script, run_script
from tests.pods import POD_RSL, build_pod_cluster


def assert_cache_equals_rebuild(controller, exact, ordered=False):
    cached = dict(controller._engine.live_predictions())
    fresh = controller.predict_all(controller.view)
    assert (list if ordered else sorted)(cached) == \
        (list if ordered else sorted)(fresh)
    if exact:
        assert cached == fresh
    else:
        assert cached == pytest.approx(fresh, abs=1e-9)


def checking(exact, released):
    """A ``run_script`` hook that checks the cache at every trigger."""
    def prepare(controller):
        # A release asks for its reevaluation right after committing the
        # departure, before any survivor has moved.
        request = controller.request_reevaluation

        def checked_request(reason):
            kind = reason.split(":")[0]
            assert_cache_equals_rebuild(
                controller, exact, ordered=kind in ("ended", "evicted"))
            released.append(kind)
            return request(reason)
        controller.request_reevaluation = checked_request

        # The scripts only ever end applications; evict every other one.
        end = controller.end_app

        def end_or_evict(instance):
            if instance.instance_id % 2:
                controller.evict_app(instance)
            else:
                end(instance)
            assert_cache_equals_rebuild(controller, exact)
        controller.end_app = end_or_evict

        fail = controller.handle_node_failure

        def checked_failure(hostname):
            stranded = fail(hostname)
            assert_cache_equals_rebuild(controller, exact)
            return stranded
        controller.handle_node_failure = checked_failure
    return prepare


@pytest.mark.parametrize("pairwise", [True, False])
@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("seed", range(12))
def test_cache_equals_a_rebuild_through_seeded_churn(seed, exact, pairwise):
    released = []
    script = make_script(seed, exact=exact)
    controller = run_script(script, pairwise=pairwise,
                            prepare=checking(exact, released))
    assert_cache_equals_rebuild(controller, exact)
    ends = sum(op[0] == "end" for op in script["ops"])
    assert released.count("ended") + released.count("evicted") == ends


def test_the_scripts_reach_every_way_out():
    released, kinds = [], set()
    for seed in range(12):
        script = make_script(seed)
        kinds |= {op[0] for op in script["ops"]}
        run_script(script, pairwise=True, prepare=checking(True, released))
    assert {"end", "fail", "load"} <= kinds
    assert {"ended", "evicted"} <= set(released)


def pod_controller(apps=6):
    controller = AdaptationController(build_pod_cluster(2, 4))
    instances = []
    for index in range(apps):
        instance = controller.register_app(f"Pod{index % 2}App{index}")
        controller.setup_bundle(
            instance, POD_RSL.format(pod=index % 2, index=index))
        instances.append(instance)
    return controller, instances


def test_ending_a_placed_app_rebuilds_nothing():
    controller, instances = pod_controller()
    controller._engine.live_predictions()
    before = controller.stats.full_view_recomputes
    controller.end_app(instances[2])
    assert controller.stats.full_view_recomputes == before
    assert instances[2].key not in controller._engine.live_predictions()
    assert controller.stats.full_view_recomputes == before
    assert_cache_equals_rebuild(controller, exact=True)


def test_releasing_an_unplaced_app_leaves_the_cache_valid():
    controller, _instances = pod_controller()
    cached = controller._engine.live_predictions()
    version = controller.view.version
    before = controller.stats.full_view_recomputes
    controller.end_app(controller.register_app("NeverConfigured"))
    assert controller.view.version == version
    assert controller._engine.live_predictions() is cached
    assert controller.stats.full_view_recomputes == before


# -- restore: a snapshot plus a tail with releases in it ---------------------

def churned_directory(tmp_path):
    """``durable_churn`` in miniature: 8 apps, a snapshot every 32
    records, 10 end+admit ops of ten records each — the tail behind the
    last snapshot holds three releases and the applies they caused."""
    controller = AdaptationController(build_pod_cluster(2, 4))
    journal = DurabilityJournal(str(tmp_path), fsync="never",
                                snapshot_every=32).attach(controller)
    live = []
    for index in range(8 + 10):
        if len(live) == 8:
            controller.end_app(live.pop(0))
        instance = controller.register_app(f"Pod{index % 2}App{index}")
        controller.setup_bundle(
            instance, POD_RSL.format(pod=index % 2, index=index))
        live.append(instance)
    journal.close()
    return controller


def wal_tail(tmp_path, restored):
    records, _ = scan_wal(str(tmp_path / WAL_FILENAME))
    return [record for record in records
            if record.seq > restored.last_recovery.snapshot_seq
            and record.kind != "recovered"]


def test_restore_makes_two_full_passes_whatever_the_tail_holds(tmp_path):
    original = churned_directory(tmp_path)
    restored = AdaptationController.restore(str(tmp_path), fsync="never")
    tail = wal_tail(tmp_path, restored)
    kinds = [record.kind for record in tail]
    assert restored.last_recovery.snapshot_path is not None
    assert kinds.count("release") == 3 and kinds.count("apply") > 3
    # The digest check, then the first commit's rebuild; each replayed
    # release used to cost one more (four here).
    assert restored.stats.full_view_recomputes <= 2
    assert restored.current_objective() == original.current_objective()
    assert_cache_equals_rebuild(restored, exact=True)


def test_replay_still_checks_every_apply_records_objective(tmp_path):
    churned_directory(tmp_path)
    path = str(tmp_path / WAL_FILENAME)
    records, _ = scan_wal(path)
    # The last apply that follows a release in the log: by then replay is
    # predicting from the cache the departure advanced.
    index = max(i for i, record in enumerate(records)
                if record.kind == "apply"
                and any(r.kind == "release" for r in records[:i]))
    victim = records[index]
    data = json.loads(json.dumps(victim.data))
    data["objective_after"] += 0.5
    records[index] = WalRecord(victim.seq, victim.time, victim.kind, data)
    with open(path, "wb") as handle:
        handle.writelines(encode_record(record) for record in records)
    with pytest.raises(RecoveryError, match="replay diverged at seq"):
        AdaptationController.restore(str(tmp_path), fsync="never")
