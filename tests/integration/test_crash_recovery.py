"""Kill the controller at every seeded WAL append; recovery must be exact.

One scripted scenario runs twice:

* **oracle** — a journaled controller executes the whole script
  uninterrupted.
* **crashed** — the same script, but a :class:`ScriptedCrashSchedule`
  kills the controller at append *i* (before the write, mid-write, or
  after), the process state is thrown away, and
  ``AdaptationController.restore()`` rebuilds it from disk.  The driver
  then re-issues the interrupted operation (all controller operations
  are redo-idempotent) and the rest of the script.

For every append index × crash point, the final system — placements,
predictions, objective, registry — must match the oracle exactly.  A
second suite restarts a :class:`HarmonyServer` on the restored
controller and proves PR-2 clients reattach with their resume keys and
recover their pre-crash options, after a degraded read-only window in
which mutations are refused with a typed error.
"""

import json
import os

import pytest

from repro.api import (
    HarmonyClient,
    HarmonyServer,
    RetryPolicy,
    VariableType,
    connected_pair,
)
from repro.cluster import Cluster
from repro.controller import AdaptationController, ClientCountRulePolicy
from repro.errors import ControllerRecoveringError, RecoveryError
from repro.persistence import (
    CrashPoint,
    DurabilityJournal,
    ScriptedCrashSchedule,
    SimulatedCrash,
)

HOSTS = ("n0", "n1", "n2", "n3")


def app_rsl(name, primary, fallback, fast, slow):
    """Two options, each pinned to one host — decisions are forced."""
    return f"""
harmonyBundle {name} place {{
    {{fast {{node worker {{hostname {primary}}} {{seconds {fast}}} {{memory 16}}}}}}
    {{slow {{node worker {{hostname {fallback}}} {{seconds {slow}}} {{memory 16}}}}}}}}
"""


RSLS = {
    "alpha": app_rsl("alpha", "n0", "n1", 10, 14),
    "beta": app_rsl("beta", "n2", "n3", 6, 8),
    "gamma": app_rsl("gamma", "n1", "n3", 9, 12),
    "delta": app_rsl("delta", "n3", "n2", 7, 9),
    # Far slower away from n0: both stay there, sharing it.
    "zeta": app_rsl("zeta", "n0", "n1", 4, 30),
    "eta": app_rsl("eta", "n0", "n2", 4, 30),
    # 64 of a node's 96 MB each, and mirror images: each is fast where
    # the other is slow.  ``west`` may leave ``slow`` only after 100 s.
    "west": """
harmonyBundle west place {
    {fast {node worker {hostname n1} {seconds 5} {memory 64}}}
    {slow {node worker {hostname n0} {seconds 10} {memory 64}}
          {granularity 100}}}
""",
    "east": """
harmonyBundle east place {
    {fast {node worker {hostname n0} {seconds 5} {memory 64}}}
    {slow {node worker {hostname n1} {seconds 10} {memory 64}}}}
""",
}

#: The script: joins, a node failure, a clean exit, a restoration, an
#: eviction, a late arrival, and a final convergence sweep.
OPS = (
    ("register", "alpha"),
    ("setup", "alpha"),
    ("register", "beta"),
    ("setup", "beta"),
    ("register", "gamma"),
    ("setup", "gamma"),
    ("fail", "n0"),
    ("end", "beta"),
    ("restore_node", "n0"),
    ("evict", "gamma"),
    ("register", "delta"),
    ("setup", "delta"),
    ("reevaluate",),
)

#: A second script: the failure of n0 displaces two bundles at once, so
#: the re-placement of the first must not count the second (replay and a
#: standby strip both before re-placing either).
OPS_DOUBLE_DISPLACEMENT = (
    ("register", "zeta"),
    ("setup", "zeta"),
    ("register", "eta"),
    ("setup", "eta"),
    ("register", "beta"),
    ("setup", "beta"),
    ("fail", "n0"),
    ("end", "zeta"),
    ("restore_node", "n0"),
    ("reevaluate",),
)

#: A third script: a memory-bound exchange.  ``west`` lands on n0 while
#: n1 is down and may not move for 100 s; ``east`` then finds n0 full and
#: takes n1.  At t=150 neither can move alone — each one's fast node is
#: full of the other — and the pairwise pass swaps them, one decision
#: committed as one ``exchange`` record.
OPS_EXCHANGE = (
    ("fail", "n1"),
    ("register", "west"),
    ("setup", "west"),
    ("restore_node", "n1"),
    ("register", "east"),
    ("setup", "east"),
    ("reevaluate_at", 150.0),
)

ALL_POINTS = (CrashPoint.BEFORE_APPEND, CrashPoint.TORN_APPEND,
              CrashPoint.AFTER_APPEND)


def build_controller(directory, snapshot_every=0, crash_schedule=None):
    controller = AdaptationController(
        Cluster.full_mesh(list(HOSTS), memory_mb=96))
    journal = DurabilityJournal(str(directory), fsync="never",
                                snapshot_every=snapshot_every,
                                crash_schedule=crash_schedule)
    journal.attach(controller)
    return controller


def find_instance(controller, app_name):
    for instance in controller.registry.instances():
        if instance.app_name == app_name:
            return instance
    return None


def apply_op(controller, op, redo=False):
    """Execute one script step.  Every step is redo-idempotent: after a
    crash the restored controller re-runs the interrupted step, which
    must complete it if it was lost and no-op if it was durable."""
    kind = op[0]
    if kind == "register":
        if redo and find_instance(controller, op[1]) is not None:
            return
        controller.register_app(op[1])
    elif kind == "setup":
        controller.setup_bundle(find_instance(controller, op[1]),
                                RSLS[op[1]])
    elif kind == "end":
        instance = find_instance(controller, op[1])
        if instance is not None:
            controller.end_app(instance)
    elif kind == "evict":
        instance = find_instance(controller, op[1])
        if instance is not None:
            controller.evict_app(instance, reason="scripted eviction")
    elif kind == "fail":
        controller.handle_node_failure(op[1])
    elif kind == "restore_node":
        controller.handle_node_restored(op[1])
    elif kind == "reevaluate":
        controller.reevaluate()
    elif kind == "reevaluate_at":
        # The time is part of the step: a restored clock stops at the
        # last durable record, and the redo must run when the step did.
        controller.cluster.kernel.advance_to(op[1])
        controller.reevaluate()
    else:  # pragma: no cover - script typo guard
        raise AssertionError(f"unknown op {op!r}")


def digest(controller):
    return {
        "system": controller.describe_system(),
        "objective": controller.current_objective(),
        "predictions": controller.predict_all(controller.view),
        "registry": sorted(i.key for i in controller.registry.instances()),
    }


def run_oracle(directory, snapshot_every=0, ops=OPS):
    controller = build_controller(directory, snapshot_every=snapshot_every)
    for op in ops:
        apply_op(controller, op)
    appends = controller.journal.wal.append_count
    controller.journal.close()
    return digest(controller), appends


def run_crashed(directory, index, point, snapshot_every=0, ops=OPS,
                on_restore=None):
    """One kill-and-recover run; returns (final digest, crash metadata).
    ``on_restore(controller, crashed_during_op)`` sees the restored
    controller before the script resumes."""
    schedule = ScriptedCrashSchedule({index: point})
    crashed_at = None
    controller = None
    try:
        controller = build_controller(directory,
                                      snapshot_every=snapshot_every,
                                      crash_schedule=schedule)
        for op_index, op in enumerate(ops):
            apply_op(controller, op)
    except SimulatedCrash:
        crashed_at = op_index if controller is not None else -1
    if controller is not None and controller.journal is not None:
        controller.journal.close()  # the dying process's handles
    if crashed_at is None:
        return digest(controller), {"crashed": False}
    try:
        restored = AdaptationController.restore(
            str(directory), fsync="never", snapshot_every=snapshot_every)
    except RecoveryError:
        # Nothing durable yet (the crash hit the genesis append): the
        # operator starts from scratch, exactly like a first boot.
        restored = build_controller(directory,
                                    snapshot_every=snapshot_every)
    replayed = None if restored.last_recovery is None \
        else restored.last_recovery.records_replayed
    if on_restore is not None:
        on_restore(restored, crashed_at)
    # A crash mid-displacement leaves bundles durably unconfigured;
    # periodic reevaluation skips those, so recovery retries them
    # explicitly before resuming the script.
    restored.configure_stranded()
    for op in ops[max(crashed_at, 0):]:
        apply_op(restored, op, redo=True)
    final = digest(restored)
    restored.journal.close()
    return final, {"crashed": True, "crashed_during_op": crashed_at,
                   "records_replayed": replayed}


def assert_digests_match(crashed, oracle):
    assert crashed["system"] == oracle["system"]
    assert crashed["registry"] == oracle["registry"]
    assert sorted(crashed["predictions"]) == sorted(oracle["predictions"])
    for key, value in oracle["predictions"].items():
        assert crashed["predictions"][key] == pytest.approx(value,
                                                            abs=1e-9)
    assert crashed["objective"] == pytest.approx(oracle["objective"],
                                                 abs=1e-9)


def run_exchange_oracle(directory, snapshot_every):
    """The exchange script uninterrupted: the digests just before and
    just after its exchange, and the total number of appends."""
    controller = build_controller(directory, snapshot_every=snapshot_every)
    for op in OPS_EXCHANGE[:-1]:
        apply_op(controller, op)
    before = digest(controller)
    apply_op(controller, OPS_EXCHANGE[-1])
    after = digest(controller)
    appends = controller.journal.wal.append_count
    controller.journal.close()
    return before, after, appends


class TestKillAtEveryPoint:
    @pytest.mark.parametrize("point", ALL_POINTS,
                             ids=lambda p: p.name.lower())
    def test_every_append_index_recovers_to_the_oracle(self, tmp_path,
                                                       point):
        oracle, total_appends = run_oracle(tmp_path / "oracle")
        assert total_appends > 10
        outcomes = []
        for index in range(total_appends):
            directory = tmp_path / f"kill-{point.name}-{index}"
            final, meta = run_crashed(directory, index, point)
            assert meta["crashed"], f"schedule never fired at {index}"
            assert_digests_match(final, oracle)
            outcomes.append({"append_index": index,
                             "point": point.name, **meta,
                             "objective": final["objective"]})
        _maybe_write_report(point.name, oracle, outcomes)

    def test_kill_points_with_snapshot_cadence(self, tmp_path):
        """Same sweep with snapshots + compaction in the loop (torn
        writes, the nastiest point, at every index)."""
        oracle, total_appends = run_oracle(tmp_path / "oracle",
                                           snapshot_every=4)
        for index in range(total_appends):
            directory = tmp_path / f"kill-snap-{index}"
            final, meta = run_crashed(directory, index,
                                      CrashPoint.TORN_APPEND,
                                      snapshot_every=4)
            assert meta["crashed"]
            assert_digests_match(final, oracle)

    @pytest.mark.parametrize("snapshot_every", [0, 4],
                             ids=["wal", "snapshots"])
    @pytest.mark.parametrize("point", ALL_POINTS,
                             ids=lambda p: p.name.lower())
    def test_double_displacement_recovers_to_the_oracle(
            self, tmp_path, point, snapshot_every):
        ops = OPS_DOUBLE_DISPLACEMENT
        oracle, total_appends = run_oracle(
            tmp_path / "oracle", snapshot_every=snapshot_every, ops=ops)
        for index in range(total_appends):
            directory = tmp_path / f"kill-{index}"
            final, meta = run_crashed(directory, index, point,
                                      snapshot_every=snapshot_every,
                                      ops=ops)
            assert meta["crashed"], f"schedule never fired at {index}"
            assert_digests_match(final, oracle)

    @pytest.mark.parametrize("snapshot_every", [0, 4],
                             ids=["wal", "snapshots"])
    @pytest.mark.parametrize("point", ALL_POINTS,
                             ids=lambda p: p.name.lower())
    def test_exchange_recovers_to_before_or_after_it(
            self, tmp_path, point, snapshot_every):
        """A kill inside the exchange restores the state just before it
        or just after it, never one half; every kill then converges."""
        before, after, total_appends = run_exchange_oracle(
            tmp_path / "oracle", snapshot_every)
        exchange_op = len(OPS_EXCHANGE) - 1
        seen = []

        def inside_the_exchange(restored, crashed_during_op):
            if crashed_during_op == exchange_op:
                recovered = digest(restored)
                side = "after" if recovered["system"] == after["system"] \
                    else "before"
                assert_digests_match(recovered, {"before": before,
                                                 "after": after}[side])
                seen.append(side)

        for index in range(total_appends):
            final, meta = run_crashed(
                tmp_path / f"kill-{index}", index, point,
                snapshot_every=snapshot_every, ops=OPS_EXCHANGE,
                on_restore=inside_the_exchange)
            assert meta["crashed"], f"schedule never fired at {index}"
            assert_digests_match(final, after)
        # The exchange's own record is the last append: durable only
        # once written whole.
        assert seen == ["after" if point is CrashPoint.AFTER_APPEND
                        else "before"]

    def test_the_third_script_exchanges_through_each_others_memory(
            self, tmp_path):
        controller = build_controller(tmp_path)
        for op in OPS_EXCHANGE:
            apply_op(controller, op)
        (record,) = [record for record in controller.journal.wal.records()
                     if record.kind == "exchange"]
        controller.journal.close()
        assert [(move["key"], move["option_name"], move["placements"])
                for move in record.data["moves"]] == [
            ("west.1", "fast", {"worker": "n1"}),
            ("east.2", "fast", {"worker": "n0"})]
        assert [trace.trigger for trace in
                controller.trace_log.latest(2)] == ["pairwise exchange"] * 2

    def test_the_second_script_displaces_two_bundles(self, tmp_path):
        controller = build_controller(tmp_path)
        fail = OPS_DOUBLE_DISPLACEMENT.index(("fail", "n0"))
        for op in OPS_DOUBLE_DISPLACEMENT[:fail]:
            apply_op(controller, op)
        on_n0 = sorted(
            instance.app_name for instance in controller.registry.instances()
            for state in instance.bundles.values()
            if "n0" in state.chosen.assignment.hostnames())
        controller.journal.close()
        assert on_n0 == ["eta", "zeta"]

    def test_crash_past_the_last_append_never_fires(self, tmp_path):
        oracle, total_appends = run_oracle(tmp_path / "oracle")
        final, meta = run_crashed(tmp_path / "late", total_appends + 10,
                                  CrashPoint.BEFORE_APPEND)
        assert meta == {"crashed": False}
        assert_digests_match(final, oracle)


def _maybe_write_report(label, oracle, outcomes):
    """CI uploads this as the recovered-state equivalence artifact."""
    target = os.environ.get("CRASH_RECOVERY_REPORT")
    if not target:
        return
    os.makedirs(target, exist_ok=True)
    path = os.path.join(target, f"equivalence-{label.lower()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"oracle_objective": oracle["objective"],
                   "oracle_registry": oracle["registry"],
                   "kills": outcomes, "all_equivalent": True},
                  handle, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Server restart: live clients reattach to the restored controller.
# ---------------------------------------------------------------------------

def db_rsl(client_host):
    return f"""
harmonyBundle DBclient where {{
    {{QS {{node server {{hostname server0}} {{seconds 9}} {{memory 20}}}}
        {{node client {{hostname {client_host}}} {{seconds 1}} {{memory 2}}}}
        {{link client server 2}}}}
    {{DS {{node server {{hostname server0}} {{seconds 1}} {{memory 20}}}}
        {{node client {{hostname {client_host}}} {{memory >=32}}
                     {{seconds 18}}}}
        {{link client server 51}}}}}}
"""


FAST_RETRIES = RetryPolicy(request_timeout_seconds=0.2, max_attempts=2,
                           backoff_initial_seconds=0.0)


def make_policy():
    return ClientCountRulePolicy(
        app_name="DBclient", bundle_name="where", threshold=3,
        below_option="QS", at_or_above_option="DS")


class TestClientReattach:
    def test_clients_rejoin_a_restarted_controller(self, tmp_path):
        cluster = Cluster.star("server0", ["c1", "c2", "c3"],
                               memory_mb=128)
        controller = AdaptationController(cluster, policy=make_policy())
        DurabilityJournal(str(tmp_path), fsync="never").attach(controller)
        server = HarmonyServer(controller, lease_seconds=60.0)
        current = {"server": server}

        def fresh_link():
            client_end, server_end = connected_pair()
            current["server"].attach(server_end)
            return client_end

        clients, options = {}, {}
        for host in ("c1", "c2", "c3"):
            client = HarmonyClient(fresh_link(),
                                   retry_policy=FAST_RETRIES,
                                   transport_factory=fresh_link)
            client.startup("DBclient")
            client.bundle_setup(db_rsl(host))
            options[host] = client.add_variable(
                "where.option", "QS", VariableType.STRING)
            clients[host] = client
        pre_crash = {host: options[host].consume()
                     for host in ("c1", "c2", "c3")}
        assert pre_crash == {"c1": "DS", "c2": "DS", "c3": "DS"}
        pre_keys = {host: client.app_key
                    for host, client in clients.items()}
        before = digest(controller)

        # The controller process dies: server gone, transports dead.
        controller.journal.close()
        server.stop()
        for client in clients.values():
            client.transport.close()

        # Restart: restore from disk, serve read-only while recovery is
        # "in flight", then open the gates.
        restored = AdaptationController.restore(
            str(tmp_path), policy=make_policy(), fsync="never")
        server2 = HarmonyServer(restored, lease_seconds=60.0,
                                recovering=True)
        current["server"] = server2

        with pytest.raises(ControllerRecoveringError):
            clients["c2"].rejoin()

        server2.complete_recovery()
        for host, client in clients.items():
            assert client.rejoin() == pre_keys[host]  # resumed, not new
            assert options[host].value == pre_crash[host] == "DS"
        assert_digests_match(digest(restored), before)
        status = clients["c1"].query_status()
        assert status["server"]["recovering"] is False
        assert status["server"]["active_sessions"] == 3
        assert status["metrics"]["controller.recovery_seconds"][
            "latest"] >= 0.0
        restored.journal.close()

    def test_read_only_mode_serves_queries_rejects_mutations(self,
                                                             tmp_path):
        cluster = Cluster.star("server0", ["c1", "c2", "c3"],
                               memory_mb=128)
        controller = AdaptationController(cluster, policy=make_policy())
        DurabilityJournal(str(tmp_path), fsync="never").attach(controller)
        server = HarmonyServer(controller)
        server.begin_recovery()

        client_end, server_end = connected_pair()
        server.attach(server_end)
        client = HarmonyClient(client_end, retry_policy=FAST_RETRIES)

        status = client.query_status()  # reads still flow
        assert status["server"]["recovering"] is True
        with pytest.raises(ControllerRecoveringError):
            client.startup("DBclient")

        server.complete_recovery()
        client.startup("DBclient")
        client.bundle_setup(db_rsl("c1"))
        assert len(controller.registry) == 1
        controller.journal.close()
