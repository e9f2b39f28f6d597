"""Unit tests for the partition index.

The serial-equivalence suite (test_optimizer_equivalence.py) proves the
partitioned sweep *decides* identically; these tests pin down the
index's own mechanics — components over reach, records, the reach memo,
and opacity — through what a sweep scores and prunes.
"""

import pytest

from repro.cluster import Cluster
from repro.controller import AdaptationController, ModelDrivenPolicy
from repro.controller.partition import bundle_key
from repro.prediction import CallableModel
from repro.prediction.models import ExplicitSpecModel
from repro.rsl.model import PerformancePoint, PerformanceSpec
from repro.rsl import build_bundle
from tests.controller.churn_scripts import make_script, run_script
from tests.controller.test_optimizer_equivalence import assert_same_decisions
from tests.oracle import unpruned
from tests.pods import POD_RSL, build_pod_cluster, pod_controller

BRIDGE_RSL = """
harmonyBundle Bridge span {
    {solo {node n {hostname p*} {seconds 30} {memory 16}}}}
"""


WHOLE_RSL = """
harmonyBundle Whole size {
    {small {node n {seconds 60} {memory 24}}}
    {large {node n {seconds 35} {memory 24} {replicate 2}}
           {communication 4}}}
"""


def placed_hosts(controller, key):
    state = controller.registry.instance(key[0]).bundle_state(key[1])
    return state.chosen.assignment.hostnames()


def live_keys(controller):
    return {bundle_key(instance, state)
            for instance in controller.registry.instances()
            for state in instance.bundles.values()}


def keys_by_pod(controller, pod):
    return {key for key in live_keys(controller)
            if key[0].startswith(f"Pod{pod}")}


def components(controller):
    """The components of every live bundle, as member sets."""
    return [members for members, _ in
            controller.partition_index.components(
                (bundle_key(instance, state), state)
                for instance in controller.registry.instances()
                for state in instance.bundles.values())]


class TestComponentStructure:
    def test_disjoint_pods_stay_separate(self):
        controller = pod_controller(pods=3, apps_per_pod=3)
        parts = components(controller)
        # One component per pod, holding that pod's bundles.
        assert sorted(map(sorted, parts)) == \
            sorted(sorted(keys_by_pod(controller, pod)) for pod in range(3))

    def test_component_reach_is_its_pod(self):
        controller = pod_controller(pods=2)
        states = [(bundle_key(instance, state), state)
                  for instance in controller.registry.instances()
                  for state in instance.bundles.values()]
        for members, reach in controller.partition_index.components(states):
            pod = next(iter(members))[0][len("Pod")]
            assert {host for host in reach if isinstance(host, str)} == \
                {f"p{pod}n{i}" for i in range(4)}

    def test_spanning_bundle_joins_two_pods(self):
        controller = pod_controller(pods=2)
        assert len(components(controller)) == 2
        bridge = controller.register_app("Bridge")
        controller.setup_bundle(bridge, BRIDGE_RSL)
        assert components(controller) == [frozenset(live_keys(controller))]
        # Nothing is maintained: once it leaves, the pods part again.
        controller.end_app(bridge)
        assert len(components(controller)) == 2

    def test_records_survive_a_newcomer_that_stamps_nothing_they_cover(
            self):
        controller = pod_controller(pods=2)
        controller.reevaluate()
        scored = scored_keys(controller)
        bridge = controller.register_app("Bridge")
        controller.setup_bundle(bridge, BRIDGE_RSL)
        # One component now, but Bridge landed on p0n0: only the pod 0
        # bundle on p0n0 covers a host its commit stamped.  The other
        # one's scan stopped at its own p0n2 and p0n3, and p0n0, busier
        # now, orders after them.
        assert len(components(controller)) == 1
        assert bridge.bundle_state("span").chosen.assignment.hostnames() \
            == {"p0n0"}
        assert scored == [("Pod0App0.1", "size"), (bridge.key, "span")]


def load(controller, hostname):
    """One external consumer on ``hostname``, as a measured change."""
    controller.set_external_cpu_load(hostname, 1.0)


def footprint_safe_curve():
    return ExplicitSpecModel(PerformanceSpec(
        points=(PerformancePoint(1.0, 60.0), PerformancePoint(2.0, 60.0))))


class TestWatermarks:
    def test_records_hold_until_a_key_they_cover_is_stamped(self):
        controller = pod_controller(pods=2)
        controller.reevaluate()
        scored = scored_keys(controller)
        # A change on p1n0 re-scores only the bundle running there: the
        # other pod 1 bundle's scan stopped at its own p1n2 and p1n3,
        # and p1n0, busier now, orders after them.
        load(controller, "p1n0")
        pruned = controller.stats.pruned_bundles
        controller.reevaluate()
        assert scored == [("Pod1App2.3", "size")]
        assert controller.stats.pruned_bundles == pruned + 3

    def test_an_engine_epoch_move_dirties_everything(self):
        controller = pod_controller(pods=2)
        controller.reevaluate()
        scored = scored_keys(controller)
        pruned = controller.stats.pruned_bundles
        # A model registration moves the engine epoch: no record holds.
        controller.register_model(controller.registry.instances()[0],
                                  "size", footprint_safe_curve())
        controller.reevaluate()
        assert sorted(scored) == sorted(live_keys(controller))
        assert controller.stats.pruned_bundles == pruned

    def test_pair_watermark_holds_until_a_member_key_is_stamped(self):
        controller = pod_controller(pods=2)      # 2 + 2 bundles: 6 pairs
        controller.policy.pairwise_exchange = True
        controller.reevaluate()
        searched = controller.stats.pairs_evaluated
        controller.reevaluate()
        assert controller.stats.pairs_evaluated == searched
        # Pod 1 changed: its own pair is searched again, and only that —
        # the four cross-pod pairs are between bundles at their optimum.
        load(controller, "p1n0")
        pruned = controller.stats.pruned_pairs
        controller.reevaluate()
        assert controller.stats.pairs_evaluated == searched + 1
        assert controller.stats.pruned_pairs == pruned + 5

    def test_a_failure_rescores_only_its_pod(self):
        controller = AdaptationController(
            build_pod_cluster(2, nodes_per_pod=6),
            policy=ModelDrivenPolicy(pairwise_exchange=False))
        for number in range(4):
            instance = controller.register_app(f"Pod{number % 2}App{number}")
            controller.setup_bundle(
                instance, POD_RSL.format(pod=number % 2, index=number))
        controller.reevaluate()
        placed = {host for key in live_keys(controller)
                  for host in placed_hosts(controller, key)}
        empty = sorted({f"p1n{i}" for i in range(6)} - placed)[0]
        scored = scored_keys(controller)
        pruned = controller.stats.pruned_bundles
        # Nothing runs there, so no commit stamps it; the failure does.
        # Each pod 1 bundle's scan stopped at its own two hosts, before
        # the idle host: a host it never examined, which orders after
        # them still, so every record holds.
        assert controller.handle_node_failure(empty) == []
        assert controller._engine._stamps[empty] == controller._engine._clock
        assert scored == []
        assert controller.stats.pruned_bundles == pruned + 4

    def test_a_newcomer_reopens_the_pairs_of_what_it_joins(self):
        """Bridge lands in a third, empty pod, outside every settled
        component's keys, but joins both: the merged member set has no
        record, so all ten pairs are searched."""
        controller = AdaptationController(build_pod_cluster(3))
        for number in range(4):
            instance = controller.register_app(f"Pod{number % 2}App{number}")
            controller.setup_bundle(
                instance, POD_RSL.format(pod=number % 2, index=number))
        controller.reevaluate()
        before = controller.stats.snapshot()
        bridge = controller.register_app("Bridge")
        state = controller.setup_bundle(bridge, BRIDGE_RSL)
        assert state.chosen.assignment.hostnames() == {"p2n0"}
        assert len(components(controller)) == 1
        stats = controller.stats
        assert stats.pairs_evaluated - before["pairs_evaluated"] == 10
        assert stats.pruned_pairs == before["pruned_pairs"]


    def test_a_link_only_a_whole_cluster_member_reads_reopens_its_pairs(
            self):
        """Whole's reach is every host and no link, and no pod 1 bundle
        covers the link it communicates over: the settled component's
        record covers that link through Whole's reads alone."""
        controller = AdaptationController(
            build_pod_cluster(2, nodes_per_pod=2))
        pod = controller.register_app("Pod0App0")
        controller.setup_bundle(pod, POD_RSL.format(pod=0, index=0))
        whole = controller.register_app("Whole")
        state = controller.setup_bundle(whole, WHOLE_RSL)
        assert state.chosen.assignment.hostnames() == {"p1n0", "p1n1"}
        assert len(components(controller)) == 1
        controller.reevaluate()
        controller.reevaluate()
        stats = controller.stats
        searched, pruned = stats.pairs_evaluated, stats.pruned_pairs
        controller.set_external_link_load("p1n0", "p1n1", 1.0)
        controller.reevaluate()
        assert state.chosen.option_name == "large"
        assert stats.pairs_evaluated == searched + 1
        assert stats.pruned_pairs == pruned


class TestLifecycle:
    def test_topology_change_dirties_everything(self):
        controller = pod_controller(pods=2)
        controller.reevaluate()
        scored = scored_keys(controller)
        controller.cluster.add_node("p0n9", memory_mb=256.0)
        controller.cluster.add_link("p0n9", "p0n0", bandwidth_mbps=100.0)
        controller.reevaluate()
        assert sorted(scored) == sorted(live_keys(controller))


    def test_an_emptied_pod_leaves_no_record(self):
        controller = pod_controller(pods=2)
        controller.policy.pairwise_exchange = True
        controller.reevaluate()
        index = controller.partition_index

        def named(pod):
            return {key for record in index._no_ops for key in
                    (record if isinstance(record, frozenset) else [record])
                    if key[0].startswith(f"Pod{pod}")}

        assert named(1) == keys_by_pod(controller, 1)
        for instance in controller.registry.instances():
            if instance.key.startswith("Pod1"):
                controller.end_app(instance)
        assert named(1) == set()
        assert named(0) == keys_by_pod(controller, 0) == set(index._reach)


def scored_keys(controller):
    """Record every bundle the sweep scores (evaluates, not prunes)."""
    scored = []
    policy = controller.policy
    evaluate = policy._reevaluate_bundle_outcome

    def counting(controller, instance, state):
        scored.append((instance.key, state.bundle.bundle_name))
        return evaluate(controller, instance, state)

    policy._reevaluate_bundle_outcome = counting
    return scored


#: Admissions and departures a churn round makes in one pod.
CHURN_ROUNDS = 16


def churn(controller, pod=0):
    """Admit and end apps in one pod, one at a time.

    Returns the bundles the last departure's sweep scored and the
    optimizer counters from just before it.
    """
    for round_index in range(CHURN_ROUNDS):
        app = controller.register_app(f"Churn{round_index}")
        controller.setup_bundle(
            app, POD_RSL.format(pod=pod, index=100 + round_index))
        if round_index == CHURN_ROUNDS - 1:
            before = controller.stats.snapshot()
            scored = scored_keys(controller)
        controller.end_app(app)
    return scored, before


class TestChurnKeepsWhatItProved:
    """Churn in one pod stamps nothing another pod's evaluations read,
    and records name bundles and member sets, so every other pod's
    records and settled pairs survive it.
    """

    def test_only_the_churned_pod_is_scored(self):
        controller = pod_controller(pods=12, apps_per_pod=1)
        controller.reevaluate()
        scored, before = churn(controller)
        # The departure frees hosts the pod 0 bundle's scan stopped
        # before: idle now, they order after its own p0n0 and p0n1.
        # The eleven other pods were proved clean before the churn.
        assert scored == []
        assert controller.stats.pruned_bundles - \
            before["pruned_bundles"] == 12

    def test_settled_pods_keep_their_pairs(self):
        controller = pod_controller(pods=6, apps_per_pod=2)
        controller.policy.pairwise_exchange = True
        controller.reevaluate()
        scored, before = churn(controller)
        # The departure frees p0n0 and p0n1 only: Pod0App1's scan
        # stopped at its own p0n2 and p0n3, which still order first.
        assert scored == [("Pod0App0.1", "size")]
        # Twelve bundles, 66 pairs: only pod 0's own pair is searched
        # again; the other five pods stayed settled through the churn.
        stats = controller.stats
        assert stats.pairs_evaluated - before["pairs_evaluated"] == 1
        assert stats.pruned_pairs - before["pruned_pairs"] == 65

    def test_bridge_departure_rescores_once_then_stays_clean(self):
        controller = pod_controller(pods=2)
        bridge = controller.register_app("Bridge")
        controller.setup_bundle(bridge, BRIDGE_RSL)
        scored = scored_keys(controller)
        controller.end_app(bridge)
        # The departure stamps the host Bridge held, p0n0: the bundle
        # that covers it re-scores and takes p0n0 back, so p0n0 orders
        # after the other pod 0 bundle's p0n2 and p0n3 again.  That move
        # re-scores it once more; once settled, nothing is scored again.
        controller.reevaluate()
        assert scored == [("Pod0App0.1", "size")] * 2
        del scored[:]
        controller.reevaluate()
        assert scored == []
        assert len(components(controller)) == 2
        pruned = controller.stats.pruned_bundles
        controller.reevaluate()
        assert scored == []
        assert controller.stats.pruned_bundles == pruned + 4

    def test_a_late_bundle_rescores_only_its_pod(self):
        controller = pod_controller(pods=2)
        controller.reevaluate()
        # Registered and placed without setup_bundle: the records, not
        # any membership table, decide what re-scores.
        late = controller.register_app("Late")
        state = controller.registry.add_bundle(
            late, build_bundle(POD_RSL.format(pod=0, index=9)))
        controller.policy.configure_new_bundle(controller, late, state)
        scored = scored_keys(controller)
        controller.reevaluate()
        # The newcomer took p0n0 and p0n1: the pod 0 bundle there
        # re-scores, the other's scan stopped at its own p0n2 and p0n3,
        # which still order first.  Pod 1 stays clean.
        assert scored == [("Pod0App0.1", "size"), (late.key, "size")]


class TestReach:
    def test_topology_changes_grow_no_table(self):
        """Reach reuses the matcher's pattern memo, which a topology
        change overwrites: twenty new hosts leave every table of the
        index and the memo the size they were."""
        controller = pod_controller(pods=3, apps_per_pod=1)
        index = controller.partition_index
        controller.reevaluate()

        def sizes():
            tables = {name: len(table) for name, table in vars(index).items()
                      if isinstance(table, dict)}
            tables["matcher"] = len(controller.matcher._pattern_memo)
            return tables

        before = sizes()
        assert before["matcher"] == 3
        for number in range(20):
            controller.cluster.add_node(f"p{number % 3}n{10 + number}",
                                        memory_mb=256.0)
            controller.reevaluate()
        assert sizes() == before

    def test_reach_follows_patterns_and_topology(self):
        controller = pod_controller(pods=2, apps_per_pod=1)
        index = controller.partition_index
        pod0 = controller.registry.instances()[0]
        state = pod0.bundle_state("size")
        key = (pod0.key, "size")
        hosts = {f"p0n{i}" for i in range(4)}
        # ``large`` communicates, so the links among the hosts are in too.
        assert index._reach_of(key, state) == hosts | {
            frozenset((a, b)) for a in hosts for b in hosts if a < b}
        controller.cluster.add_node("p0n9", memory_mb=256.0)
        controller.cluster.add_node("p1n9", memory_mb=256.0)
        controller.reevaluate()
        assert {h for h in index._reach_of(key, state)
                if isinstance(h, str)} == hosts | {"p0n9"}
        bridge = controller.register_app("Bridge")
        state = controller.setup_bundle(bridge, BRIDGE_RSL)
        assert index._reach_of((bridge.key, "span"), state) == \
            set(controller.cluster.hostnames())


class TestPrunability:
    def test_decomposable_objective_is_prunable(self):
        controller = pod_controller(pods=2)
        index = controller.partition_index
        assert index.prunable(controller.objective)

    def test_custom_model_disables_pruning(self):
        controller = pod_controller(pods=2)
        index = controller.partition_index
        instance = controller.registry.instances()[0]
        controller.register_model(
            instance, "size",
            CallableModel(lambda demands, assignment, view: 42.0))
        controller.reevaluate()  # the engine re-derives opacity on a read
        assert not index.prunable(controller.objective)

    def test_pruned_sweep_skips_clean_partitions(self):
        controller = pod_controller(pods=2, apps_per_pod=2)
        controller.reevaluate()  # settle; everything marked clean
        pruned_before = controller.stats.pruned_bundles
        controller.reevaluate()
        assert controller.stats.pruned_bundles >= pruned_before + 4



FLAT_RSL = """
harmonyBundle {name} size {{
    {{solo {{node n {{hostname {hosts}}} {{seconds {seconds}}}
            {{memory 16}}}}}}}}
"""


def flat_admit(controller, name, hosts="*", seconds=60):
    instance = controller.register_app(name)
    controller.setup_bundle(instance, FLAT_RSL.format(
        name=name, hosts=hosts, seconds=seconds))
    return instance


def flat_scene(serial=False):
    """Eight one-node apps on an eight-host mesh, ``App<i>`` on ``n<i>``:
    each one's match stops at its own, idle host."""
    controller = AdaptationController(
        Cluster.full_mesh([f"n{i}" for i in range(8)], memory_mb=256.0))
    if serial:
        unpruned(controller)
    live = [flat_admit(controller, f"App{i}") for i in range(8)]
    assert [placed_hosts(controller, (instance.key, "size"))
            for instance in live] == [{f"n{i}"} for i in range(8)]
    return controller, live


def key_of(instance):
    return (instance.key, "size")


class TestDisplacedRecords:
    """A departure frees ``n3``, which now orders before the host where
    the scans of ``App4``..``App7`` stopped: each is matched and scored,
    a stable no-op whose new record covers ``n3``.  The arrival that
    fills ``n3`` again voids that record, but puts ``n3`` back past the
    boundary of the one it displaced, which holds again.
    """

    def depart(self, controller, live):
        scored = scored_keys(controller)
        controller.end_app(live[3])
        assert scored == [key_of(instance) for instance in live[4:]]
        index = controller.partition_index
        assert set(index._displaced) == set(scored)
        return scored

    def test_an_arrival_on_the_freed_host_prunes_what_departure_scored(
            self):
        controller, live = flat_scene()
        scored = self.depart(controller, live)
        del scored[:]
        before = controller.stats.pruned_bundles
        newcomer = flat_admit(controller, "New")
        assert placed_hosts(controller, key_of(newcomer)) == {"n3"}
        # Only the newcomer, which has no record yet, is scored: the
        # four the departure scored hold on their displaced records.
        assert scored == [key_of(newcomer)]
        assert controller.stats.pruned_bundles - before == 7
        # The records they swapped out covered n3, which the arrival
        # stamped: none can hold again, so none is kept.
        assert controller.partition_index._displaced == {}

    @pytest.mark.parametrize("change", ["covered-arrival", "topology"])
    def test_what_voids_the_displaced_record_rescores(self, change):
        def run(serial):
            controller, live = flat_scene(serial)
            if serial:
                controller.end_app(live[3])
            else:
                self.depart(controller, live)
            scored = scored_keys(controller)
            if change == "covered-arrival":
                # Memory only, on App5's host: a stamp on what App5's
                # scoring read, in both its records.
                flat_admit(controller, "Hog", hosts="n5", seconds=0)
                voided = [key_of(live[5])]
            else:
                controller.cluster.add_node("n8", memory_mb=256.0)
                controller.reevaluate()
                voided = [key_of(instance) for instance in live
                          if instance is not live[3]]
            return controller, scored, voided

        controller, scored, voided = run(serial=False)
        assert set(voided) <= set(scored)
        # Re-scored to the same stable no-op: the record it replaced is
        # void, so none is kept.
        assert not set(voided) & set(controller.partition_index._displaced)
        assert_same_decisions(controller, run(serial=True)[0])

    def test_remove_app_drops_the_displaced_record(self):
        controller, live = flat_scene()
        self.depart(controller, live)
        index = controller.partition_index
        controller.end_app(live[5])
        assert key_of(live[5]) not in index._displaced
        assert set(index._displaced) == {key_of(live[4]), key_of(live[6]),
                                         key_of(live[7])}


#: Seeds of each churn-script family of the equivalence suites: the
#: default draw, inexact demands, link loads, memory pressure and long
#: scripts.  Their random pods seldom refill a host a departure freed;
#: all but the default and 64-96-128 seeds here prune on a displaced
#: record at least once.
FAMILIES = {
    "default": [make_script(0)],
    "inexact": [make_script(seed, exact=False) for seed in (4, 10)],
    "link-loads": [make_script(seed, link_loads=True) for seed in (1, 5)],
    "memory-120": [make_script(1, memories=(120,))],
    "memory-64-96-128": [make_script(18, memories=(64, 96, 128))],
    "long": [make_script(seed, length=160) for seed in (0, 1)],
}


def flat_churn(controller, rounds=24):
    """Twelve two-option apps on an eight-host mesh; each round ends
    the oldest and admits the next, which fills the room it freed."""
    live = []
    for index in range(12 + rounds):
        if len(live) == 12:
            controller.end_app(live.pop(0))
        instance = controller.register_app(f"App{index}")
        controller.setup_bundle(instance, WHOLE_RSL.replace(
            "Whole", f"App{index}"))
        live.append(instance)
    return controller


def count_fallbacks(fallbacks):
    """Append the key of every bundle pruned on its displaced record."""
    def prepare(controller):
        index = controller.partition_index
        holds = index.holds

        def counting(key, state):
            latest = index._no_ops.get(key)
            hit = holds(key, state)
            if hit and index._no_ops[key] is not latest:
                fallbacks.append(key)
            return hit

        index.holds = counting

    return prepare


@pytest.mark.parametrize("pairwise", [True, False],
                         ids=["pairwise", "greedy"])
def test_displaced_records_decide_as_the_oracle(pairwise):
    """The churn-script families and a flat churn prune on displaced
    records, and decide as the serial oracle does."""
    pruned_on = {}
    for family, scripts in FAMILIES.items():
        fallbacks = pruned_on[family] = []
        for script in scripts:
            product = run_script(script, pairwise=pairwise,
                                 prepare=count_fallbacks(fallbacks))
            assert_same_decisions(
                product, run_script(script, pairwise=pairwise, serial=True))
    fallbacks = pruned_on["flat"] = []

    def flat(serial):
        controller = AdaptationController(
            Cluster.full_mesh([f"n{i}" for i in range(8)], memory_mb=256.0),
            policy=ModelDrivenPolicy(pairwise_exchange=pairwise))
        if serial:
            unpruned(controller)
        else:
            count_fallbacks(fallbacks)(controller)
        return flat_churn(controller)

    assert_same_decisions(flat(False), flat(True))
    assert len(pruned_on["flat"]) > 24
    assert sum(map(bool, pruned_on.values())) >= 5, pruned_on
