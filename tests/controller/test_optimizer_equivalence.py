"""Equivalence: every optimization fast path decides like its oracle.

Two stacked contracts, each against an oracle from ``tests.oracle``:

* The trial engine (transactional trials on the live ``SystemView``,
  delta prediction, cached candidate instantiation) must make *identical
  decisions* to the from-scratch evaluation (``NaiveGreedyOptimizer``).
  Both sides run with pruning off (``unpruned``) so the candidate-count
  equality holds exactly.

* The partitioned sweep (connected-component pruning, clean-skip
  watermarks) must make identical decisions to the same sweep with
  pruning off (the serial oracle) — same decision log bytes, placements,
  predictions, and objective — while provably skipping work.  The pod
  scenarios give it real structure (disjoint hostname-pattern pods), and
  the merge scenario registers a bundle whose pattern spans every pod
  mid-run, forcing a partition merge while earlier watermarks exist.
"""

import pytest

from repro.cluster import Cluster
from repro.controller import AdaptationController, ModelDrivenPolicy
from tests.oracle import unpruned
from tests.oracle.naive import NaiveGreedyOptimizer
from tests.pods import POD_RSL, build_pod_cluster

# -- scenario builders ------------------------------------------------------

BAG_RSL = """
harmonyBundle Bag run {
    {run {node worker {seconds {2400 / workerNodes + 12 * (workerNodes - 1)}}
                      {memory 32} {replicate workerNodes}}
         {communication {0.5 * workerNodes * workerNodes}}
         {variable workerNodes {1 2 3 4 5 6 7 8}}}}
"""

ELASTIC_RSL = """harmonyBundle DBclient where {
    {QS {node server {hostname server0} {seconds 42} {memory 20}}
        {node client {hostname c*} {seconds 1} {memory 2}}
        {link client server 2}}
    {DS {node server {hostname server0} {seconds 1} {memory 20}}
        {node client {hostname c*} {memory >=17} {seconds 9}}
        {link client server
            {44 + 17 - (client.memory > 24 ? 24 : client.memory)}}}}
"""

TWO_OPTION_RSL = """
harmonyBundle App{index} size {{
    {{small {{node n {{seconds 60}} {{memory 24}}}}}}
    {{large {{node n {{seconds 35}} {{memory 24}} {{replicate 2}}}}
            {{communication 4}}}}}}
"""


def unpruned_controller(cluster, naive: bool, **policy):
    """A serial-oracle controller, scored from scratch when ``naive``."""
    optimizer = NaiveGreedyOptimizer() if naive else None
    return unpruned(AdaptationController(
        cluster, policy=ModelDrivenPolicy(optimizer=optimizer, **policy)))


def run_bag(naive: bool, app_count: int, pairwise: bool):
    """The fig4/ablation workload: identical variable-parallelism apps
    competing for an 8-node mesh (exercises greedy + pairwise exchange)."""
    cluster = Cluster.full_mesh([f"n{i}" for i in range(8)], memory_mb=128)
    controller = unpruned_controller(cluster, naive,
                                     pairwise_exchange=pairwise)
    for index in range(app_count):
        instance = controller.register_app(f"Bag{index}")
        controller.setup_bundle(instance, BAG_RSL)
    return controller


def run_elastic(naive: bool, app_count: int, pairwise: bool):
    """The fig3 workload: QS/DS alternatives with an elastic ``memory >=``
    client demand on a scarce-bandwidth star (exercises the memory-grant
    search and link contention)."""
    cluster = Cluster.star("server0", [f"c{i}" for i in range(app_count)],
                           memory_mb=128, bandwidth_mbps=2.0)
    controller = unpruned_controller(cluster, naive,
                                     pairwise_exchange=pairwise)
    for _ in range(app_count):
        instance = controller.register_app("DBclient")
        controller.setup_bundle(instance, ELASTIC_RSL)
    return controller


def run_two_option(naive: bool, app_count: int, pairwise: bool):
    """The scale-bench workload: small/large alternatives placed by the
    controller on a 16-node mesh (exercises replica placement ordering)."""
    cluster = Cluster.full_mesh([f"n{i}" for i in range(16)],
                                memory_mb=256.0)
    controller = unpruned_controller(cluster, naive,
                                     pairwise_exchange=pairwise,
                                     max_pairwise_bundles=12)
    for index in range(app_count):
        instance = controller.register_app(f"App{index}")
        controller.setup_bundle(instance,
                                TWO_OPTION_RSL.format(index=index))
    return controller


def run_churn(naive: bool, app_count: int, pairwise: bool):
    """Arrivals plus a departure and a node failure: exercises
    re-optimization of already-placed apps and topology-driven moves."""
    cluster = Cluster.full_mesh([f"n{i}" for i in range(8)], memory_mb=128)
    controller = unpruned_controller(cluster, naive,
                                     pairwise_exchange=pairwise)
    instances = []
    for index in range(app_count):
        instance = controller.register_app(f"Bag{index}")
        controller.setup_bundle(instance, BAG_RSL)
        instances.append(instance)
    controller.end_app(instances[0])
    controller.reevaluate()
    controller.handle_node_failure("n3")
    controller.reevaluate()
    return controller


SCENARIOS = {
    "bag_greedy_2": (run_bag, 2, False),
    "bag_pairwise_2": (run_bag, 2, True),
    "bag_pairwise_3": (run_bag, 3, True),
    "bag_pairwise_4": (run_bag, 4, True),
    "elastic_greedy_3": (run_elastic, 3, False),
    "elastic_pairwise_2": (run_elastic, 2, True),
    "two_option_greedy_8": (run_two_option, 8, False),
    "two_option_pairwise_6": (run_two_option, 6, True),
    "churn_pairwise_3": (run_churn, 3, True),
}


def decisions_of(controller: AdaptationController):
    return [(record.app_key, record.old_configuration,
             record.new_configuration, record.reason)
            for record in controller.decision_log]


def chosen_of(controller: AdaptationController):
    out = {}
    for instance in controller.registry.instances():
        for bundle_name, state in instance.bundles.items():
            if state.chosen is None:
                out[instance.key, bundle_name] = None
                continue
            out[instance.key, bundle_name] = (
                state.chosen.option_name,
                dict(state.chosen.variable_assignment),
                dict(state.chosen.assignment.placements))
    return out


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_incremental_matches_naive(scenario):
    build, app_count, pairwise = SCENARIOS[scenario]
    fast = build(naive=False, app_count=app_count, pairwise=pairwise)
    slow = build(naive=True, app_count=app_count, pairwise=pairwise)

    # Identical decision sequence: same apps reconfigured, in the same
    # order, to the same configurations, for the same reasons.
    assert decisions_of(fast) == decisions_of(slow)

    # Identical final state: options, variable assignments, placements.
    assert chosen_of(fast) == chosen_of(slow)

    # Identical predictions and objective (exact — both paths evaluate
    # the same contention model over the same placements).
    predictions_fast = fast.predict_all(fast.view)
    predictions_slow = slow.predict_all(slow.view)
    assert predictions_fast == predictions_slow
    assert fast.objective.evaluate(predictions_fast) == \
        slow.objective.evaluate(predictions_slow)
    assert fast.describe_system() == slow.describe_system()

    # The point of the engine: far fewer from-scratch prediction sweeps.
    assert fast.stats.full_view_recomputes < slow.stats.full_view_recomputes
    assert fast.stats.predictions_recomputed < \
        slow.stats.predictions_recomputed
    # Both paths enumerate the same candidate space.
    assert fast.stats.candidates_evaluated == slow.stats.candidates_evaluated


# -- partitioned vs serial oracle -------------------------------------------

BRIDGE_RSL = """
harmonyBundle Bridge span {
    {solo {node n {hostname p*} {seconds 30} {memory 16}}}
    {pair {node n {hostname p*} {seconds 18} {memory 16} {replicate 2}}
          {communication 2}}}
"""


def pod_controller(cluster, serial: bool):
    controller = AdaptationController(
        cluster, policy=ModelDrivenPolicy(pairwise_exchange=False))
    return unpruned(controller) if serial else controller


def run_pods(app_count: int, serial: bool, churn: bool = True):
    """Pod-striped admissions, then a departure and a node failure."""
    pods = max(2, app_count // 16)
    cluster = build_pod_cluster(pods, nodes_per_pod=8)
    controller = pod_controller(cluster, serial)
    instances = []
    for index in range(app_count):
        pod = index % pods
        instance = controller.register_app(f"Pod{pod}App{index}")
        controller.setup_bundle(
            instance, POD_RSL.format(pod=pod, index=index))
        instances.append(instance)
    if churn:
        controller.end_app(instances[1])
        controller.reevaluate()
        controller.handle_node_failure("p0n3")
        controller.reevaluate()
        # Cluster growth bumps the topology version: the index rebuilds
        # and every partition goes dirty at once.
        for pod in range(pods):
            host = f"p{pod}n8"
            cluster.add_node(host, memory_mb=256.0)
            for i in range(8):
                cluster.add_link(host, f"p{pod}n{i}",
                                 bandwidth_mbps=100.0)
        controller.reevaluate()
    return controller


def run_pod_merge(serial: bool):
    """Two pods evolve separately, then a ``p*`` bundle spans them.

    The bridge gains a resource reach crossing every pod, so the index
    must merge the components mid-run — with clean watermarks already
    recorded on both sides — and keep deciding exactly like the serial
    sweep afterwards.
    """
    cluster = build_pod_cluster(2, nodes_per_pod=8)
    controller = pod_controller(cluster, serial)
    for index in range(8):
        pod = index % 2
        instance = controller.register_app(f"Pod{pod}App{index}")
        controller.setup_bundle(
            instance, POD_RSL.format(pod=pod, index=index))
    assert controller.partition_index.partition_count == 2
    bridge = controller.register_app("Bridge")
    controller.setup_bundle(bridge, BRIDGE_RSL)
    assert controller.partition_index.partition_count == 1
    # Post-merge churn: the merged component must stay coherent.
    controller.handle_node_failure("p1n0")
    controller.reevaluate()
    controller.end_app(bridge)
    controller.reevaluate()
    return controller


def assert_same_decisions(fast: AdaptationController,
                          slow: AdaptationController) -> None:
    assert decisions_of(fast) == decisions_of(slow)
    assert chosen_of(fast) == chosen_of(slow)
    predictions_fast = fast.predict_all(fast.view)
    predictions_slow = slow.predict_all(slow.view)
    assert predictions_fast == predictions_slow
    assert fast.objective.evaluate(predictions_fast) == \
        slow.objective.evaluate(predictions_slow)
    assert fast.describe_system() == slow.describe_system()


@pytest.mark.parametrize("app_count", [48, 96, 128])
def test_partitioned_matches_serial(app_count):
    part = run_pods(app_count, serial=False)
    serial = run_pods(app_count, serial=True)
    assert_same_decisions(part, serial)
    # The structure was actually exploited, not just tolerated.
    assert part.partition_index.partition_count > 1
    assert part.stats.partition_sweeps > 0
    assert part.stats.pruned_bundles > 0
    assert part.stats.candidates_evaluated < serial.stats.candidates_evaluated


def test_partition_merge_mid_run():
    part = run_pod_merge(serial=False)
    serial = run_pod_merge(serial=True)
    assert_same_decisions(part, serial)
    assert part.stats.pruned_bundles > 0


# -- fractional demands: where summation order could show -------------------

FRACTIONAL_RSL = """
harmonyBundle Frac{index} size {{
    {{small {{node n {{seconds {small}}} {{memory 24}}}}}}
    {{large {{node n {{seconds {large}}} {{memory 24}} {{replicate 2}}}}
            {{communication 4.5}}}}}}
"""


def run_fractional_churn(naive: bool = False, serial: bool = False):
    """Churn on a crowded mesh with non-integer ``seconds``.

    Contention sums ``min(s_j, s)`` over a node's consumers in index
    order; with 0.1-granular demands a different order (a trial that was
    skipped, a rollback that re-appended) moves the last bits of a
    prediction.  Every path must still decide identically.
    """
    cluster = Cluster.full_mesh([f"n{i}" for i in range(6)], memory_mb=256.0)
    if naive or serial:
        controller = unpruned_controller(cluster, naive,
                                         pairwise_exchange=True)
    else:
        controller = AdaptationController(
            cluster, policy=ModelDrivenPolicy(pairwise_exchange=True))
    live = []

    def admit(index):
        instance = controller.register_app(f"Frac{index}")
        controller.setup_bundle(instance, FRACTIONAL_RSL.format(
            index=index, small=f"{60.1 + 0.7 * (index % 5):.1f}",
            large=f"{33.3 + 0.3 * (index % 4):.1f}"))
        live.append(instance)

    for index in range(10):
        admit(index)
    for index in range(10, 16):
        controller.end_app(live.pop(0))
        admit(index)
    controller.view.set_external_cpu_load("n2", 0.5)
    controller.handle_node_failure("n4")
    controller.reevaluate()
    controller.end_app(live.pop(3))
    controller.reevaluate()
    return controller


def test_fractional_seconds_decide_identically_on_every_path():
    naive = run_fractional_churn(naive=True)
    serial = run_fractional_churn(serial=True)
    partitioned = run_fractional_churn()
    assert len(decisions_of(naive)) > 16     # reconfigurations happened
    assert decisions_of(serial) == decisions_of(naive)
    assert chosen_of(serial) == chosen_of(naive)
    # Not bit-equal, at this commit or before it: a rolled-back trial
    # re-appends its application to each node's consumer index, so the
    # incremental paths sum a node's competitors in another order than a
    # copied view does (129.60000000000002 vs 129.6).  ROADMAP N4 (3)
    # owns the canonical summation order; decisions must not wait for it.
    assert serial.predict_all(serial.view) == pytest.approx(
        naive.predict_all(naive.view), rel=1e-12, abs=0)
    assert_same_decisions(partitioned, serial)


def test_settled_reevaluation_scores_incumbents_without_a_trial():
    """Every trial recomputes at least the trialled application, so a
    sweep that trials everything recomputes at least one prediction per
    candidate.  On a settled, roomy system the only cheaper candidates
    are the ones already in place — if a no-op sweep stops undercutting
    its candidate count, the incumbent shortcut has stopped firing."""
    cluster = Cluster.full_mesh([f"n{i}" for i in range(16)],
                                memory_mb=256.0)
    controller = unpruned_controller(cluster, naive=False,
                                     pairwise_exchange=False)
    for index in range(5):
        instance = controller.register_app(f"App{index}")
        controller.setup_bundle(instance,
                                TWO_OPTION_RSL.format(index=index))
    while controller.reevaluate():
        pass
    before = controller.stats.snapshot()
    assert controller.reevaluate() == 0
    after = controller.stats.snapshot()
    candidates = after["candidates_evaluated"] - before["candidates_evaluated"]
    recomputed = after["predictions_recomputed"] \
        - before["predictions_recomputed"]
    assert candidates == 10                  # two options, five bundles
    assert 0 < recomputed < candidates
    assert after["full_view_recomputes"] == before["full_view_recomputes"]
