"""Partitioned x pairwise: the scoped pass decides like the global one.

``ModelDrivenPolicy._pairwise_pass`` skips the pairs records prove
cannot gain; with pruning off (``tests.oracle.unpruned``)
it searches every pair and is the oracle.  The seeded churn (``churn_scripts``) replays one script
against both, with the pass on and off, and requires the same decision
log — reasons included — the same configurations, predictions and
objective.  Its memory-pressure families bind memory, so an exchange
moves each bundle into space the other held and must commit whole.  The
deterministic cases below are distilled from it: one for each rule the
skips rest on, and one for the pair the pass must *not* skip.

Mutation-checked: skipping every cross-partition pair, settling a
partition on an amortisation rejection or on a granularity-blocked
pair, not bumping the epoch in ``note_apply``, a re-derivation memo or
an end-of-pass check that ignores the epoch (mechanisms since replaced
by records), ``sum`` for ``fsum``, and
the old amortisation-is-stable rule each fail tests here (the pinned
seeds are the ones that catch them).
"""

import os

import pytest

from repro.controller import (
    AdaptationController,
    FrictionPolicy,
    ModelDrivenPolicy,
)
from repro.controller.controller import MAX_PAIRWISE_BUNDLES
from repro.errors import AllocationError
from tests.controller.churn_scripts import make_script, run_script
from tests.oracle import unpruned
from tests.controller.test_optimizer_equivalence import (
    assert_same_decisions,
    chosen_of,
    decisions_of,
)
from tests.pods import build_pod_cluster

#: 0..23 plus the seeds that caught a mutation 0..23 did not;
#: CHURN_SOAK_SCRIPTS=400 widens the range for a soak.
SEEDS = sorted({*range(24), 68, 78, 95, 118, 123, 265,
                *range(int(os.environ.get("CHURN_SOAK_SCRIPTS", "0")))})


@pytest.mark.parametrize("pairwise", [True, False],
                         ids=["pairwise", "greedy"])
@pytest.mark.parametrize("seed", SEEDS)
def test_scoped_pass_matches_global_on_random_churn(seed, pairwise):
    script = make_script(seed)
    part = run_script(script, pairwise=pairwise)
    serial = run_script(script, pairwise=pairwise, serial=True)
    assert_same_decisions(part, serial)
    # Every pair the oracle searched was either searched or accounted
    # for as skipped; the oracle itself skips nothing.
    assert part.stats.pairs_evaluated + part.stats.pruned_pairs == \
        serial.stats.pairs_evaluated
    assert serial.stats.pruned_pairs == 0


@pytest.mark.parametrize("pairwise", [True, False],
                         ids=["pairwise", "greedy"])
@pytest.mark.parametrize("seed", SEEDS)
def test_scoped_pass_matches_global_on_random_churn_with_link_loads(
        seed, pairwise):
    """The same scripts with external link loads and a whole-cluster
    bundle, whose reach holds no link key: a link load must still
    reopen every record and settled component that read the link."""
    script = make_script(seed, link_loads=True)
    part = run_script(script, pairwise=pairwise)
    serial = run_script(script, pairwise=pairwise, serial=True)
    assert_same_decisions(part, serial)
    assert part.stats.pairs_evaluated + part.stats.pruned_pairs == \
        serial.stats.pairs_evaluated


def test_link_load_scripts_reach_the_pairwise_pass():
    """The link-load scripts run the pairwise pass with a link loaded,
    with the whole-cluster bundle among the pairs, and skip pairs there
    on records."""
    seen = {"loaded": 0, "unscoped": 0, "pruned": 0}

    def watch_passes(controller):
        policy = controller.policy
        pairwise_pass = policy._pairwise_pass

        def watched(controller):
            configured = [key for instance in controller.registry.instances()
                          for key, state in instance.bundles.items()
                          if state.chosen is not None]
            pruned = controller.stats.pruned_pairs
            changes = pairwise_pass(controller)
            loaded = any(controller.view.external_link_load(
                link.host_a, link.host_b) > 0
                for link in controller.cluster.links())
            if loaded and 2 <= len(configured) <= MAX_PAIRWISE_BUNDLES:
                seen["loaded"] += 1
                seen["unscoped"] += any(
                    instance.key == "A0.1" and
                    instance.bundles["size"].chosen is not None
                    for instance in controller.registry.instances())
                seen["pruned"] += controller.stats.pruned_pairs - pruned
            return changes

        policy._pairwise_pass = watched

    for seed in SEEDS[:24]:
        run_script(make_script(seed, link_loads=True), pairwise=True,
                   prepare=watch_passes)
    # Seeds 0-23 read 659 passes, 377 with A0 placed, 722 skipped pairs.
    assert seen["loaded"] > 0 and seen["unscoped"] > 0 and seen["pruned"] > 0


#: Memory families (MB per bundle) under which an exchange moves each
#: bundle into space the other one held, with the pinned seeds: each
#: stranded a bundle when an exchange committed as two applies.
#: CHURN_SOAK_SCRIPTS widens both.
MEMORY_PRESSURE = {"120": ((120,), (4, 6, 17)),
                   "64-96-128": ((64, 96, 128), (18, 20))}


def memory_pressure_cases():
    soak = range(int(os.environ.get("CHURN_SOAK_SCRIPTS", "0")))
    for family, (memories, pinned) in MEMORY_PRESSURE.items():
        for seed in sorted({*pinned, *soak}):
            yield pytest.param(memories, seed, seed in pinned,
                               id=f"{family}-{seed}")


@pytest.mark.parametrize("memories,seed,pinned", memory_pressure_cases())
def test_scoped_pass_matches_global_under_memory_pressure(memories, seed,
                                                          pinned):
    """An accepted pair commits as one decision, so an exchange never
    allocates into memory its other half still holds: no commit fails,
    and the scoped pass still decides like the global one."""
    script = make_script(seed, memories=memories)
    exchanges, failed = [], []

    def watch_commits(controller):
        # run_script absorbs an AllocationError out of setup_bundle (an
        # admission that fits nowhere); one out of a commit the optimizer
        # proved feasible must not pass for that.
        commit = controller.commit

        def watched(moves, *args, **kwargs):
            try:
                commit(moves, *args, **kwargs)
            except AllocationError:
                failed.append(moves)
                raise
            if len(moves) > 1:
                exchanges.append(moves)

        controller.commit = watched

    part = run_script(script, pairwise=True, prepare=watch_commits)
    serial = run_script(script, pairwise=True, serial=True,
                        prepare=watch_commits)
    assert failed == []
    assert_same_decisions(part, serial)
    if pinned:
        assert exchanges


@pytest.mark.parametrize("seed", SEEDS[:12])
def test_scoped_pass_matches_global_on_inexact_demands(seed):
    """55.3-style demands, not binary-exact: a skipped trial changes the
    order a node's consumers were indexed in, but the sojourn sums are
    correctly rounded (``math.fsum``), so predictions and objective are
    bit-equal to the serial oracle's, not just close."""
    script = make_script(seed, exact=False)
    part = run_script(script, pairwise=True)
    serial = run_script(script, pairwise=True, serial=True)
    assert decisions_of(part) == decisions_of(serial)
    assert chosen_of(part) == chosen_of(serial)
    assert part.predict_all(part.view) == serial.predict_all(serial.view)
    assert part.current_objective() == serial.current_objective()


#: Long scripts: records and settled member sets outlive many
#: departures, each of which drops only what named the departed bundle.
LONG_SCRIPT = 160
LONG_SEEDS = SEEDS[:4]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "inexact"])
@pytest.mark.parametrize("pairwise", [True, False],
                         ids=["pairwise", "greedy"])
@pytest.mark.parametrize("seed", LONG_SEEDS)
def test_long_scripts_keep_only_what_they_proved(seed, pairwise, exact):
    script = make_script(seed, exact=exact, length=LONG_SCRIPT)
    part = run_script(script, pairwise=pairwise)
    serial = run_script(script, pairwise=pairwise, serial=True)
    assert_same_decisions(part, serial)


def test_churn_scripts_reach_what_they_claim():
    """The pinned scripts skip pairs, search pairs, exchange, join
    every pod into one component under an unscoped bundle and hit the
    amortisation gate."""
    joined = []

    def watch_components(controller):
        index = controller.partition_index
        components = index.components

        def watched(entries):
            parts = components(entries)
            # Pods are p0..p3: a reach with hosts of two joins them.
            joined.extend(len({host[:2] for host in reach
                               if isinstance(host, str)}) > 1
                          for _, reach in parts)
            return parts

        index.components = watched

    runs = [run_script(make_script(seed), pairwise=True,
                       prepare=watch_components)
            for seed in SEEDS[:24]]
    assert sum(run.stats.pruned_pairs for run in runs) > 1000
    assert sum(run.stats.pairs_evaluated for run in runs) > 1000
    reasons = [trace.trigger for run in runs
               for trace in run.trace_log.traces()]
    assert reasons.count("pairwise exchange") > 50
    assert any("friction 40s" in reason or "friction 400s" in reason
               for reason in reasons)
    assert any(joined)


# -- deterministic regressions -----------------------------------------------

SIZE_RSL = """
harmonyBundle {name} size {{
    {{small {{node n {{hostname p{pod}n*}} {{seconds {small}}}
             {{memory 24}}}}}}
    {{large {{node n {{hostname p{pod}n*}} {{seconds {large}}} {{memory 24}}
             {{replicate 2}}}}
            {{communication 4}} {{friction {friction}}}}}}}
"""

QUICK_RSL = """
harmonyBundle {name} only {{
    {{quick {{node n {{hostname p1n*}} {{seconds 10}} {{memory 24}}}}}}}}
"""


def admit(controller, name, rsl=SIZE_RSL, pod=0, small=60, large=35,
          friction=0):
    instance = controller.register_app(name)
    controller.setup_bundle(instance, rsl.format(
        name=name, pod=pod, small=small, large=large, friction=friction))
    return instance


def held_back_controller(serial, pairwise, third=SIZE_RSL):
    """``X`` sits on ``small`` with a move to ``large`` the amortisation
    gate rejects: gain (60 - 35.04) / 3 apps = 8.32 s a job, 17.1 jobs
    of 35.04 s in the 600 s horizon, 142 s against ``{friction 150}``.

    ``X`` got there by arriving while half of pod 0 was down; pod 1
    holds the two other applications the mean divides by.
    """
    controller = AdaptationController(
        build_pod_cluster(2, nodes_per_pod=2),
        policy=ModelDrivenPolicy(pairwise_exchange=pairwise),
        friction_policy=FrictionPolicy(amortization_seconds=600.0,
                                       min_relative_gain=0.0))
    if serial:
        unpruned(controller)
    controller.handle_node_failure("p0n1")
    admit(controller, "X", friction=150)
    admit(controller, "Y", rsl=third, pod=1)
    last = admit(controller, "Z", pod=1)
    controller.handle_node_restored("p0n1")
    return controller, last


@pytest.mark.parametrize("serial", [False, True],
                         ids=["partitioned", "serial"])
def test_departure_elsewhere_reopens_an_amortisation_rejection(serial):
    """Rule (3).  ``Z`` leaving pod 1 touches nothing ``X`` reads, but
    the mean now divides by 2: the same move gains 12.5 s a job, 214 s
    amortised, and passes.  A record that called the rejection stable
    (as the partitioned sweep's did) never looks again."""
    controller, last = held_back_controller(serial, pairwise=False)
    assert controller.trace_log.traces_recorded == len(controller.trace_log)
    assert [trace.new_configuration
            for trace in controller.trace_log.traces()] == \
        ["small", "large", "large"]          # X held back so far
    controller.end_app(last)
    assert decisions_of(controller)[-1] == (
        "X.1", "small", "large",
        "reevaluation (gain 12.5s, friction 150s)")


@pytest.mark.parametrize("serial", [False, True],
                         ids=["partitioned", "serial"])
def test_rejected_gain_still_pairs_across_partitions(serial):
    """What rule (1) must not skip.  Paired with a 10 s application of
    the other pod, the same rejected move amortises over ``min`` of the
    two responses — 60 jobs, 499 s — and goes through as an exchange
    whose other half stays put.  Only bundles with nothing to gain alone
    may be left out of the cross-partition pairs."""
    controller, _ = held_back_controller(serial, pairwise=True,
                                         third=QUICK_RSL)
    assert decisions_of(controller)[-1] == (
        "X.1", "small", "large", "pairwise exchange")


def run_zero_hysteresis(serial):
    controller = AdaptationController(
        build_pod_cluster(2, nodes_per_pod=4),
        policy=ModelDrivenPolicy(pairwise_exchange=True),
        friction_policy=FrictionPolicy(min_relative_gain=0.0))
    if serial:
        unpruned(controller)
    # X lands on p0n1 + p0n2; once p0n0 is back, p0n0 + p0n1 is another
    # placement with the very same predictions.
    controller.handle_node_failure("p0n0")
    admit(controller, "X", small=61.5, large=34.25)
    controller.handle_node_restored("p0n0")
    for index, (small, large) in enumerate(
            [(61.5, 33.3), (55.3, 34.25), (60.1, 34.25)]):
        admit(controller, f"Y{index}", pod=1, small=small, large=large)
    # The pair searches above left the view's applications in another
    # order than the cached predictions; nothing has changed since.
    controller.reevaluate()
    return controller


def test_zero_hysteresis_sees_no_gain_in_an_equal_placement():
    """Rule (4).  Summed left to right, the same predictions in two
    orders differ by 7e-15, which zero hysteresis applied as ``X large
    -> large`` — on the serial sweep only, the partitioned one having
    skipped ``X``.  An order-independent sum reads no gain on either."""
    part = run_zero_hysteresis(serial=False)
    serial = run_zero_hysteresis(serial=True)
    assert_same_decisions(part, serial)
    assert [decision for decision in decisions_of(serial)
            if decision[1] == decision[2]] == []
