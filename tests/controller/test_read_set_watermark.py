"""Records: a sweep re-scores only what it can see changed.

A bundle whose last evaluation was a stable no-op keeps one record:
what its scoring read, and what its match examined.  While no key it
covers has been stamped since, the sweep prunes it before the match
(``TrialEngine.holds``); when one has, it is matched and scored.  Each
test below changes one thing such an evaluation reads — every bundle
here is pinned to named hosts, so load never reorders a match — and
checks that the bundle is evaluated again and decides as the serial
oracle (``tests.oracle.unpruned``) does.  ``unscored`` lists the skips.

The scene, CPU only, no pairwise pass, on a five-node mesh ``n0``–``n4``
or on two pods (``p0n*`` and ``p1n*``, no link between them) whose hosts
play the same roles:

* ``Blocker`` on n0 and ``Reader`` on n1 and n3 (its far host, in the
  other pod);
* ``Mover`` may run on n0 or n1.  Either costs the objective the same,
  so it stays on n0 in a stable no-op that reads n0, n1 and n3;
* ``Bystander`` (n2 or n3) joins on n2, a host outside ``Mover``'s reach
  and reads: the sweep after it does not even match ``Mover``.

Mutation-checked: a commit that does not stamp what it wrote, a check
that compares epochs before reading the prediction cache and a read set
of the candidates' own hosts each fail a test here; so do a commit that
stamps CPU hosts but not the hosts its allocations hold memory on, a
node failure or restoration or an external load that stamps nothing,
and a record that covers its reach but not its reads.
"""

import pytest

from repro.cluster import Cluster
from repro.controller import (
    AdaptationController,
    MaxResponseTime,
    ModelDrivenPolicy,
)
from repro.metrics.collectors import node_metric_name
from repro.prediction.models import CallableModel, ExplicitSpecModel
from repro.rsl.model import PerformancePoint, PerformanceSpec
from repro.controller.controller import _at_optimum
from repro.controller.optimizer import OptimizationResult
from tests.controller.churn_scripts import make_script, run_script
from tests.controller.test_optimizer_equivalence import assert_same_decisions
from tests.oracle import unpruned
from tests.pods import build_pod_cluster

#: Layout -> role -> hostname.  The roles are the mesh's host names.
LAYOUTS = {
    "mesh": {f"n{i}": f"n{i}" for i in range(5)},
    "pods": {"n0": "p0n0", "n1": "p0n1", "n4": "p0n2",
             "n2": "p1n0", "n3": "p1n1"},
}


def build_cluster(layout):
    if layout == "mesh":
        return Cluster.full_mesh([f"n{i}" for i in range(5)],
                                 memory_mb=128.0)
    return build_pod_cluster(2, nodes_per_pod=3)


def reader_rsl(hosts):
    return f"""
harmonyBundle Reader where {{
    {{span {{node x {{hostname {hosts["n1"]}}} {{seconds 10}} {{memory 16}}}}
          {{node y {{hostname {hosts["n3"]}}} {{seconds 10}} {{memory 16}}}}}}}}
"""


def pinned(name, seconds, *hosts, memory=16):
    """One option per host, each a single demand pinned there."""
    options = " ".join(
        f"{{{on(host)} {{node x {{hostname {host}}} "
        f"{{seconds {seconds}}} {{memory {memory}}}}}}}" for host in hosts)
    return f"harmonyBundle {name} where {{ {options} }}"


def on(host):
    return f"on{host.upper()}"


def admit(controller, name, rsl):
    instance = controller.register_app(name)
    controller.setup_bundle(instance, rsl)
    return instance


def unscored(controller):
    """Names of the apps whose sweep evaluation was not scored, in order:
    those pruned before the match."""
    names = []
    index = controller.partition_index
    holds = index.holds

    def pruning(key, state):
        hit = holds(key, state)
        if hit:
            names.append(controller.registry.instance(key[0]).app_name)
        return hit

    index.holds = pruning
    return names


def scene(serial=False, objective=None, layout="mesh"):
    hosts = LAYOUTS[layout]
    controller = AdaptationController(
        build_cluster(layout), objective=objective,
        policy=ModelDrivenPolicy(pairwise_exchange=False))
    if serial:
        unpruned(controller)
    skipped = unscored(controller)
    admit(controller, "Blocker", pinned("Blocker", 10, hosts["n0"]))
    admit(controller, "Reader", reader_rsl(hosts))
    admit(controller, "Mover", pinned("Mover", 10, hosts["n0"], hosts["n1"]))
    admit(controller, "Bystander",
          pinned("Bystander", 30, hosts["n2"], hosts["n3"]))
    assert option_of(controller, "Mover") == on(hosts["n0"])
    assert option_of(controller, "Bystander") == on(hosts["n2"])
    return controller, skipped


def option_of(controller, name):
    for instance in controller.registry.instances():
        if instance.app_name == name:
            return instance.bundle_state("where").chosen.option_name
    raise KeyError(name)


def instance_named(controller, name):
    return next(instance for instance in controller.registry.instances()
                if instance.app_name == name)


def both(change, layout="mesh"):
    """Run ``change(controller, unscored)`` on the product and on the
    serial oracle, check they decided alike, and return the product and
    the apps it left unscored during ``change``."""
    product, skipped = scene(layout=layout)
    oracle, oracle_skipped = scene(serial=True, layout=layout)
    assert "Mover" in skipped         # Bystander's sweep left it unscored
    del skipped[:]
    change(product, skipped)
    change(oracle, oracle_skipped)
    assert_same_decisions(product, oracle)
    assert oracle_skipped == []
    return product, skipped


def test_a_write_the_bundle_does_not_read_leaves_it_unscored():
    controller, skipped = scene()
    # Each arrival's sweep prunes the bundles whose scan and reads it
    # did not stamp.  Mover's arrival on n0 stamps Blocker's one host:
    # Blocker is matched and scored again, a stable no-op.  Bystander's
    # on n2 stamps nothing the others cover: all three are pruned.
    assert skipped == ["Blocker", "Reader", "Blocker", "Reader", "Mover"]
    before = controller.stats.snapshot()
    # Nothing changed at all: every record holds, nobody is matched.
    controller.reevaluate()
    after = controller.stats.snapshot()
    assert after["match_calls"] == before["match_calls"]
    assert after["pruned_bundles"] == before["pruned_bundles"] + 4


def test_a_bundle_that_is_matched_is_scored():
    """No skip after the match: optimizing any bundle of the settled
    scene scores every candidate it matched and finds it at its optimum."""
    controller, _ = scene()
    optimizer = controller.policy.optimizer
    for instance in controller.registry.instances():
        state = instance.bundle_state("where")
        result = optimizer.optimize_bundle(
            instance, state, controller.optimization_context())
        assert isinstance(result, OptimizationResult)
        assert result.candidates_evaluated == len(result.evaluated) > 0
        assert all(candidate.objective_value is not None
                   for candidate in result.evaluated)
        assert _at_optimum(state, result)


@pytest.mark.parametrize("layout,role", [
    ("mesh", "n0"), ("pods", "n0"), ("pods", "n2")],
    ids=["read-host", "read-host-pods", "other-pod"])
def test_external_load_on_a_read_host(layout, role):
    hosts = LAYOUTS[layout]

    def load(controller, skipped):
        # Two placed consumers on n0, three measured: one external.  On
        # n2, Bystander's pod, the same measurement is two external.
        controller.metrics.report(node_metric_name(hosts[role], "cpu_load"),
                                  controller.now, 3.0)
        controller.reevaluate()

    controller, skipped = both(load, layout)
    if role == "n0":
        assert "Mover" not in skipped
        assert option_of(controller, "Mover") == on(hosts["n1"])
    else:
        # Nothing the first pod's bundles cover was stamped.
        assert skipped == ["Blocker", "Reader", "Mover"]
        assert option_of(controller, "Mover") == on(hosts["n0"])


@pytest.mark.parametrize("layout", ["mesh", "pods"],
                         ids=["far-host", "far-pod"])
def test_reconfiguration_on_the_far_host_of_a_two_node_reader(layout):
    hosts = LAYOUTS[layout]

    def crowd_n2(controller, skipped):
        # Heavy lands on n2, and Bystander moves to n3 — Reader's far
        # host, which Mover reads only through Reader's prediction.
        admit(controller, "Heavy", pinned("Heavy", 30, hosts["n2"]))
        assert option_of(controller, "Bystander") == on(hosts["n3"])
        controller.reevaluate()

    controller, skipped = both(crowd_n2, layout)
    # Heavy's own sweep ran before Bystander moved: nothing Mover reads
    # had changed yet.  The next one must evaluate it.
    assert skipped.count("Mover") == 1
    assert option_of(controller, "Mover") == on(hosts["n1"])


def test_memory_held_outside_the_cpu_footprint():
    def hog_n1(controller, skipped):
        # Hog's demand computes nothing, so its footprint leaves n1 out,
        # but it holds n1's memory: Mover cannot move there.
        hog = admit(controller, "Hog", pinned("Hog", 0, "n1", memory=100))
        controller.set_external_cpu_load("n0", 1.0)
        controller.reevaluate()
        assert option_of(controller, "Mover") == "onN0"
        # Hog's exit frees n1, a host only its allocation names.
        del skipped[:]
        controller.end_app(hog)

    controller, skipped = both(hog_n1)
    assert "Mover" not in skipped
    assert option_of(controller, "Mover") == "onN1"


def test_node_failure_and_restore():
    def fail_and_restore(controller, skipped):
        # Reader is stranded: n1 frees up, and Mover takes it.
        reader = instance_named(controller, "Reader")
        assert controller.handle_node_failure("n3") == [reader.key]
        assert "Mover" not in skipped
        assert option_of(controller, "Mover") == "onN1"
        controller.handle_node_restored("n3")
        assert controller.configure_stranded() == 1
        del skipped[:]
        controller.reevaluate()
        assert "Mover" not in skipped

    both(fail_and_restore)


def contention_curve():
    """Blocker runs 100 s alone and stretches with every co-runner."""
    return ExplicitSpecModel(PerformanceSpec(
        points=(PerformancePoint(1.0, 100.0), PerformancePoint(2.0, 100.0))))


def contention_callable():
    return CallableModel(
        lambda demands, assignment, view: 100.0
        * view.contention_factor(assignment.hostname_of("x")))


@pytest.mark.parametrize("model", [contention_callable, contention_curve],
                         ids=["opaque", "footprint-safe"])
def test_attach_model(model):
    def attach(controller, skipped):
        controller.register_model(instance_named(controller, "Blocker"),
                                  "where", model())
        controller.reevaluate()

    controller, skipped = both(attach)
    assert skipped == []
    assert option_of(controller, "Mover") == "onN1"


def test_topology_change():
    def grow(controller, skipped):
        controller.cluster.add_node("n5", memory_mb=128.0)
        controller.cluster.add_link("n5", "n0", bandwidth_mbps=40.0)
        controller.reevaluate()

    controller, skipped = both(grow)
    assert "Mover" not in skipped


def churn(controller):
    for round_index in range(3):
        extra = admit(controller, f"Extra{round_index}",
                      pinned(f"Extra{round_index}", 30, "n2", "n4"))
        controller.end_app(extra)


@pytest.mark.parametrize("build", [
    lambda: scene(objective=MaxResponseTime()),
    lambda: scene(serial=True),
], ids=["non-decomposable", "unpruned"])
def test_never_skips_where_pruning_is_unsound(build):
    controller, skipped = build()
    churn(controller)
    assert skipped == []
    assert controller.stats.pruned_bundles == 0
    product, product_skipped = scene()
    churn(product)
    assert product.stats.pruned_bundles > 0
    assert len(product_skipped) == product.stats.pruned_bundles


def test_every_unscored_evaluation_is_a_stable_no_op():
    """Score every skip of eight seeded churn scripts anyway: the
    bundle's best must be its own configuration or gain nothing."""
    audited = []

    def audit(controller):
        optimize = controller.policy.optimizer.optimize_bundle
        index = controller.partition_index
        holds = index.holds

        def pruning(key, state):
            hit = holds(key, state)
            if hit and state.chosen is not None:
                audited.append(_at_optimum(state, optimize(
                    controller.registry.instance(key[0]), state,
                    controller.optimization_context())))
            return hit

        index.holds = pruning

    for seed in range(8):
        run_script(make_script(seed, exact=False), pairwise=True,
                   prepare=audit)
    assert len(audited) > 50 and all(audited)
