"""The bundle-grain watermark: a sweep re-scores only what it can see changed.

Inside a partition whose epoch moved, a bundle whose last evaluation was
a stable no-op is still matched, and is not scored when the match finds
the same candidates and nothing its scoring read has been written since
(``TrialEngine.unchanged``).  Each test below changes one thing such an
evaluation reads while its candidates stay equal — every bundle here is
pinned to named hosts, so load never reorders a match — and checks that
the bundle is scored again and decides as the serial oracle
(``tests.oracle.unpruned``) does.

The scene, on a five-node mesh, CPU only, no pairwise pass:

* ``Blocker`` on n0 and ``Reader`` on n1 and n3 (its far host);
* ``Mover`` may run on n0 or n1.  Either costs the objective the same,
  so it stays on n0 in a stable no-op that reads n0, n1 and n3;
* ``Bystander`` (n2 or n3) joins the same partition on n2, a host
  ``Mover`` does not read: the sweep after it leaves ``Mover`` unscored.

Mutation-checked: a commit that does not stamp what it wrote, a check
that compares epochs before reading the prediction cache and a read set
of the candidates' own hosts each fail a test here.
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
from tests.controller.churn_scripts import make_script, run_script
from tests.controller.test_optimizer_equivalence import assert_same_decisions
from tests.oracle import unpruned

READER_RSL = """
harmonyBundle Reader where {
    {span {node x {hostname n1} {seconds 10} {memory 16}}
          {node y {hostname n3} {seconds 10} {memory 16}}}}
"""


def pinned(name, seconds, *hosts):
    """One option per host, each a single demand pinned there."""
    options = " ".join(
        f"{{on{host.upper()} {{node x {{hostname {host}}} "
        f"{{seconds {seconds}}} {{memory 16}}}}}}" for host in hosts)
    return f"harmonyBundle {name} where {{ {options} }}"


def admit(controller, name, rsl):
    instance = controller.register_app(name)
    controller.setup_bundle(instance, rsl)
    return instance


def unscored(controller):
    """Names of the apps whose sweep evaluation was not scored, in order."""
    names = []
    optimizer = controller.policy.optimizer
    optimize = optimizer.optimize_bundle

    def recording(instance, state, context, since=None):
        result = optimize(instance, state, context, since=since)
        if result is None:
            names.append(instance.app_name)
        return result

    optimizer.optimize_bundle = recording
    return names


def scene(serial=False, objective=None):
    cluster = Cluster.full_mesh([f"n{i}" for i in range(5)],
                                memory_mb=128.0)
    controller = AdaptationController(
        cluster, objective=objective,
        policy=ModelDrivenPolicy(pairwise_exchange=False))
    if serial:
        unpruned(controller)
    skipped = unscored(controller)
    admit(controller, "Blocker", pinned("Blocker", 10, "n0"))
    admit(controller, "Reader", READER_RSL)
    admit(controller, "Mover", pinned("Mover", 10, "n0", "n1"))
    admit(controller, "Bystander", pinned("Bystander", 30, "n2", "n3"))
    assert option_of(controller, "Mover") == "onN0"
    assert option_of(controller, "Bystander") == "onN2"
    return controller, skipped


def option_of(controller, name):
    for instance in controller.registry.instances():
        if instance.app_name == name:
            return instance.bundle_state("where").chosen.option_name
    raise KeyError(name)


def instance_named(controller, name):
    return next(instance for instance in controller.registry.instances()
                if instance.app_name == name)


def both(change):
    """Run ``change(controller, unscored)`` on the product and on the
    serial oracle, check they decided alike, and return the product and
    the apps it left unscored during ``change``."""
    product, skipped = scene()
    oracle, oracle_skipped = scene(serial=True)
    assert "Mover" in skipped         # Bystander's sweep left it unscored
    del skipped[:]
    change(product, skipped)
    change(oracle, oracle_skipped)
    assert_same_decisions(product, oracle)
    assert oracle_skipped == []
    return product, skipped


def test_a_write_the_bundle_does_not_read_leaves_it_unscored():
    controller, skipped = scene()
    before = controller.stats.unchanged_bundles
    # Mover's arrival merged Blocker's and Reader's partitions: each has
    # one candidate, its own placement, and reads nothing.
    assert skipped == ["Blocker", "Reader", "Blocker", "Reader", "Mover"]
    assert before == 5
    # Nothing changed at all: the partition watermark skips everyone.
    controller.reevaluate()
    assert controller.stats.unchanged_bundles == before


def test_external_load_on_a_read_host():
    def load_n0(controller, skipped):
        # Two placed consumers there, three measured: one external.
        controller.metrics.report(node_metric_name("n0", "cpu_load"),
                                  controller.now, 3.0)
        controller.reevaluate()

    controller, skipped = both(load_n0)
    assert "Mover" not in skipped
    assert option_of(controller, "Mover") == "onN1"


def test_reconfiguration_on_the_far_host_of_a_two_node_reader():
    def crowd_n2(controller, skipped):
        # Heavy lands on n2, and Bystander moves to n3 — Reader's far
        # host, which Mover reads only through Reader's prediction.
        admit(controller, "Heavy", pinned("Heavy", 30, "n2"))
        assert option_of(controller, "Bystander") == "onN3"
        controller.reevaluate()

    controller, skipped = both(crowd_n2)
    # Heavy's own sweep ran before Bystander moved: nothing Mover reads
    # had changed yet.  The next one must score it.
    assert skipped.count("Mover") == 1
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
    assert controller.stats.unchanged_bundles == 0
    product, _ = scene()
    churn(product)
    assert product.stats.unchanged_bundles > 0


def test_every_unscored_evaluation_is_a_stable_no_op():
    """Score every skip of eight seeded churn scripts anyway: the
    bundle's best must be its own configuration or gain nothing."""
    audited = []

    def audit(controller):
        optimizer = controller.policy.optimizer
        optimize = optimizer.optimize_bundle

        def auditing(instance, state, context, since=None):
            result = optimize(instance, state, context, since=since)
            if result is None:
                audited.append(_at_optimum(
                    state, optimize(instance, state, context)))
            return result

        optimizer.optimize_bundle = auditing

    for seed in range(8):
        run_script(make_script(seed, exact=False), pairwise=True,
                   prepare=audit)
    assert len(audited) > 50 and all(audited)
