"""Records cover what a first-fit match examined, not all it could reach.

A bundle with no hostname pattern can be placed on any host, yet its
first-fit match reads only the nodes at or before the furthest one it
examined in its own load order.  Its record covers those hosts (the
scanned prefix) and the order key of the furthest one (the boundary):
it stops holding when a prefix host is stamped, or when a stamped host
of its reach now orders before the boundary.  Each scene below breaks
one half of that rule and checks that the bundle is matched again and
decides as the serial oracle (``tests.oracle.unpruned``) does.

Mutation-checked: dropping the boundary test fails
``test_a_freed_host_before_the_boundary``; covering the reads but not
the scanned prefix fails ``test_memory_freed_on_the_furthest_host``;
allocating with a predicted duration, which reserves link bandwidth the
match reads and no record covers, fails
``test_the_controller_reserves_no_link_bandwidth``.
"""

import pytest

from repro.cluster import Cluster
from repro.controller import AdaptationController, ModelDrivenPolicy
from tests.controller.churn_scripts import make_script, run_script
from tests.controller.test_optimizer_equivalence import assert_same_decisions
from tests.controller.test_read_set_watermark import (
    admit,
    option_of,
    pinned,
    unscored,
)
from tests.oracle import unpruned


def mesh_controller(serial):
    controller = AdaptationController(
        Cluster.full_mesh(["n0", "n1", "n2"], memory_mb=128.0),
        policy=ModelDrivenPolicy(pairwise_exchange=False))
    if serial:
        unpruned(controller)
    return controller


def host_of(controller, name):
    instance = next(instance for instance in controller.registry.instances()
                    if instance.app_name == name)
    return instance.bundle_state("where").chosen.assignment.hostnames()


def unscoped(name, *options):
    """One option per ``(option, seconds, memory)``, none with a
    hostname pattern."""
    return f"harmonyBundle {name} where {{ " + " ".join(
        f"{{{option} {{node x {{seconds {seconds}}} {{memory {memory}}}}}}}"
        for option, seconds, memory in options) + " }"


def freed_host_scene(serial):
    """Mover shares n2 with C; its last match stopped at n0, where A
    runs, so its record covers n0 only, with n0's key as the boundary.
    B then leaves n1, a host the scan never reached."""
    controller = mesh_controller(serial)
    skipped = unscored(controller)
    admit(controller, "A", pinned("A", 10, "n0"))
    admit(controller, "B", pinned("B", 10, "n1"))
    admit(controller, "Mover", unscoped("Mover", ("any", 10, 16)))
    assert host_of(controller, "Mover") == {"n2"}
    admit(controller, "C", pinned("C", 10, "n2"))
    # Every host carries one consumer now: the match offers n0, which
    # gains nothing, and Mover stays in a stable no-op on n2.
    assert host_of(controller, "Mover") == {"n2"}
    del skipped[:]
    b = next(instance for instance in controller.registry.instances()
             if instance.app_name == "B")
    controller.end_app(b)
    return controller, skipped


def test_a_freed_host_before_the_boundary():
    """n1 is idle now and orders before n0: the match would pick it, so
    the record must not hold although no host it covers was stamped."""
    product, skipped = freed_host_scene(serial=False)
    oracle, _ = freed_host_scene(serial=True)
    assert_same_decisions(product, oracle)
    assert "Mover" not in skipped
    assert host_of(product, "Mover") == {"n1"}


def memory_scene(serial):
    """Every host holds a 100 MB hog that computes nothing, so Mover's
    ``big`` option (120 MB) fits nowhere: its match scans every host,
    and the furthest, n2, is the boundary, while ``small`` runs on n0.
    Then the hog on n2 leaves: n2's load, and so its key, is the same,
    but its memory is free."""
    controller = mesh_controller(serial)
    skipped = unscored(controller)
    hogs = [admit(controller, f"Hog{host}",
                  pinned(f"Hog{host}", 0, host, memory=100))
            for host in ("n0", "n1", "n2")]
    admit(controller, "Mover",
          unscoped("Mover", ("big", 5, 120), ("small", 10, 16)))
    assert option_of(controller, "Mover") == "small"
    assert host_of(controller, "Mover") == {"n0"}
    controller.reevaluate()
    assert serial or "Mover" in skipped
    del skipped[:]
    controller.end_app(hogs[2])
    return controller, skipped


def test_memory_freed_on_the_furthest_host():
    """The boundary host is in the prefix the record covers: a memory
    change there re-matches the bundle even though its key did not
    move, and ``big`` now fits on n2."""
    product, skipped = memory_scene(serial=False)
    oracle, _ = memory_scene(serial=True)
    assert_same_decisions(product, oracle)
    assert "Mover" not in skipped
    assert option_of(product, "Mover") == "big"
    assert host_of(product, "Mover") == {"n2"}


#: Two hosts and an explicit link demand between them: what a reserving
#: allocation would reserve bandwidth for.
LINKED = """
harmonyBundle Linked where {
    {pair {node x {seconds 10} {memory 8}} {node y {seconds 10} {memory 8}}
          {link x y 8}}}
"""


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_controller_reserves_no_link_bandwidth(seed):
    """A match reads link bandwidth (``Cluster.path_available_mbps``),
    and a record covers no link for it: that is exact only while every
    link's reservations stay empty, which holds because the controller
    allocates with no predicted duration.  Checked after every
    allocation of a churn script with link loads, a whole-cluster
    bundle and a bundle with a link demand."""
    allocations = []

    def watch(controller):
        allocate = controller._allocate

        def checking(*args, **kwargs):
            allocation = allocate(*args, **kwargs)
            for link in controller.cluster.links():
                assert link.available_mbps == link.bandwidth_mbps, link
            allocations.append(allocation)
            return allocation

        controller._allocate = checking

    script = make_script(seed, link_loads=True)
    assert any(op[0] == "link" for op in script["ops"])
    script["ops"].insert(0, ("admit", "A99", LINKED))
    controller = run_script(script, pairwise=True, prepare=watch)
    assert any(allocation.demands.links for allocation in allocations)
    assert controller.registry.instances()[0].app_name == "A99"
