"""The durability layer changes controller state only through the
controller's own edits.

WAL replay, a standby's apply and snapshot load re-apply logged results
by calling the same ``AdaptationController`` methods the live operations
call (``add_bundle``, ``attach_model``, ``place_configuration``,
``unconfigure``, ``fail_node``, …).  A module under
``repro/persistence/`` that assigns a bundle's configuration, places or
removes a view placement, touches a node, allocates, registers a bundle
or writes an instance's models is a second copy of an edit — one that
drifts from the live path (a node failure once stripped placements in a
different order on replay than live, and every restore after a double
displacement diverged).  Add or extend a controller edit instead.
"""

import pathlib

import pytest

PERSISTENCE = pathlib.Path(__file__).resolve().parent.parent / "src" / \
    "repro" / "persistence"

#: Text that only a hand-written state edit contains.
FORBIDDEN = (".chosen =", ".view.place(", ".view.remove(", "cluster.node(",
             "allocate(", "registry.add_bundle(", ".models[")


def violations(text):
    return [(number, pattern)
            for number, line in enumerate(text.splitlines(), start=1)
            for pattern in FORBIDDEN if pattern in line]


@pytest.mark.parametrize("path", sorted(PERSISTENCE.glob("*.py")),
                         ids=lambda path: path.name)
def test_persistence_makes_no_state_edit_of_its_own(path):
    assert violations(path.read_text(encoding="utf-8")) == []


def test_the_ratchet_sees_a_hand_written_edit():
    edit = ("    state.chosen = None\n"
            "    controller.view.remove(instance.key)\n"
            "    controller.cluster.node(hostname).fail()\n")
    assert [pattern for _, pattern in violations(edit)] == [
        ".chosen =", ".view.remove(", "cluster.node("]


def test_the_topology_decoder_is_not_an_edit():
    # cluster_from_topology builds a fresh cluster; failing one of its
    # new nodes is construction, not an edit of a live controller.
    assert violations("            built.fail()\n") == []
