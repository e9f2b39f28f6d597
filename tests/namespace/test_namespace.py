"""Namespace tree behaviour: set/get/delete, walks, replace, views."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import NamespaceError
from repro.namespace import Namespace, join_path


@pytest.fixture
def populated():
    ns = Namespace()
    ns.set("DBclient.66.where.option", "DS")
    ns.set("DBclient.66.where.DS.client.memory", 32)
    ns.set("DBclient.66.where.DS.client.hostname", "c1")
    ns.set("DBclient.66.where.DS.server.memory", 20)
    ns.set("Bag.2.parallelism.workerNodes", 4)
    return ns


class TestBasicOperations:
    def test_set_get(self):
        ns = Namespace()
        ns.set("a.b", 1)
        assert ns.get("a.b") == 1

    def test_get_missing_returns_default(self):
        assert Namespace().get("no.such", "fallback") == "fallback"

    def test_overwrite(self):
        ns = Namespace()
        ns.set("a", 1)
        ns.set("a", 2)
        assert ns.get("a") == 2

    def test_interior_node_has_no_value(self, populated):
        assert populated.get("DBclient.66") is None
        assert populated.exists("DBclient.66")

    def test_delete_subtree(self, populated):
        populated.delete("DBclient.66.where.DS")
        assert not populated.exists("DBclient.66.where.DS.client.memory")
        assert populated.exists("DBclient.66.where.option")

    def test_delete_missing_raises(self):
        with pytest.raises(NamespaceError):
            Namespace().delete("no.such")

    def test_string_and_numeric_values(self, populated):
        assert populated.get("DBclient.66.where.option") == "DS"
        assert populated.get("DBclient.66.where.DS.client.memory") == 32


class TestTraversal:
    def test_children_at_root(self, populated):
        assert populated.children() == ["Bag", "DBclient"]

    def test_children_below(self, populated):
        assert populated.children("DBclient.66.where.DS") == [
            "client", "server"]

    def test_children_of_missing_raises(self, populated):
        with pytest.raises(NamespaceError):
            populated.children("ghost")

    def test_walk_yields_sorted_leaves(self, populated):
        leaves = dict(populated.walk("DBclient.66.where.DS"))
        assert leaves == {
            "DBclient.66.where.DS.client.hostname": "c1",
            "DBclient.66.where.DS.client.memory": 32,
            "DBclient.66.where.DS.server.memory": 20,
        }

    def test_walk_of_missing_path_is_empty(self, populated):
        assert list(populated.walk("ghost")) == []

    def test_walk_whole_tree(self, populated):
        snapshot = dict(populated.walk())
        assert len(snapshot) == 5


def delete_then_set(ns, root, leaves):
    """What :meth:`Namespace.replace` stands for: delete the subtree if
    it exists, then one root-to-leaf ``set`` per leaf."""
    if ns.exists(root):
        ns.delete(root)
    for path, value in leaves:
        ns.set(join_path(root, path), value)


def holding(populated_with=()):
    """A namespace holding ``populated_with``."""
    ns = Namespace()
    for path, value in populated_with:
        ns.set(path, value)
    return ns


DS_LEAVES = [
    ("option", "DS"),
    ("variables.workerNodes", 4),
    ("DS.worker[3].hostname", "c3"),
    ("DS.worker[3].memory", 32.0),
    ("DS.worker[3].seconds", 600.0),
    ("DS.client.hostname", "c1"),
    ("DS.client.memory", 40.0),
    ("DS.link0.endpoints", "client-server"),
    ("DS.link0.megabytes", 51.0),
]
QS_LEAVES = [
    ("option", "QS"),
    ("QS.server.hostname", "harmony"),
    ("QS.server.memory", 20.0),
    ("QS.link0.endpoints", "client-server"),
    ("QS.link0.megabytes", 2.0),
]
ELSEWHERE = [("DBclient.66.how.option", "fast"),
             ("Bag.2.parallelism.workerNodes", 4)]


class TestReplace:
    """``replace`` is one walk that leaves the tree exactly as
    delete-then-set did."""

    @pytest.mark.parametrize("before", [
        [], ELSEWHERE,
        ELSEWHERE + [("DBclient.66.where." + p, v) for p, v in DS_LEAVES]],
        ids=["fresh", "siblings", "republish"])
    @pytest.mark.parametrize("leaves", [DS_LEAVES, QS_LEAVES],
                             ids=["DS", "QS"])
    def test_same_tree(self, before, leaves):
        old = holding(before)
        new = holding(before)
        delete_then_set(old, "DBclient.66.where", leaves)
        new.replace("DBclient.66.where", leaves)
        assert dict(new.walk()) == dict(old.walk())
        assert new.children("DBclient.66.where") == \
            old.children("DBclient.66.where")

    def test_republish_onto_another_option_clears_the_stale_subtree(self):
        ns = holding(ELSEWHERE)
        ns.replace("DBclient.66.where", DS_LEAVES)
        ns.replace("DBclient.66.where", QS_LEAVES)
        assert not ns.exists("DBclient.66.where.DS")
        assert not ns.exists("DBclient.66.where.variables")
        assert ns.get("DBclient.66.where.option") == "QS"
        assert ns.get("DBclient.66.how.option") == "fast"
        assert dict(ns.walk("DBclient.66.where")) == {
            "DBclient.66.where." + p: v for p, v in QS_LEAVES}

    def test_no_leaves_is_a_delete(self):
        for before in ([], DS_LEAVES):
            old = holding(
                [("DBclient.66.where." + p, v) for p, v in before])
            new = holding(
                [("DBclient.66.where." + p, v) for p, v in before])
            delete_then_set(old, "DBclient.66.where", [])
            new.replace("DBclient.66.where", [])
            assert new.exists("DBclient.66.where") is \
                old.exists("DBclient.66.where") is False
            assert dict(new.walk()) == dict(old.walk())

    @pytest.mark.parametrize("root, leaves", [
        ("DBclient.66.where", [("option", "DS"), ("DS..memory", 1)]),
        ("DBclient.66.where", [("option", "DS"), ("", 1)]),
        ("DBclient.66.where", [("DS.client.", 1)]),
        ("DBclient..where", [("option", "DS")]),
        ("", [("option", "DS")]),
    ])
    def test_an_empty_path_component_raises_and_changes_nothing(
            self, root, leaves):
        before = ELSEWHERE + [("DBclient.66.where." + p, v)
                              for p, v in DS_LEAVES]
        ns = holding(before)
        snapshot = dict(ns.walk())
        with pytest.raises(NamespaceError, match="empty namespace path"):
            ns.replace(root, leaves)
        assert dict(ns.walk()) == snapshot


#: Few names, so generated trees share prefixes with each other and
#: with the replaced root.
TREE_PATHS = st.from_regex(r"[ab](\.[abc]){0,3}", fullmatch=True)


@given(before=st.dictionaries(TREE_PATHS, st.integers(0, 9), max_size=8),
       root=st.sampled_from(["a", "a.b", "b.c.a"]),
       leaves=st.lists(st.tuples(TREE_PATHS, st.integers(0, 9)),
                       max_size=6))
def test_replace_is_delete_then_set_on_any_tree(before, root, leaves):
    """Also where the root holds a value, sits under a leaf, or the
    leaves repeat or nest in one another."""
    old = holding(before.items())
    new = holding(before.items())
    delete_then_set(old, root, leaves)
    new.replace(root, leaves)
    assert dict(new.walk()) == dict(old.walk())
    for path in list(before) + [join_path(root, p) for p, _ in leaves]:
        assert new.exists(path) is old.exists(path)
        assert new.get(path) == old.get(path)


class TestViews:
    def test_view_resolves_relative(self, populated):
        view = populated.view("DBclient.66.where.DS")
        assert view.get("client.memory") == 32
        assert view.get("server.memory") == 20

    def test_view_set_writes_globally(self, populated):
        view = populated.view("DBclient.66.where.DS")
        view.set("client.cache", 7)
        assert populated.get("DBclient.66.where.DS.client.cache") == 7

    def test_view_is_expression_environment(self, populated):
        """A view plugs straight into RSL expression evaluation."""
        from repro.rsl import parse_expression
        view = populated.view("DBclient.66.where.DS")
        expr = parse_expression(
            "44 + (client.memory > 24 ? 24 : client.memory) - 17")
        assert expr.evaluate(view) == 51.0

    def test_view_lookup_missing_raises_keyerror(self, populated):
        with pytest.raises(KeyError):
            populated.view("DBclient.66").lookup("nothing.here")


@given(st.dictionaries(
    st.from_regex(r"[a-z]{1,3}(\.[a-z0-9]{1,3}){0,3}", fullmatch=True),
    st.integers(min_value=-1000, max_value=1000),
    min_size=1, max_size=20))
def test_walk_recovers_all_disjoint_leaves(entries):
    """Every set leaf whose path is not a prefix of another is recoverable."""
    ns = Namespace()
    for path, value in entries.items():
        ns.set(path, value)
    snapshot = dict(ns.walk())
    for path, value in entries.items():
        is_interior = any(other != path and other.startswith(path + ".")
                          for other in entries)
        if not is_interior:
            assert snapshot[path] == value
        else:
            assert ns.get(path) == value  # still readable directly
