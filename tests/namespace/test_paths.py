"""Dotted-path utility tests."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import NamespaceError
from repro.namespace.paths import join_path, split_path


class TestSplitJoin:
    def test_split_simple(self):
        assert split_path("a.b.c") == ("a", "b", "c")

    def test_split_single(self):
        assert split_path("app") == ("app",)

    def test_paper_example_path(self):
        parts = split_path("DBclient.66.where.DS.client.memory")
        assert parts == ("DBclient", "66", "where", "DS", "client", "memory")

    def test_bracketed_replica_is_one_component(self):
        assert split_path("Bag.1.run.worker[3].memory")[3] == "worker[3]"

    def test_empty_path_rejected(self):
        with pytest.raises(NamespaceError):
            split_path("")

    def test_empty_component_rejected(self):
        with pytest.raises(NamespaceError):
            split_path("a..b")

    def test_join_flattens_dotted_arguments(self):
        assert join_path("a.b", "c", "d.e") == "a.b.c.d.e"

    def test_join_rejects_empty(self):
        with pytest.raises(NamespaceError):
            join_path("a", "")


@given(st.lists(st.from_regex(r"[A-Za-z0-9\[\]_-]{1,8}", fullmatch=True),
                min_size=1, max_size=6))
def test_split_join_roundtrip(components):
    path = ".".join(components)
    assert split_path(path) == tuple(components)
    assert join_path(*components) == path
