"""Harmony variables: typing, change tracking, buffered flush."""

import pytest

from repro.api.variables import (
    HarmonyVariable,
    PendingVariableBuffer,
    VariableTable,
    VariableType,
)
from repro.errors import ProtocolError



def flush_all(buffer, send):
    """Flush a buffer whose every client is ready."""
    return buffer.flush(send, lambda _client_id: True)

class TestVariableTypes:
    def test_int_coercion(self):
        variable = HarmonyVariable("n", 4.7, VariableType.INT)
        assert variable.value == 4

    def test_float_coercion(self):
        variable = HarmonyVariable("n", "2.5", VariableType.FLOAT)
        assert variable.value == 2.5

    def test_string_coercion(self):
        variable = HarmonyVariable("n", 42, VariableType.STRING)
        assert variable.value == "42"

    def test_bad_coercion_raises(self):
        with pytest.raises(ProtocolError):
            HarmonyVariable("n", "not-a-number", VariableType.FLOAT)


class TestChangeTracking:
    def test_fresh_variable_is_unchanged(self):
        assert not HarmonyVariable("n", 1).changed

    def test_update_sets_changed(self):
        variable = HarmonyVariable("n", 1)
        variable.apply_update(2)
        assert variable.changed
        assert variable.value == 2.0

    def test_consume_clears_changed(self):
        variable = HarmonyVariable("n", 1)
        variable.apply_update(2)
        assert variable.consume() == 2.0
        assert not variable.changed

    def test_update_coerces_to_declared_type(self):
        variable = HarmonyVariable("n", "QS", VariableType.STRING)
        variable.apply_update("DS")
        assert variable.value == "DS"


class TestVariableTable:
    def test_declare_and_get(self):
        table = VariableTable()
        variable = table.declare("where.option", "QS", VariableType.STRING)
        assert table.get("where.option") is variable
        assert table.names() == ["where.option"]

    def test_duplicate_declaration_rejected(self):
        table = VariableTable()
        table.declare("x", 1)
        with pytest.raises(ProtocolError):
            table.declare("x", 2)

    def test_get_undeclared_rejected(self):
        with pytest.raises(ProtocolError):
            VariableTable().get("ghost")

    def test_apply_updates_touches_declared_only(self):
        table = VariableTable()
        table.declare("a", 1)
        applied = table.apply_updates({"a": 5, "undeclared": 9})
        assert applied == ["a"]
        assert table.get("a").value == 5.0

    def test_observers_see_full_batch(self):
        table = VariableTable()
        table.declare("a", 1)
        seen = []
        table.on_update(seen.append)
        table.apply_updates({"a": 5, "b": 6})
        assert seen == [{"a": 5, "b": 6}]

    def test_observer_unsubscribe(self):
        table = VariableTable()
        seen = []
        cancel = table.on_update(seen.append)
        cancel()
        table.apply_updates({"a": 1})
        assert seen == []


class TestPendingBuffer:
    def test_stage_and_flush(self):
        buffer = PendingVariableBuffer()
        buffer.stage("client1", "where.option", "DS")
        sent = []
        count = flush_all(buffer, lambda cid, updates, _: sent.append(
            (cid, updates)))
        assert count == 1
        assert sent == [("client1", {"where.option": "DS"})]

    def test_updates_coalesce_to_newest(self):
        """The paper's buffering contract: values accumulate until flush."""
        buffer = PendingVariableBuffer()
        buffer.stage("c", "x", 1)
        buffer.stage("c", "x", 2)
        buffer.stage("c", "x", 3)
        sent = []
        flush_all(buffer, lambda cid, updates, _: sent.append(updates))
        assert sent == [{"x": 3}]

    def test_flush_drains(self):
        buffer = PendingVariableBuffer()
        buffer.stage("c", "x", 1)
        flush_all(buffer, lambda cid, updates, _: None)
        assert flush_all(buffer, lambda cid, updates, _: None) == 0

    def test_per_client_batches(self):
        buffer = PendingVariableBuffer()
        buffer.stage_many("c1", {"a": 1, "b": 2})
        buffer.stage("c2", "a", 9)
        sent = {}
        flush_all(buffer, lambda cid, updates, _: sent.update({cid: updates}))
        assert sent == {"c1": {"a": 1, "b": 2}, "c2": {"a": 9}}

    def test_discard_client(self):
        buffer = PendingVariableBuffer()
        buffer.stage("gone", "x", 1)
        buffer.discard("gone")
        assert flush_all(buffer, lambda cid, updates, _: None) == 0

    def test_pending_for_is_a_snapshot(self):
        buffer = PendingVariableBuffer()
        buffer.stage("c", "x", 1)
        snapshot = buffer.pending_for("c")
        snapshot["x"] = 999
        assert buffer.pending_for("c") == {"x": 1}
