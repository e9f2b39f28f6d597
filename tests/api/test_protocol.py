"""Wire protocol framing and message validation."""

import pathlib
import re

import pytest
from hypothesis import given, strategies as st

from repro.api.protocol import (
    CLIENT_TYPES,
    MESSAGES,
    MUTATING_TYPES,
    SERVER_TYPES,
    FrameDecoder,
    boolean,
    encode_message,
    make_message,
    require_field,
    string,
)
from repro.errors import ProtocolError


class TestMessages:
    def test_make_message_with_fields(self):
        message = make_message("register", app_name="DB",
                               use_interrupts=False)
        assert message == {"type": "register", "app_name": "DB",
                           "use_interrupts": False}

    def test_unknown_type_rejected(self):
        with pytest.raises(ProtocolError):
            make_message("frobnicate")

    def test_require_field_present(self):
        assert require_field({"type": "x", "a": 1}, "a") == 1

    def test_require_field_missing(self):
        with pytest.raises(ProtocolError, match="missing"):
            require_field({"type": "x"}, "a")


class TestFraming:
    def test_roundtrip_single_message(self):
        message = make_message("register", app_name="DB",
                               use_interrupts=True)
        decoder = FrameDecoder()
        [decoded] = decoder.feed(encode_message(message))
        assert decoded == message

    def test_multiple_messages_one_buffer(self):
        messages = [make_message("end"), make_message("wait_for_update")]
        data = b"".join(encode_message(m) for m in messages)
        assert FrameDecoder().feed(data) == messages

    def test_byte_by_byte_delivery(self):
        message = make_message("report_metric", name="rt", value=1.25)
        data = encode_message(message)
        decoder = FrameDecoder()
        received = []
        for index in range(len(data)):
            received.extend(decoder.feed(data[index:index + 1]))
        assert received == [message]
        assert decoder.pending_bytes() == 0

    def test_split_across_header_boundary(self):
        message = make_message("end")
        data = encode_message(message)
        decoder = FrameDecoder()
        assert decoder.feed(data[:2]) == []
        assert decoder.feed(data[2:]) == [message]

    def test_unicode_payload(self):
        message = make_message("error", message="överraskning ☃")
        [decoded] = FrameDecoder().feed(encode_message(message))
        assert decoded["message"] == "överraskning ☃"

    def test_malformed_json_rejected(self):
        import struct
        bad = b"not json"
        framed = struct.pack(">I", len(bad)) + bad
        with pytest.raises(ProtocolError, match="malformed"):
            FrameDecoder().feed(framed)

    def test_non_object_frame_rejected(self):
        import struct
        payload = b"[1, 2, 3]"
        framed = struct.pack(">I", len(payload)) + payload
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(framed)

    def test_oversized_frame_rejected_on_decode(self):
        import struct
        header = struct.pack(">I", 1 << 30)
        with pytest.raises(ProtocolError, match="exceeds limit"):
            FrameDecoder().feed(header)

    def test_encode_requires_type(self):
        with pytest.raises(ProtocolError):
            encode_message({"no_type": 1})


@given(st.dictionaries(
    st.from_regex(r"[a-z_]{1,10}", fullmatch=True),
    st.one_of(st.integers(-1000, 1000), st.text(max_size=30),
              st.booleans(), st.floats(allow_nan=False,
                                       allow_infinity=False,
                                       min_value=-1e6, max_value=1e6)),
    max_size=6))
def test_any_payload_roundtrips(payload):
    payload.pop("type", None)
    message = make_message("report_metric", **payload)
    [decoded] = FrameDecoder().feed(encode_message(message))
    assert decoded == message


@given(st.lists(st.sampled_from(["end", "wait_for_update", "register"]),
                min_size=1, max_size=10),
       st.integers(min_value=1, max_value=7))
def test_chunked_streams_preserve_order(types, chunk):
    messages = [make_message(t, seq=i) for i, t in enumerate(types)]
    data = b"".join(encode_message(m) for m in messages)
    decoder = FrameDecoder()
    received = []
    for start in range(0, len(data), chunk):
        received.extend(decoder.feed(data[start:start + chunk]))
    assert received == messages


class TestMessageTable:
    """docs/wire-protocol.md §2–§3 are the prose form of MESSAGES."""

    DOC = pathlib.Path(__file__).resolve().parents[2] / "docs" / \
        "wire-protocol.md"

    @staticmethod
    def _first_table(text, heading):
        """The rows of the first Markdown table under ``heading``."""
        section = text.split(heading, 1)[1].split("\n## ", 1)[0]
        lines = section[section.index("\n|"):].strip().splitlines()
        rows = []
        for line in lines[2:]:  # skip the header and its rule
            if not line.startswith("|"):
                break
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
        return rows

    @staticmethod
    def _fields(cell):
        """The field names of a fields cell, ``?`` marking optional ones
        (``updates: {name: value}`` names ``updates``)."""
        return {name.split(":")[0]
                for name in re.findall(r"`([^`]+)`", cell)}

    def _documented(self):
        text = self.DOC.read_text(encoding="utf-8")
        documented = {}
        for type_cell, fields, reply, notes in self._first_table(
                text, "## 2. Client → server messages"):
            replies = re.findall(r"`([^`]+)`", reply)
            documented[type_cell.strip("`")] = (
                True, self._fields(fields), replies[0] if replies else None,
                "**mutating**" in notes)
        for type_cell, fields, _meaning in self._first_table(
                text, "## 3. Server → client messages"):
            documented[type_cell.strip("`")] = (
                False, self._fields(fields), None, False)
        return documented

    def test_docs_tables_equal_the_message_table(self):
        table = {row.type: (row.request, set(row.fields), row.reply,
                            row.mutating)
                 for row in MESSAGES.values()}
        assert self._documented() == table

    def test_client_and_server_types_partition_the_table(self):
        assert CLIENT_TYPES | SERVER_TYPES == set(MESSAGES)
        assert not CLIENT_TYPES & SERVER_TYPES
        assert MUTATING_TYPES <= CLIENT_TYPES

    def test_locked_rows_are_requests(self):
        for row in MESSAGES.values():
            assert not (row.locked or row.session) or row.request, row.type

    @pytest.mark.parametrize("value", ["abc", None, [1], "inf"])
    def test_a_value_that_does_not_convert_names_its_field(self, value):
        message = {"type": "repl_ack", "standby_id": "sb", "seq": value}
        with pytest.raises(ProtocolError, match="'seq'"):
            MESSAGES["repl_ack"].convert(message)

    def test_optional_null_fields_are_left_to_the_handler(self):
        assert MESSAGES["status"].convert(
            {"type": "status", "prefix": None, "max_traces": "3"}) == {
                "max_traces": 3}


def _typed_fields(converter):
    """Every (type, field) of the table read through ``converter``."""
    return [(row.type, spec.rstrip("?"))
            for row in MESSAGES.values()
            for spec, convert in row.fields.items() if convert is converter]


STRING_FIELDS = _typed_fields(string)
BOOLEAN_FIELDS = _typed_fields(boolean)

#: A value each converter accepts, to fill the fields not under test.
_VALID = {string: "x", boolean: False, int: 0, float: 0.0}


def _valid_message(msg_type):
    """A ``msg_type`` message whose every field converts."""
    return {"type": msg_type,
            **{spec.rstrip("?"): _VALID.get(convert, [])
               for spec, convert in MESSAGES[msg_type].fields.items()}}


class TestStrictConverters:
    """A text field takes only a JSON string and a flag only a JSON
    boolean: nothing is coerced, so ``"false"`` never reads as true."""

    @pytest.mark.parametrize("value", [7, 1.5, True, None, ["A"], {"k": 1}])
    def test_string_refuses_every_other_json_type(self, value):
        with pytest.raises(TypeError, match="JSON string"):
            string(value)

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, []])
    def test_boolean_refuses_every_other_json_type(self, value):
        with pytest.raises(TypeError, match="JSON boolean"):
            boolean(value)

    def test_valid_values_pass_unchanged(self):
        assert string("") == ""
        assert string("A.1") == "A.1"
        assert boolean(False) is False
        assert boolean(True) is True

    def test_no_field_reads_through_a_coercing_builtin(self):
        for row in MESSAGES.values():
            for spec, convert in row.fields.items():
                assert convert not in (str, bool), (row.type, spec)

    @pytest.mark.parametrize("msg_type,name", STRING_FIELDS,
                             ids=[f"{t}.{f}" for t, f in STRING_FIELDS])
    def test_string_field_refuses_a_non_string(self, msg_type, name):
        message = _valid_message(msg_type)
        assert MESSAGES[msg_type].convert(message)[name] == "x"
        for value in (7, 1.5, True, ["A"], {"k": 1}):
            with pytest.raises(ProtocolError,
                               match=f"{name!r} is not a valid string"):
                MESSAGES[msg_type].convert({**message, name: value})

    @pytest.mark.parametrize("msg_type,name", BOOLEAN_FIELDS,
                             ids=[f"{t}.{f}" for t, f in BOOLEAN_FIELDS])
    def test_boolean_field_refuses_a_non_boolean(self, msg_type, name):
        message = _valid_message(msg_type)
        assert MESSAGES[msg_type].convert({**message, name: True})[name] \
            is True
        for value in ("false", "true", 0, 1, ["x"]):
            with pytest.raises(ProtocolError,
                               match=f"{name!r} is not a valid boolean"):
                MESSAGES[msg_type].convert({**message, name: value})
