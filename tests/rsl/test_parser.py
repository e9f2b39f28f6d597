"""Parser tests: nested list construction and formatting round trips."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import RslSyntaxError
from repro.rsl.parser import RslList, RslWord, parse_script


def format_node(node):
    """Render a parsed node back to RSL text, quoting a word the
    tokenizer would otherwise split."""
    if isinstance(node, RslWord):
        if node.text == "":
            return '""'
        if any(ch in node.text for ch in " \t\n;{}\""):
            escaped = node.text.replace("\\", "\\\\").replace('"', '\\"')
            escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
            return f'"{escaped}"'
        return node.text
    return "{" + " ".join(format_node(item) for item in node.items) + "}"


class TestParseScript:
    def test_empty_script(self):
        assert parse_script("") == []

    def test_one_command_per_line(self):
        commands = parse_script("alpha 1\nbeta 2")
        assert len(commands) == 2
        assert commands[0].head_word() == "alpha"
        assert commands[1].head_word() == "beta"

    def test_semicolon_separated_commands(self):
        commands = parse_script("alpha; beta")
        assert [c.head_word() for c in commands] == ["alpha", "beta"]

    def test_blank_lines_ignored(self):
        assert len(parse_script("a\n\n\nb")) == 2

    def test_comment_lines_ignored(self):
        assert len(parse_script("# comment\na")) == 1

    def test_nested_lists(self):
        command = parse_script("cmd {a {b c} d}")[0]
        inner = command[1]
        assert isinstance(inner, RslList)
        assert isinstance(inner[1], RslList)
        assert [str(w) for w in inner[1]] == ["b", "c"]

    def test_newlines_inside_braces_do_not_split_commands(self):
        commands = parse_script("cmd {a\nb\nc}")
        assert len(commands) == 1
        assert len(commands[0][1]) == 3

    def test_deep_nesting(self):
        command = parse_script("c " + "{" * 30 + "x" + "}" * 30)[0]
        node = command[1]
        for _ in range(29):
            assert isinstance(node, RslList)
            node = node[0]
        assert isinstance(node, RslList)
        assert str(node[0]) == "x"

    def test_unbalanced_open_brace_raises(self):
        with pytest.raises(RslSyntaxError):
            parse_script("cmd {a {b}")

    def test_unbalanced_close_brace_raises(self):
        with pytest.raises(RslSyntaxError):
            parse_script("cmd a}")

    def test_error_carries_position(self):
        with pytest.raises(RslSyntaxError) as excinfo:
            parse_script("cmd\nbad }")
        assert excinfo.value.line == 2


class TestParseList:
    def test_multiline_braced_body_is_one_list(self):
        (result,) = parse_script("harmonyBundle App b {\n {x}\n {y}\n}")
        assert result.head_word() == "harmonyBundle"
        assert len(result[3]) == 2


class TestFormatNode:
    def test_format_parse_roundtrip_figure3(self, figure3_rsl):
        command = parse_script(figure3_rsl)[0]
        reparsed = parse_script(
            " ".join(format_node(item) for item in command.items))[0]
        assert _strip_positions(reparsed) == _strip_positions(command)


def _strip_positions(node):
    if isinstance(node, RslWord):
        return ("w", node.text)
    return ("l", tuple(_strip_positions(item) for item in node.items))


# -- property-based -----------------------------------------------------------

_word = st.text(
    alphabet=st.characters(
        whitelist_categories=("Lu", "Ll", "Nd"),
        whitelist_characters="._-+*/()?:<>=",
    ),
    min_size=1, max_size=12)


def _nodes(depth):
    if depth == 0:
        return _word.map(RslWord)
    return st.one_of(
        _word.map(RslWord),
        st.lists(_nodes(depth - 1), max_size=4).map(
            lambda items: RslList(tuple(items))))


@given(st.lists(_nodes(3), min_size=1, max_size=5))
def test_format_then_parse_is_identity(items):
    """Any formattable tree survives a round trip through the parser."""
    command = RslList(tuple(items))
    text = " ".join(format_node(item) for item in command.items)
    (reparsed,) = parse_script(text)
    assert _strip_positions(reparsed) == _strip_positions(command)
