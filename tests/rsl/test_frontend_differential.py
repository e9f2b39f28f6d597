"""The one-pass lexer and explicit-stack parser against the scanner and
recursive-descent parser they replaced (``reference_frontend``).

For every text: the same ``(type, value, line, column)`` stream or the
same :class:`RslSyntaxError` message at the same position, and equal
trees (``RslWord``/``RslList`` equality includes positions) or the same
error.  The nesting bound is the one intended difference and is asserted
as such.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RslSyntaxError
from repro.rsl import build_bundle, parse_script
from repro.rsl.parser import MAX_NESTING
from repro.rsl.tokens import TokenType, scan
from tests.rsl import reference_frontend as reference

#: Every character the lexer tells apart, a few it does not, and one
#: outside ASCII.
ALPHABET = " \t\r\n;{}\"\\#ab1.nt\u00e9"


def outcome(function, text):
    try:
        return "ok", function(text)
    except RslSyntaxError as error:
        return "error", str(error), error.line, error.column


def reference_stream(text):
    return [(token.type, token.value, token.line, token.column)
            for token in reference.tokenize(text)]


def assert_same_front_end(text):
    expected = outcome(reference_stream, text)
    assert outcome(lambda text: list(scan(text)), text) == expected, \
        repr(text)
    expected = outcome(reference.parse_script, text)
    depth = max_depth(text) if expected[0] == "ok" else 0
    if depth > MAX_NESTING:
        kind, message = outcome(parse_script, text)[:2]
        assert kind == "error" and message.startswith(
            f"nesting deeper than {MAX_NESTING}"), repr(text)
    else:
        assert outcome(parse_script, text) == expected, repr(text)


def max_depth(text):
    depth = deepest = 0
    for token in reference.tokenize(text):
        if token.type is TokenType.OPEN_BRACE:
            depth += 1
            deepest = max(deepest, depth)
        elif token.type is TokenType.CLOSE_BRACE:
            depth -= 1
    return deepest


flat_text = st.text(alphabet=ALPHABET, max_size=60)
#: Braces and quotes closed on purpose, so that deep trees and quoted
#: words spanning lines are the common case rather than the lucky one.
nested_text = st.recursive(
    flat_text,
    lambda inner: st.one_of(
        inner.map(lambda body: "{" + body + "}"),
        inner.map(lambda body: '"' + body.replace('"', '\\"') + '"'),
        st.tuples(inner, inner).map(" ".join),
        st.tuples(inner, inner).map("\n".join)),
    max_leaves=12)


@settings(max_examples=500, deadline=None)
@given(flat_text)
def test_same_as_reference_on_lexical_alphabet(text):
    assert_same_front_end(text)


@settings(max_examples=300, deadline=None)
@given(nested_text)
def test_same_as_reference_on_nested_text(text):
    assert_same_front_end(text)


def test_same_as_reference_on_a_fixed_sweep():
    rng = random.Random(1999)
    for _ in range(20_000):
        assert_same_front_end("".join(
            rng.choice(ALPHABET) for _ in range(rng.randint(0, 40))))


@pytest.mark.parametrize("text", [
    '"',                         # no closing quote at end of text
    'a "b c',
    '"abc\\',                    # backslash is the last character
    '"abc\\"',                   # ... and an escaped quote is not a close
    'ab\\\ncd',                  # backslash-newline inside a word
    'ab \\\ncd',                 # ... and between words
    'ab \\\n  \\\n cd {e\\\n}',
    'a; # not a word\nb',        # comment after ;
    'a\n\\\n# after a continuation\nb',
    'a # mid-command is a word\nb',
    'a\r\nb\r\n',
    '{a\r\n#c\r\n}',
    '"two\nlines" next\nthird',  # the next token's line and column
    '"esc\\\nnl" next',
    '"a"b"c"',
    '"a""b"',
    'a"b c"d',
    'x\n',                       # EOF column after a trailing newline
    'x\n  ',
    '#only a comment',
    '# comment \\\nnot continued',
    '}', 'a }', '{', '{a {b', '{a}}', '{"}"}', '{;}', ';;a;;b;;',
    '\\', '\\a', 'a\\', '\\\n', '{\\\n}',
])
def test_named_cases(text):
    assert_same_front_end(text)


def test_positions_after_a_quoted_newline():
    tokens = list(scan('"two\nlines" next\nthird'))
    assert [(value, line, column) for _, value, line, column in tokens] == [
        ("two\nlines", 1, 1), ("next", 2, 8), ("\n", 2, 12),
        ("third", 3, 1), ("", 3, 6)]


def test_eof_column_after_trailing_newline():
    eof = list(scan("x\n"))[-1]
    assert eof == (TokenType.EOF, "", 2, 1)


class TestNestingBound:
    def nested(self, depth):
        return "{" * depth + "1" + "}" * depth

    def test_bound_is_accepted(self):
        (command,) = parse_script("a " + self.nested(MAX_NESTING))
        assert command == reference.parse_script(
            "a " + self.nested(MAX_NESTING))[0]

    def test_one_deeper_is_rejected_at_the_offending_brace(self):
        with pytest.raises(RslSyntaxError) as excinfo:
            parse_script("a\nbc " + self.nested(MAX_NESTING + 1))
        assert str(excinfo.value).startswith(
            f"nesting deeper than {MAX_NESTING} at line 2")
        assert (excinfo.value.line, excinfo.value.column) == \
            (2, 4 + MAX_NESTING)

    def test_two_kilobytes_of_braces_is_a_syntax_error(self):
        text = "harmonyBundle A b {{o {node n {seconds " + \
            self.nested(3000) + "}}}}"
        with pytest.raises(RslSyntaxError, match="nesting deeper than"):
            build_bundle(text)
