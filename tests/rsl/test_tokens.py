"""Tokenizer tests."""

import pytest

from repro.errors import RslSyntaxError
from repro.rsl.tokens import TokenType, scan


def types_of(text):
    return [kind for kind, _value, _line, _column in scan(text)]


def words_of(text):
    return [value for kind, value, _line, _column in scan(text)
            if kind is TokenType.WORD]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        assert types_of("") == [TokenType.EOF]

    def test_single_word(self):
        tokens = list(scan("harmonyBundle"))
        assert tokens[0] == (TokenType.WORD, "harmonyBundle", 1, 1)
        assert tokens[1][0] is TokenType.EOF

    def test_words_split_on_whitespace(self):
        assert words_of("a b\tc") == ["a", "b", "c"]

    def test_braces_are_separate_tokens(self):
        assert types_of("{a}")[:3] == [TokenType.OPEN_BRACE, TokenType.WORD,
                                       TokenType.CLOSE_BRACE]

    def test_braces_terminate_words(self):
        assert words_of("abc{def}") == ["abc", "def"]

    def test_newline_is_command_end_between_commands(self):
        types = types_of("a\nb")
        assert TokenType.COMMAND_END in types

    def test_leading_newlines_emit_no_command_end(self):
        assert types_of("\n\n\na") == [TokenType.WORD, TokenType.EOF]

    def test_semicolon_separates_commands(self):
        types = types_of("a; b")
        assert types.count(TokenType.COMMAND_END) == 1

    def test_word_positions_track_lines_and_columns(self):
        tokens = list(scan("ab\n  cd"))
        assert tokens[0][2:] == (1, 1)
        cd = [token for token in tokens if token[1] == "cd"][0]
        assert cd[2:] == (2, 3)


class TestQuoting:
    def test_quoted_string_keeps_spaces(self):
        assert words_of('"hello world"') == ["hello world"]

    def test_quoted_string_with_braces(self):
        assert words_of('"{not a list}"') == ["{not a list}"]

    def test_escape_sequences(self):
        assert words_of(r'"a\"b"') == ['a"b']
        assert words_of(r'"a\nb"') == ["a\nb"]
        assert words_of(r'"a\tb"') == ["a\tb"]

    def test_unterminated_quote_raises_with_position(self):
        with pytest.raises(RslSyntaxError) as excinfo:
            list(scan('abc "unterminated'))
        assert excinfo.value.line == 1
        assert excinfo.value.column == 5

    def test_empty_quoted_string(self):
        assert words_of('""') == [""]


class TestCommentsAndContinuations:
    def test_comment_at_command_start_skipped(self):
        assert words_of("# a comment\nword") == ["word"]

    def test_hash_inside_word_is_literal(self):
        assert words_of("a#b") == ["a#b"]

    def test_backslash_newline_continues_line(self):
        types = types_of("a \\\n b")
        assert TokenType.COMMAND_END not in types
        assert words_of("a \\\n b") == ["a", "b"]


class TestRealWorldInputs:
    def test_figure3_like_expression_stays_one_stream(self):
        text = "{44 + (client.memory > 24 ? 24 : client.memory) - 17}"
        words = words_of(text)
        assert "44" in words
        assert "(client.memory" in words
        assert "17}" not in words  # brace split off correctly

    def test_windows_line_endings(self):
        assert words_of("a\r\nb") == ["a", "b"]
