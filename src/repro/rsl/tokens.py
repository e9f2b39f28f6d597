"""Tokenizer for the Harmony RSL.

The RSL is hosted on a TCL-style surface syntax (the paper implements it
directly in TCL).  The grammar we need is the TCL *list* subset:

* whitespace separates words,
* ``{ ... }`` groups words into a nested list; braces nest and nothing inside
  is substituted,
* ``" ... "`` produces a single word that may contain whitespace,
* newlines and ``;`` end a command at the top level,
* ``#`` at the start of a command introduces a comment to end of line.

:func:`scan` produces a flat stream of ``(type, value, line, column)``
tuples, positions 1-based; the parser in :mod:`repro.rsl.parser` builds
nested lists from them.
"""

from __future__ import annotations

import enum
import re
from typing import Iterator

from repro.errors import RslSyntaxError

__all__ = ["TokenType", "scan"]


class TokenType(enum.Enum):
    """Lexical categories of RSL tokens."""

    WORD = "word"            # bare word: harmonyBundle, 42, client.memory
    OPEN_BRACE = "{"         # start of a nested list
    CLOSE_BRACE = "}"        # end of a nested list
    COMMAND_END = ";"        # newline or semicolon at command level
    EOF = "eof"


#: The whole lexical grammar, tried at each position in this order.  A
#: backslash-newline is a continuation only *between* words (inside one,
#: the word alternative has already consumed the backslash); a quote with
#: no closing quote matches ``quoted`` nowhere and falls through to
#: ``word``, which is how the loop recognises it.  ``DOTALL`` lets a
#: backslash escape a newline inside quotes.
_TOKEN = re.compile(
    r"(?P<blank>[ \t\r]+)"
    r"|(?P<continuation>\\\n)"
    r"|(?P<end>[\n;])"
    r"|(?P<open>\{)"
    r"|(?P<close>\})"
    r'|"(?P<quoted>[^"\\]*(?:\\.[^"\\]*)*)"'
    r"|(?P<word>[^ \t\r\n;{}]+)",
    re.DOTALL)
_BLANK, _CONTINUATION, _END, _OPEN, _CLOSE, _QUOTED, _WORD = range(1, 8)

_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPED = {"n": "\n", "t": "\t"}


def _unescape(match: re.Match) -> str:
    char = match.group(1)
    return _ESCAPED.get(char, char)


def scan(text: str) -> Iterator[tuple[TokenType, str, int, int]]:
    """The token stream as ``(type, value, line, column)`` tuples,
    ending with an EOF token.

    Raises :class:`RslSyntaxError` on an unterminated quoted string.
    Brace balancing is the parser's job, not the tokenizer's.
    """
    match = _TOKEN.match
    word, end_type = TokenType.WORD, TokenType.COMMAND_END
    open_brace, close_brace = TokenType.OPEN_BRACE, TokenType.CLOSE_BRACE
    pos, length = 0, len(text)
    line, line_start = 1, 0  # line_start: offset just past the last newline
    at_command_start = True

    while pos < length:
        found = match(text, pos)
        kind = found.lastindex
        start, pos = pos, found.end()
        if kind == _BLANK:
            continue
        if kind == _CONTINUATION:
            line += 1
            line_start = pos
            continue
        column = start - line_start + 1
        if kind == _END:
            value = found.group()
            if not at_command_start:
                yield end_type, value, line, column
            at_command_start = True
            if value == "\n":
                line += 1
                line_start = pos
            continue
        if kind == _WORD:
            if at_command_start and text[start] == "#":
                newline = text.find("\n", start)
                pos = length if newline < 0 else newline
                continue
            if text[start] == '"':
                raise RslSyntaxError("unterminated quoted string",
                                     line, column)
            yield word, found.group(), line, column
        elif kind == _OPEN:
            yield open_brace, "{", line, column
        elif kind == _CLOSE:
            yield close_brace, "}", line, column
        else:
            value = found.group(_QUOTED)
            if "\\" in value:
                value = _ESCAPE.sub(_unescape, value)
            yield word, value, line, column
            newlines = text.count("\n", start, pos)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", start, pos) + 1
        at_command_start = False

    yield TokenType.EOF, "", line, length - line_start + 1
