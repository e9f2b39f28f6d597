"""The character scanner and recursive-descent parser `repro.rsl` shipped
until the one-pass lexer replaced them, kept verbatim as its oracle.

``tests/rsl/test_frontend_differential.py`` holds the production
``tokenize``/``parse_script`` to this module: same tokens with the same
positions, equal trees, the same error message at the same position.
The only deliberate difference is the production parser's nesting bound;
this parser recurses and has none.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import RslSyntaxError
from repro.rsl.parser import RslList, RslNode, RslWord
from repro.rsl.tokens import Token, TokenType

__all__ = ["tokenize", "parse_script"]


_WHITESPACE = " \t\r"
_WORD_TERMINATORS = _WHITESPACE + "\n;{}"


class _Scanner:
    """Character-level cursor with line/column tracking."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    def peek(self) -> str:
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.column = 1
        else:
            self.column += 1
        return ch

    def at_end(self) -> bool:
        return self.pos >= len(self.text)


def tokenize(text: str) -> Iterator[Token]:
    """Yield the token stream for ``text``, ending with an EOF token."""
    scanner = _Scanner(text)
    at_command_start = True

    while not scanner.at_end():
        ch = scanner.peek()
        line, column = scanner.line, scanner.column

        if ch in _WHITESPACE:
            scanner.advance()
            continue

        if ch == "\\" and scanner.pos + 1 < len(scanner.text) \
                and scanner.text[scanner.pos + 1] == "\n":
            # Backslash-newline is a line continuation in TCL.
            scanner.advance()
            scanner.advance()
            continue

        if ch in "\n;":
            scanner.advance()
            if not at_command_start:
                yield Token(TokenType.COMMAND_END, ch, line, column)
            at_command_start = True
            continue

        if ch == "#" and at_command_start:
            while not scanner.at_end() and scanner.peek() != "\n":
                scanner.advance()
            continue

        at_command_start = False

        if ch == "{":
            scanner.advance()
            yield Token(TokenType.OPEN_BRACE, "{", line, column)
            continue

        if ch == "}":
            scanner.advance()
            yield Token(TokenType.CLOSE_BRACE, "}", line, column)
            continue

        if ch == '"':
            yield _scan_quoted(scanner, line, column)
            continue

        yield _scan_word(scanner, line, column)

    yield Token(TokenType.EOF, "", scanner.line, scanner.column)


def _scan_quoted(scanner: _Scanner, line: int, column: int) -> Token:
    """Consume a double-quoted word, handling backslash escapes."""
    scanner.advance()  # opening quote
    chars: list[str] = []
    while True:
        if scanner.at_end():
            raise RslSyntaxError("unterminated quoted string", line, column)
        ch = scanner.advance()
        if ch == '"':
            break
        if ch == "\\" and not scanner.at_end():
            escaped = scanner.advance()
            chars.append({"n": "\n", "t": "\t"}.get(escaped, escaped))
            continue
        chars.append(ch)
    return Token(TokenType.WORD, "".join(chars), line, column)


def _scan_word(scanner: _Scanner, line: int, column: int) -> Token:
    """Consume a bare word up to whitespace, newline, ``;`` or a brace."""
    chars: list[str] = []
    while not scanner.at_end() and scanner.peek() not in _WORD_TERMINATORS:
        chars.append(scanner.advance())
    return Token(TokenType.WORD, "".join(chars), line, column)


class _TokenCursor:
    """Single-token lookahead over the token stream."""

    def __init__(self, tokens: Iterator[Token]):
        self._tokens = tokens
        self._current = next(tokens)

    @property
    def current(self) -> Token:
        return self._current

    def advance(self) -> Token:
        token = self._current
        if token.type is not TokenType.EOF:
            self._current = next(self._tokens)
        return token


def parse_script(text: str) -> list[RslList]:
    """Parse an RSL script into a list of commands."""
    cursor = _TokenCursor(tokenize(text))
    commands: list[RslList] = []
    while cursor.current.type is not TokenType.EOF:
        if cursor.current.type is TokenType.COMMAND_END:
            cursor.advance()
            continue
        commands.append(_parse_command(cursor))
    return commands


def _parse_command(cursor: _TokenCursor) -> RslList:
    start = cursor.current
    items: list[RslNode] = []
    while True:
        token = cursor.current
        if token.type in (TokenType.EOF, TokenType.COMMAND_END):
            if token.type is TokenType.COMMAND_END:
                cursor.advance()
            break
        if token.type is TokenType.CLOSE_BRACE:
            raise RslSyntaxError("unmatched '}'", token.line, token.column)
        items.append(_parse_node(cursor))
    return RslList(tuple(items), start.line, start.column)


def _parse_node(cursor: _TokenCursor) -> RslNode:
    token = cursor.current
    if token.type is TokenType.WORD:
        cursor.advance()
        return RslWord(token.value, token.line, token.column)
    if token.type is TokenType.OPEN_BRACE:
        return _parse_braced(cursor)
    raise RslSyntaxError(
        f"unexpected token {token.value!r}", token.line, token.column)


def _parse_braced(cursor: _TokenCursor) -> RslList:
    open_token = cursor.advance()  # consume '{'
    items: list[RslNode] = []
    while True:
        token = cursor.current
        if token.type is TokenType.EOF:
            raise RslSyntaxError(
                "unterminated '{'", open_token.line, open_token.column)
        if token.type is TokenType.CLOSE_BRACE:
            cursor.advance()
            break
        if token.type is TokenType.COMMAND_END:
            # Newlines inside braces are just whitespace for our list subset.
            cursor.advance()
            continue
        items.append(_parse_node(cursor))
    return RslList(tuple(items), open_token.line, open_token.column)
