"""Parser for the Harmony RSL surface syntax.

Builds nested :class:`RslList` structures out of the token stream produced by
:mod:`repro.rsl.tokens`.  The result mirrors TCL semantics: a *script* is a
sequence of *commands*, and each command is a flat sequence of *words*, where
a word is either a string or a nested list (from ``{ ... }``).

The parser is purely syntactic.  Interpreting a command as, say, a
``harmonyBundle`` declaration is the job of :mod:`repro.rsl.builder`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

from repro.errors import RslSyntaxError
from repro.rsl.tokens import TokenType, scan

__all__ = ["RslWord", "RslList", "RslNode", "parse_script", "parse_list",
           "format_node"]


@dataclass(frozen=True)
class RslWord:
    """A leaf word in an RSL structure (always stored as its source string)."""

    text: str
    line: int = 0
    column: int = 0

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class RslList:
    """A ``{ ... }``-delimited (or top-level command) sequence of nodes."""

    items: tuple["RslNode", ...] = field(default_factory=tuple)
    line: int = 0
    column: int = 0

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator["RslNode"]:
        return iter(self.items)

    def __getitem__(self, index: int) -> "RslNode":
        return self.items[index]

    def head_word(self) -> str | None:
        """Return the first item's text if it is a word, else ``None``."""
        if self.items and isinstance(self.items[0], RslWord):
            return self.items[0].text
        return None


RslNode = Union[RslWord, RslList]


#: Deepest ``{`` nesting accepted (the paper's Fig. 3 nests six).  The
#: parser itself keeps an explicit stack, but the builder, the formatter
#: and the expression parser recurse over its output.
MAX_NESTING = 64


def parse_script(text: str) -> list[RslList]:
    """Parse an RSL script into a list of commands.

    Each command is an :class:`RslList` whose items are the command's words.
    Empty commands (blank lines, comment-only lines) are dropped.

    >>> cmds = parse_script("harmonyNode alpha {speed 1.5}")
    >>> cmds[0].head_word()
    'harmonyNode'
    """
    word, open_brace = TokenType.WORD, TokenType.OPEN_BRACE
    close_brace, command_end = TokenType.CLOSE_BRACE, TokenType.COMMAND_END
    commands: list[RslList] = []
    #: The open lists enclosing the one being filled, outermost first,
    #: each as ``(items, line, column)``; empty at command level.
    stack: list[tuple[list[RslNode], int, int]] = []
    items: list[RslNode] | None = None  # None between commands
    start_line = start_column = 0
    for kind, value, line, column in scan(text):
        if kind is word:
            if items is None:
                items, start_line, start_column = [], line, column
            items.append(RslWord(value, line, column))
        elif kind is open_brace:
            if items is None:
                items, start_line, start_column = [], line, column
            if len(stack) == MAX_NESTING:
                raise RslSyntaxError(
                    f"nesting deeper than {MAX_NESTING}", line, column)
            stack.append((items, start_line, start_column))
            items, start_line, start_column = [], line, column
        elif kind is close_brace:
            if not stack:
                raise RslSyntaxError("unmatched '}'", line, column)
            closed = RslList(tuple(items), start_line, start_column)
            items, start_line, start_column = stack.pop()
            items.append(closed)
        elif stack:
            if kind is not command_end:
                raise RslSyntaxError(
                    "unterminated '{'", start_line, start_column)
            # Newlines inside braces are just whitespace for our list subset.
        elif items is not None:  # a command end or EOF closes the command
            commands.append(RslList(tuple(items), start_line, start_column))
            items = None
    return commands


def parse_list(text: str) -> RslList:
    """Parse ``text`` as a single list of words (no command separators).

    Useful for parsing the *body* of a tag whose value is itself RSL, e.g. a
    bundle definition string handed to ``harmony_bundle_setup``.
    """
    commands = parse_script(text)
    if not commands:
        return RslList()
    if len(commands) == 1:
        return commands[0]
    raise RslSyntaxError(
        f"expected a single RSL list, found {len(commands)} commands",
        commands[1].line, commands[1].column)


def format_node(node: RslNode) -> str:
    """Render a parsed node back to RSL text.

    Round-trips through :func:`parse_list`: formatting then reparsing yields
    an equal structure (source positions aside).
    """
    if isinstance(node, RslWord):
        return _format_word(node.text)
    return "{" + " ".join(format_node(item) for item in node.items) + "}"


def _format_word(text: str) -> str:
    if text == "":
        return '""'
    if any(ch in text for ch in " \t\n;{}\""):
        escaped = text.replace("\\", "\\\\").replace('"', '\\"')
        escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
        return f'"{escaped}"'
    return text
