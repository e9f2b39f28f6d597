"""One place says what a message type means: ``MESSAGES`` in protocol.py.

The server's gates and locks, the asyncio pool split and the client's
error mapping all read the message table.  A module that compares a
message's ``type`` with a string literal, or that builds its own set of
client type names, is a second source of truth that the table (and the
docs test over it) cannot see — add a column to ``MessageSpec`` instead,
or compare against a named constant from ``repro.api.protocol``.
"""

import ast
import pathlib

from repro.api import protocol
from repro.api.protocol import CLIENT_TYPES

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
EXEMPT = {"repro/api/protocol.py"}


def _is_type_read(node):
    """``m.get("type")`` or ``m["type"]``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "get" and node.args \
            and isinstance(node.args[0], ast.Constant) \
            and node.args[0].value == "type":
        return True
    return isinstance(node, ast.Subscript) \
        and isinstance(node.slice, ast.Constant) \
        and node.slice.value == "type"


def _unwrap(node):
    """``str(x)`` -> ``x``; anything else unchanged."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "str" and len(node.args) == 1:
        return node.args[0]
    return node


def _type_names(tree):
    """Names bound to a message's type anywhere in the module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) \
                and _is_type_read(_unwrap(node.value)):
            names.update(target.id for target in node.targets
                         if isinstance(target, ast.Name))
    return names


def _is_literal(node):
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str)
    return isinstance(node, (ast.Tuple, ast.List, ast.Set)) and any(
        _is_literal(element) for element in node.elts)


def _names_a_client_type(node):
    if isinstance(node, ast.Constant):
        return node.value in CLIENT_TYPES
    return isinstance(node, ast.Name) \
        and getattr(protocol, node.id, None) in CLIENT_TYPES


def _set_elements(node):
    """The elements of a set display, or of set()/frozenset() over a list
    or tuple display (over a set display, the display itself counts)."""
    if isinstance(node, ast.Set):
        return node.elts
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset") and node.args \
            and isinstance(node.args[0], (ast.List, ast.Tuple)):
        return node.args[0].elts
    return []


def violations(tree):
    found = []
    type_names = _type_names(tree)

    def is_type(node):
        node = _unwrap(node)
        return _is_type_read(node) or (
            isinstance(node, ast.Name) and node.id in type_names)

    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(is_type, operands)) and any(map(_is_literal,
                                                       operands)):
                found.append((node.lineno, "type compared with a literal"))
        if any(map(_names_a_client_type, _set_elements(node))):
            found.append((node.lineno, "set of client type names"))
    return found


def test_message_meaning_lives_only_in_the_table():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        relative = str(path.relative_to(SRC))
        if relative in EXEMPT:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"),
                         filename=str(path))
        if found := violations(tree):
            offenders[relative] = found
    assert not offenders, (
        f"message types interpreted outside repro/api/protocol.py: "
        f"{offenders} — read MESSAGES instead (see this module's "
        f"docstring)")


def test_the_ratchet_sees_the_forms_it_forbids():
    source = '''
LOCKED = frozenset({"register", END})
def dispatch(message):
    kind = str(message.get("type"))
    if kind == "end" or message["type"] in ("status", "heartbeat"):
        return
    if kind == HEARTBEAT or kind in LOCKED:
        return
'''
    assert {line for line, _ in violations(ast.parse(source))} == {2, 5}
