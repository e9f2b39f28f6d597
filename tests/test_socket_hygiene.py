"""One place opens sockets, so one place sets their options.

Both ends of every Harmony connection must disable Nagle
(``docs/wire-protocol.md`` §1).  That holds without a knob because every
stream socket in ``src/`` is born at one of three pinned sites:
``TcpTransport.connect`` dials (and ``TcpTransport.__init__`` sets the
option on whatever it wraps, accepted sockets included), the threaded
front end's listener, and the asyncio front end's ``create_server``
(whose protocol sets it in ``connection_made``).  A new dial or listen
site anywhere else would bypass the option — go through
``TcpTransport`` instead, or pin the new site here with the reason.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Calls that create a socket, by attribute or bare name.
OPENERS = {"create_connection", "create_server", "open_connection",
           "start_server"}

#: path (relative to src/) -> the openers it may call, once each.
ALLOWED_SITES = {
    "repro/api/transport.py": ["create_connection"],
    "repro/api/server.py": ["socket.socket"],
    "repro/api/aio.py": ["create_server"],
}


def _opener(call):
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else \
        func.id if isinstance(func, ast.Name) else None
    if name in OPENERS:
        return name
    if name == "socket" and isinstance(func, ast.Attribute) \
            and isinstance(func.value, ast.Name) \
            and func.value.id == "socket":
        return "socket.socket"
    return None


def test_sockets_are_opened_only_at_the_pinned_sites():
    sites = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"),
                         filename=str(path))
        found = sorted(opener for node in ast.walk(tree)
                       if isinstance(node, ast.Call)
                       and (opener := _opener(node)) is not None)
        if found:
            sites[str(path.relative_to(SRC))] = found
    assert sites == ALLOWED_SITES, (
        f"socket-opening calls drifted from the pinned sites.\n"
        f"  found:  {sites}\n"
        f"  pinned: {ALLOWED_SITES}\n"
        f"Dial through TcpTransport.connect (which disables Nagle); see "
        f"this module's docstring.")
