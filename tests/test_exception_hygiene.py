"""Repo-wide ban on new blanket exception handlers.

A blanket ``except Exception`` (or worse) in request paths has bitten
this codebase twice: the replication shipper ate programming errors
as if they were dead links, and the asyncio batch runner swallowed
cancellation.  The policy is: catch the *typed* failures a site expects; a residual
catch-all is allowed only at a deliberate boundary that records the
error and re-raises (or converts it into a typed error / a visible
failure of the unit of work).

Every allowed site is pinned below with an exact count per file.  If
you add a catch-all, narrow it instead — or, if it genuinely is a new
boundary, add it here with a justification comment.  If you remove
one, ratchet the count down.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: path (relative to src/) -> number of permitted blanket handlers
#: (``except:``, ``except Exception``, ``except BaseException``,
#: including inside tuples).
ALLOWED_HANDLERS = {
    # Wrap-and-re-raise: arbitrary parser failures become typed
    # RslSemanticError with the offending text attached.
    "repro/rsl/builder.py": 3,
    # Simulation kernel boundary: a process body's failure becomes the
    # process result (mirrors how real event loops contain tasks).
    "repro/cluster/kernel.py": 1,
    # Session dispatch boundary: captures the flight-recorder timeline,
    # then re-raises (or fail-stops the whole server under chaos).
    "repro/api/server.py": 1,
    # Async batch boundary: counts the error, closes the session, and
    # re-raises so the dispatcher task fails loudly.
    "repro/api/aio.py": 1,
    # WAL shipper boundary: flight-records ship_error, then re-raises —
    # only typed transport/protocol failures drop the link.
    "repro/persistence/replication.py": 1,
}

#: path -> number of permitted ``contextlib.suppress(Exception)`` uses
#: (best-effort teardown only: closing sockets, draining queues).
ALLOWED_SUPPRESS = {
    "repro/api/client.py": 1,
    "repro/api/server.py": 3,
}

BLANKET_NAMES = {"Exception", "BaseException"}


def _is_blanket(expr):
    if expr is None:  # bare except:
        return True
    if isinstance(expr, ast.Name) and expr.id in BLANKET_NAMES:
        return True
    if isinstance(expr, ast.Tuple):
        return any(_is_blanket(element) for element in expr.elts)
    return False


def _blanket_handlers(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler)
            and _is_blanket(node.type)]


def _suppress_calls(tree):
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else \
            func.id if isinstance(func, ast.Name) else None
        if name == "suppress" and any(_is_blanket(arg)
                                      for arg in node.args):
            found.append(node)
    return found


def _scan():
    handlers, suppresses = {}, {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"),
                         filename=str(path))
        rel = str(path.relative_to(SRC))
        blankets = _blanket_handlers(tree)
        if blankets:
            handlers[rel] = [node.lineno for node in blankets]
        wide = _suppress_calls(tree)
        if wide:
            suppresses[rel] = [node.lineno for node in wide]
    return handlers, suppresses


def test_no_new_blanket_except_handlers():
    handlers, _ = _scan()
    unexpected = {path: lines for path, lines in handlers.items()
                  if len(lines) != ALLOWED_HANDLERS.get(path, 0)}
    removed = {path for path in ALLOWED_HANDLERS
               if path not in handlers}
    assert not unexpected and not removed, (
        f"blanket exception handlers drifted from the allowlist.\n"
        f"  off-allowlist (file: handler lines): {unexpected}\n"
        f"  allowlisted but gone (ratchet the count down): {removed}\n"
        f"Narrow new handlers to the typed errors the site expects; "
        f"see this module's docstring for the boundary policy.")


def test_no_new_blanket_suppress():
    _, suppresses = _scan()
    unexpected = {path: lines for path, lines in suppresses.items()
                  if len(lines) != ALLOWED_SUPPRESS.get(path, 0)}
    removed = {path for path in ALLOWED_SUPPRESS
               if path not in suppresses}
    assert not unexpected and not removed, (
        f"contextlib.suppress(Exception) drifted from the allowlist.\n"
        f"  off-allowlist: {unexpected}\n"
        f"  allowlisted but gone: {removed}\n"
        f"suppress(Exception) is for best-effort teardown only.")


def test_allowlists_point_at_real_files():
    for rel in list(ALLOWED_HANDLERS) + list(ALLOWED_SUPPRESS):
        assert (SRC / rel).is_file(), f"allowlist entry {rel} is stale"
