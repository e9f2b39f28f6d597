"""Lazy re-exports for the package roots (PEP 562).

A package root lists its public names in one table, name -> the module
that defines it, and imports that module only when the name is first
read, so importing ``repro`` or ``repro.api`` loads none of the stack.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable


def lazy_exports(namespace: dict[str, Any], table: dict[str, str]
                 ) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """A module's ``__getattr__`` and ``__dir__`` for ``table``.

    A resolved name is stored in ``namespace``, so Python finds it there
    on the next read without calling ``__getattr__`` again.
    """
    def __getattr__(name: str) -> Any:
        module = table.get(name)
        if module is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module),
                                          name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *table})

    return __getattr__, __dir__
