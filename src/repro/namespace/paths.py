"""Dotted-path utilities for the Harmony namespace.

Fully qualified names follow the paper's Section 3.2::

    application.instance.bundle.option.resource.tag

e.g. ``DBclient.66.where.DS.client.memory``.  Path components may not be
empty and may not contain dots; replica resources use bracketed names like
``worker[3]`` which are single components.
"""

from __future__ import annotations

from repro.errors import NamespaceError

__all__ = ["split_path", "join_path"]


def split_path(path: str) -> tuple[str, ...]:
    """Split ``'a.b.c'`` into ``('a', 'b', 'c')``, validating components."""
    if not path:
        raise NamespaceError("empty namespace path")
    parts = tuple(path.split("."))
    if "" in parts:  # the one way a split component can be invalid
        raise NamespaceError("empty namespace path component")
    return parts


def join_path(*components: str) -> str:
    """Join components (each may itself be a dotted path) into one path."""
    if "" in components:
        raise NamespaceError("empty namespace path component")
    path = ".".join(components)
    split_path(path)
    return path
