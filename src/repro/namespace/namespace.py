"""The hierarchical Harmony namespace (paper Section 3.2).

The namespace is the shared vocabulary between the adaptation controller and
applications: it holds the currently instantiated application options and the
resources assigned to them, addressed by dotted paths like
``DBclient.66.where.DS.client.memory``.

The implementation is a tree of :class:`NamespaceNode` objects; leaves carry
values (numbers or strings).  Watchers may subscribe to a path prefix and are
notified synchronously on every change underneath it — the controller uses
this to propagate option changes into application variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.errors import NamespaceError
from repro.namespace.paths import is_prefix, join_path, split_path

__all__ = ["Namespace", "NamespaceNode", "NamespaceView"]

Value = float | int | str


@dataclass
class NamespaceNode:
    """One tree node: an interior namespace level or a leaf value."""

    name: str
    value: Value | None = None
    children: dict[str, "NamespaceNode"] = field(default_factory=dict)

    def is_leaf(self) -> bool:
        return not self.children


class Namespace:
    """A mutable hierarchical key/value tree with prefix watchers.

    >>> ns = Namespace()
    >>> ns.set("DBclient.66.where.DS.client.memory", 32)
    >>> ns.get("DBclient.66.where.DS.client.memory")
    32
    """

    def __init__(self) -> None:
        self._root = NamespaceNode(name="")
        self._watchers: list[tuple[str, Callable[[str, Value | None], None]]] = []

    # -- basic operations --------------------------------------------------

    def set(self, path: str, value: Value) -> None:
        """Create or overwrite the leaf at ``path``."""
        parts = split_path(path)
        node = self._root
        for part in parts:
            child = node.children.get(part)
            if child is None:
                child = node.children[part] = NamespaceNode(name=part)
            node = child
        node.value = value
        self._notify(path, value)

    def get(self, path: str, default: Value | None = None) -> Value | None:
        """Return the value at ``path`` or ``default`` when absent."""
        node = self._find(path)
        if node is None or node.value is None:
            return default
        return node.value

    def require(self, path: str) -> Value:
        """Return the value at ``path``; raise if missing."""
        node = self._find(path)
        if node is None or node.value is None:
            raise NamespaceError(f"no value at namespace path {path!r}")
        return node.value

    def exists(self, path: str) -> bool:
        """Whether ``path`` names any node (leaf or interior)."""
        return self._find(path) is not None

    def delete(self, path: str) -> None:
        """Remove the subtree rooted at ``path``; raise if absent."""
        parts = split_path(path)
        node = self._root
        for part in parts[:-1]:
            child = node.children.get(part)
            if child is None:
                raise NamespaceError(f"namespace path {path!r} not found")
            node = child
        if parts[-1] not in node.children:
            raise NamespaceError(f"namespace path {path!r} not found")
        del node.children[parts[-1]]
        self._notify(path, None)

    # -- traversal ---------------------------------------------------------

    def children(self, path: str | None = None) -> list[str]:
        """The names of the direct children under ``path`` (root if None)."""
        node = self._root if path is None else self._find(path)
        if node is None:
            raise NamespaceError(f"namespace path {path!r} not found")
        return sorted(node.children)

    def walk(self, path: str | None = None) -> Iterator[tuple[str, Value]]:
        """Yield ``(full_path, value)`` for every leaf value under ``path``."""
        if path is None:
            start, prefix_parts = self._root, ()
        else:
            node = self._find(path)
            if node is None:
                return
            start, prefix_parts = node, split_path(path)
        yield from self._walk_node(start, prefix_parts)

    def _walk_node(self, node: NamespaceNode, prefix: tuple[str, ...],
                   ) -> Iterator[tuple[str, Value]]:
        if node.value is not None and prefix:
            yield ".".join(prefix), node.value
        for name in sorted(node.children):
            yield from self._walk_node(node.children[name], prefix + (name,))

    def as_dict(self, path: str | None = None) -> dict[str, Value]:
        """Snapshot all leaves under ``path`` as a flat dict."""
        return dict(self.walk(path))

    # -- watchers ----------------------------------------------------------

    def watch(self, prefix: str,
              callback: Callable[[str, Value | None], None]) -> Callable[[], None]:
        """Call ``callback(path, value)`` on changes under ``prefix``.

        ``value`` is ``None`` for deletions.  Returns an unsubscribe
        function.
        """
        entry = (prefix, callback)
        self._watchers.append(entry)

        def unsubscribe() -> None:
            if entry in self._watchers:
                self._watchers.remove(entry)

        return unsubscribe

    def _notify(self, path: str, value: Value | None) -> None:
        for prefix, callback in list(self._watchers):
            if is_prefix(prefix, path):
                callback(path, value)

    # -- scoped views ------------------------------------------------------

    def view(self, prefix: str) -> "NamespaceView":
        """A view whose paths are all relative to ``prefix``."""
        return NamespaceView(self, prefix)

    def _find(self, path: str) -> NamespaceNode | None:
        node = self._root
        for part in split_path(path):
            child = node.children.get(part)
            if child is None:
                return None
            node = child
        return node


class NamespaceView:
    """A namespace scoped under a prefix.

    Options refer to their resources by local names (``client.memory``); a
    view rooted at ``DBclient.66.where.DS`` resolves those names against the
    global tree.  Views also satisfy the expression-evaluator
    :class:`~repro.rsl.expressions.Environment` protocol via :meth:`lookup`.
    """

    def __init__(self, namespace: Namespace, prefix: str):
        split_path(prefix)  # validate
        self._namespace = namespace
        self._prefix = prefix

    @property
    def prefix(self) -> str:
        return self._prefix

    def set(self, path: str, value: Value) -> None:
        self._namespace.set(join_path(self._prefix, path), value)

    def get(self, path: str, default: Value | None = None) -> Value | None:
        return self._namespace.get(join_path(self._prefix, path), default)

    def require(self, path: str) -> Value:
        return self._namespace.require(join_path(self._prefix, path))

    def exists(self, path: str) -> bool:
        return self._namespace.exists(join_path(self._prefix, path))

    def as_dict(self) -> dict[str, Value]:
        """Leaves under the prefix, keyed by their *local* paths."""
        full = self._namespace.as_dict(self._prefix)
        offset = len(self._prefix) + 1
        return {path[offset:]: value for path, value in full.items()}

    def lookup(self, name: str) -> float:
        """Environment-protocol lookup for RSL expression evaluation."""
        value = self.get(name)
        if value is None:
            raise KeyError(name)
        return float(value)
