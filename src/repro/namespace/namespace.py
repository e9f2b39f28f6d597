"""The hierarchical Harmony namespace (paper Section 3.2).

The namespace is the shared vocabulary between the adaptation controller and
applications: it holds the currently instantiated application options and the
resources assigned to them, addressed by dotted paths like
``DBclient.66.where.DS.client.memory``.

The implementation is a tree of :class:`NamespaceNode` objects; leaves carry
values (numbers or strings).  The tree notifies no one: the controller tells
applications of option changes through its event listeners
(``AdaptationController.add_listener``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.errors import NamespaceError
from repro.namespace.paths import join_path, split_path

__all__ = ["Namespace", "NamespaceNode", "NamespaceView"]

Value = float | int | str


@dataclass
class NamespaceNode:
    """One tree node: an interior namespace level or a leaf value."""

    name: str
    value: Value | None = field(init=False, default=None)
    children: dict[str, "NamespaceNode"] = field(init=False,
                                                 default_factory=dict)


class Namespace:
    """A mutable hierarchical key/value tree.

    >>> ns = Namespace()
    >>> ns.set("DBclient.66.where.DS.client.memory", 32)
    >>> ns.get("DBclient.66.where.DS.client.memory")
    32
    """

    def __init__(self) -> None:
        self._root = NamespaceNode(name="")

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

    def get(self, path: str, default: Value | None = None) -> Value | None:
        """Return the value at ``path`` or ``default`` when absent."""
        node = self._find(path)
        if node is None or node.value is None:
            return default
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

    def replace(self, root: str,
                leaves: Iterable[tuple[str, Value]]) -> None:
        """Replace the subtree at ``root`` with ``leaves``, pairs of a path
        relative to ``root`` and its value.

        The same tree as :meth:`delete` of ``root`` (when it exists) and
        then :meth:`set` of each leaf, in one walk down to ``root``.
        Every leaf path is checked before anything changes.
        """
        parts = split_path(root)
        rows = [(split_path(path), value) for path, value in leaves]
        if not rows:
            if self.exists(root):
                self.delete(root)
            return
        parent = self._root
        for part in parts[:-1]:
            child = parent.children.get(part)
            if child is None:
                child = parent.children[part] = NamespaceNode(name=part)
            parent = child
        name = parts[-1]
        top = parent.children[name] = NamespaceNode(name=name)
        for relative, value in rows:
            node = top
            for part in relative:
                child = node.children.get(part)
                if child is None:
                    child = node.children[part] = NamespaceNode(name=part)
                node = child
            node.value = value

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

    def exists(self, path: str) -> bool:
        return self._namespace.exists(join_path(self._prefix, path))

    def lookup(self, name: str) -> float:
        """Environment-protocol lookup for RSL expression evaluation."""
        value = self.get(name)
        if value is None:
            raise KeyError(name)
        return float(value)
