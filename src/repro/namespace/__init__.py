"""Hierarchical Harmony namespace (paper Section 3.2).

Paths follow ``application.instance.bundle.option.resource.tag``; the
controller publishes instantiated options and allocated resources here, and
applications (and RSL expressions) read them back.
"""

from repro.namespace.namespace import Namespace, NamespaceNode, NamespaceView
from repro.namespace.paths import join_path, split_path

__all__ = [
    "Namespace", "NamespaceNode", "NamespaceView",
    "split_path", "join_path",
]
