"""Registry of the primary Harmony RSL tags (the paper's Table 1).

The registry is consulted by the builder (to dispatch tag handlers) and by
the validator (to reject unknown tags with a helpful message).  It is also
what the Table 1 conformance benchmark prints.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["TagContext", "TagInfo", "TAG_REGISTRY"]


class TagContext(enum.Enum):
    """Where a tag may legally appear."""

    SCRIPT = "script"      # top-level command (harmonyBundle, harmonyNode)
    OPTION = "option"      # inside a tuning option body
    NODE = "node"          # attribute of a node requirement
    ADVERT = "advert"      # attribute of a harmonyNode advertisement


@dataclass(frozen=True)
class TagInfo:
    """One row of the paper's Table 1 (plus contexts, for validation)."""

    name: str
    purpose: str
    contexts: frozenset[TagContext]


def _tag(name: str, purpose: str, *contexts: TagContext) -> TagInfo:
    return TagInfo(name=name, purpose=purpose, contexts=frozenset(contexts))


#: The primary tags, verbatim from Table 1 of the paper, plus the attribute
#: tags the paper's examples use inside node requirements (hostname, os,
#: seconds, memory, replicate) and the ``friction`` cost the prose requires.
TAG_REGISTRY: dict[str, TagInfo] = {tag.name: tag for tag in [
    _tag("harmonyBundle", "Application bundle.", TagContext.SCRIPT),
    _tag("node",
         "Characteristics of desired node (e.g., CPU speed, memory, OS, "
         "etc.)",
         TagContext.OPTION),
    _tag("link", "Specifies required bandwidth between two nodes.",
         TagContext.OPTION),
    _tag("communication",
         "Alternate form of bandwidth specification. Gives total "
         "communication requirements of application, usually parameterized "
         "by the resources allocated by Harmony (i.e., a function of the "
         "number of nodes).",
         TagContext.OPTION),
    _tag("performance",
         "Override Harmony's default prediction function for that "
         "application.",
         TagContext.OPTION),
    _tag("granularity",
         "Rate at which the application can change between options.",
         TagContext.OPTION),
    _tag("variable",
         "Allows a particular resource (usually a node specification) to be "
         "instantiated by Harmony a variable number of times.",
         TagContext.OPTION),
    _tag("harmonyNode", "Resource availability.", TagContext.SCRIPT),
    _tag("speed",
         "Speed of node relative to reference node (400 MHz Pentium II).",
         TagContext.ADVERT),
    # Attribute tags used by the paper's Figures 2 and 3 inside node
    # requirements and advertisements:
    _tag("hostname", "Required or advertised host name ('*' matches any).",
         TagContext.NODE, TagContext.ADVERT),
    _tag("os", "Required or advertised operating system.",
         TagContext.NODE, TagContext.ADVERT),
    _tag("seconds",
         "Total expected seconds of computation on the reference machine.",
         TagContext.NODE),
    _tag("memory", "Minimum memory needed (MB); '>=' makes it elastic.",
         TagContext.NODE, TagContext.ADVERT),
    _tag("replicate",
         "Match this node definition against N distinct nodes.",
         TagContext.NODE),
    # Frictional cost: required by Section 3 ('we need to express the
    # frictional cost of switching from one option to another').
    _tag("friction",
         "Cost (reference-machine seconds) of switching into this option.",
         TagContext.OPTION),
]}
