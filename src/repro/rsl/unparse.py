"""Serialize model objects back to RSL text.

Round-trip property: ``build_bundle(unparse_bundle(b))`` equals ``b`` for
every bundle the builder can produce.  The property-based tests in
``tests/rsl/test_roundtrip.py`` exercise exactly this.
"""

from __future__ import annotations

from repro.rsl.model import (
    Bundle,
    NodeAdvertisement,
    NodeRequirement,
    PerformanceSpec,
    Quantity,
    TuningOption,
)

__all__ = ["unparse_bundle", "unparse_option", "unparse_advertisement",
           "pretty_bundle"]


def unparse_bundle(bundle: Bundle) -> str:
    """Render a bundle as a single-line ``harmonyBundle`` command."""
    app = bundle.app_name
    if bundle.declared_instance is not None:
        app = f"{app}:{bundle.declared_instance}"
    options = " ".join(unparse_option(option) for option in bundle.options)
    return f"harmonyBundle {app} {bundle.bundle_name} {{{options}}}"


def pretty_bundle(bundle: Bundle) -> str:
    """Render a bundle in the paper's multi-line layout.

    One option per block, one tag per line, four spaces a level — the
    canonical formatting for ``harmony-repro format``.  Round-trips
    through the builder exactly like :func:`unparse_bundle`.
    """
    pad = "    "
    app = bundle.app_name
    if bundle.declared_instance is not None:
        app = f"{app}:{bundle.declared_instance}"
    lines = [f"harmonyBundle {app} {bundle.bundle_name} {{"]
    for option in bundle.options:
        option_text = unparse_option(option)
        # Split "{name {tag ...} {tag ...}}" into one tag per line.
        body = option_text[1:-1]
        name, _, rest = body.partition(" ")
        lines.append(f"{pad}{{{name}")
        for tag_text in _split_top_level(rest):
            lines.append(f"{pad * 2}{tag_text}")
        lines[-1] += "}"
    lines[-1] += "}"
    return "\n".join(lines) + "\n"


def _split_top_level(text: str) -> list[str]:
    """Split a brace-list body into its top-level ``{...}`` items."""
    items: list[str] = []
    depth = 0
    start = None
    for index, char in enumerate(text):
        if char == "{":
            if depth == 0:
                start = index
            depth += 1
        elif char == "}":
            depth -= 1
            if depth == 0 and start is not None:
                items.append(text[start:index + 1])
                start = None
    return items


def unparse_option(option: TuningOption) -> str:
    parts: list[str] = [option.name]
    for variable in option.variables:
        values = " ".join(_num(v) for v in variable.values)
        text = f"{{variable {variable.name} {{{values}}}"
        if variable.default is not None:
            text += f" {_num(variable.default)}"
        parts.append(text + "}")
    for node in option.nodes:
        parts.append(_unparse_node(node))
    for link in option.links:
        parts.append(
            f"{{link {link.endpoint_a} {link.endpoint_b} "
            f"{_quantity(link.megabytes)}}}")
    if option.communication is not None:
        parts.append(
            f"{{communication {_quantity(option.communication.megabytes)}}}")
    if option.performance is not None:
        parts.append(_unparse_performance(option.performance))
    if option.granularity is not None:
        parts.append(
            f"{{granularity {_num(option.granularity.min_interval_seconds)}}}")
    if option.friction is not None:
        parts.append(f"{{friction {_quantity(option.friction.seconds)}}}")
    return "{" + " ".join(parts) + "}"


def unparse_advertisement(advert: NodeAdvertisement) -> str:
    parts = [f"harmonyNode {advert.hostname}",
             f"{{speed {_num(advert.speed)}}}"]
    if advert.memory != float("inf"):
        parts.append(f"{{memory {_num(advert.memory)}}}")
    if advert.os is not None:
        parts.append(f"{{os {advert.os}}}")
    for key in sorted(advert.attributes):
        parts.append(f"{{{key} {advert.attributes[key]}}}")
    return " ".join(parts)


def _unparse_node(node: NodeRequirement) -> str:
    parts = [f"node {node.name}"]
    if node.hostname != "*":
        parts.append(f"{{hostname {node.hostname}}}")
    if node.os is not None:
        parts.append(f"{{os {node.os}}}")
    if node.seconds is not None:
        parts.append(f"{{seconds {_quantity(node.seconds)}}}")
    if node.memory is not None:
        parts.append(f"{{memory {_quantity(node.memory)}}}")
    if not (node.replicate.constraint is not None
            and node.replicate.constraint.is_exact()
            and node.replicate.constraint.minimum == 1):
        parts.append(f"{{replicate {_quantity(node.replicate)}}}")
    for key in sorted(node.attributes):
        parts.append(f"{{{key} {node.attributes[key]}}}")
    return "{" + " ".join(parts) + "}"


def _unparse_performance(spec: PerformanceSpec) -> str:
    parts = ["performance"]
    if spec.parameter is not None:
        parts.append(spec.parameter)
    if spec.expression is not None and not spec.points:
        parts.append("{" + spec.expression.source + "}")
    for point in spec.points:
        parts.append(f"{{{_num(point.x)} {_num(point.seconds)}}}")
    return "{" + " ".join(parts) + "}"


def _quantity(quantity: Quantity) -> str:
    return quantity.describe()


def _num(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)
