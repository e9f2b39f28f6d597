"""Value constraints attached to RSL resource tags.

The paper's Figure 3 qualifies the data-shipping client with ``memory >= 32``:
32 MB is the minimum, but Harmony may profitably allocate more.  This module
models such constraints as intervals over the reals.

A constraint is written in RSL as either:

* a bare number — an exact requirement (``{memory 20}``),
* a comparison prefix — ``>=``, ``>``, ``<=``, ``<`` followed by a number
  (``{memory >=32}`` or ``{memory >= 32}``),
* an explicit range — ``{memory 32..128}``,
* an arbitrary expression — evaluated lazily against the allocation
  environment (handled by the builder, not here).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from repro.errors import RslSemanticError

__all__ = ["Constraint", "parse_constraint"]


@dataclass(frozen=True)
class Constraint:
    """A closed/open interval of acceptable values for a resource quantity.

    ``minimum`` is the smallest acceptable allocation and ``maximum`` the
    largest (``inf`` when unbounded).  ``elastic`` is True when the
    application can profitably use more than the minimum — exactly the
    ``>=`` case the paper highlights: the controller may then treat the
    quantity as a tunable dimension.
    """

    minimum: float
    maximum: float = math.inf
    elastic: bool = False

    def __post_init__(self) -> None:
        if self.minimum > self.maximum:
            raise RslSemanticError(
                f"constraint minimum {self.minimum} exceeds maximum "
                f"{self.maximum}")

    @classmethod
    def exact(cls, value: float) -> "Constraint":
        """A requirement for precisely ``value``."""
        return cls(minimum=value, maximum=value, elastic=False)

    @classmethod
    def at_least(cls, value: float) -> "Constraint":
        """A ``>=`` requirement — elastic upward."""
        return cls(minimum=value, maximum=math.inf, elastic=True)

    @classmethod
    def between(cls, low: float, high: float) -> "Constraint":
        """A bounded elastic range."""
        return cls(minimum=low, maximum=high, elastic=True)

    def is_exact(self) -> bool:
        return self.minimum == self.maximum

    def describe(self) -> str:
        """Human/RSL-facing rendering."""
        if self.is_exact():
            return _fmt(self.minimum)
        if math.isinf(self.maximum):
            return f">={_fmt(self.minimum)}"
        return f"{_fmt(self.minimum)}..{_fmt(self.maximum)}"


def _fmt(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


_RANGE_RE = re.compile(r"^(?P<low>-?\d+(?:\.\d+)?)\.\.(?P<high>-?\d+(?:\.\d+)?)$")
_CMP_RE = re.compile(r"^(?P<op>>=|<=|>|<)\s*(?P<value>-?\d+(?:\.\d+)?)$")
_NUMBER_RE = re.compile(r"^-?\d+(?:\.\d+)?$")


def parse_constraint(text: str) -> Constraint | None:
    """Parse constraint syntax, returning ``None`` if ``text`` is not one.

    A ``None`` return tells the builder to treat the text as a parametric
    expression instead.

    >>> parse_constraint(">= 32")
    Constraint(minimum=32.0, maximum=inf, elastic=True)
    >>> parse_constraint("20").is_exact()
    True
    >>> parse_constraint("a + b") is None
    True
    """
    text = text.strip()
    match = _NUMBER_RE.match(text)
    if match:
        return Constraint.exact(float(text))
    match = _CMP_RE.match(text)
    if match:
        value = float(match.group("value"))
        op = match.group("op")
        if op == ">=":
            return Constraint.at_least(value)
        if op == ">":
            # Treat as >= the next representable step for integral resources.
            return Constraint.at_least(math.nextafter(value, math.inf))
        if op == "<=":
            return Constraint(minimum=0.0, maximum=value, elastic=True)
        return Constraint(minimum=0.0,
                          maximum=math.nextafter(value, -math.inf),
                          elastic=True)
    match = _RANGE_RE.match(text)
    if match:
        return Constraint.between(float(match.group("low")),
                                  float(match.group("high")))
    return None
