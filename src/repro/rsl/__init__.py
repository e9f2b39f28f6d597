"""The Harmony Resource Specification Language (RSL).

A from-scratch implementation of the TCL-hosted specification language from
Section 3 of *Exposing Application Alternatives* (ICDCS 1999): a tokenizer
and list parser for the TCL brace syntax, a parametric expression evaluator,
interval constraints (``>= 32``), the Table 1 tag registry, and a builder
that turns RSL text into :class:`Bundle`/:class:`NodeAdvertisement` model
objects.

Typical use::

    from repro.rsl import build_bundle

    bundle = build_bundle('''
        harmonyBundle DBclient:1 where {
            {QS {node server {hostname db.example} {seconds 42} {memory 20}}
                {node client {os linux} {seconds 1} {memory 2}}
                {link client server 2}}
            {DS {node server {hostname db.example} {seconds 1} {memory 20}}
                {node client {os linux} {memory >=32} {seconds 9}}
                {link client server
                    {44 + (client.memory > 24 ? 24 : client.memory) - 17}}}}
    ''')
"""

from repro.rsl.builder import (
    build_bundle,
    build_bundle_command,
    build_node_command,
    build_quantity,
    build_script,
)
from repro.rsl.constraints import Constraint, parse_constraint
from repro.rsl.lint import LINT_CODES, Diagnostic, lint_bundle
from repro.rsl.expressions import (
    Environment,
    Expression,
    MapEnvironment,
    parse_expression,
)
from repro.rsl.model import (
    Bundle,
    CommunicationRequirement,
    FrictionSpec,
    GranularitySpec,
    LinkRequirement,
    NodeAdvertisement,
    NodeRequirement,
    PerformancePoint,
    PerformanceSpec,
    Quantity,
    TuningOption,
    VariableSpec,
)
from repro.rsl.parser import RslList, RslWord, parse_script
from repro.rsl.tags import TAG_REGISTRY, TagContext, TagInfo
from repro.rsl.unparse import (
    pretty_bundle,
    unparse_advertisement,
    unparse_bundle,
    unparse_option,
)

__all__ = [
    "Bundle", "TuningOption", "NodeRequirement", "LinkRequirement",
    "CommunicationRequirement", "PerformanceSpec", "PerformancePoint",
    "GranularitySpec", "VariableSpec", "FrictionSpec", "NodeAdvertisement",
    "Quantity", "Constraint", "Expression", "Environment", "MapEnvironment",
    "parse_expression", "parse_constraint",
    "build_script", "build_bundle", "build_bundle_command",
    "build_node_command", "build_quantity",
    "parse_script", "RslList", "RslWord",
    "TAG_REGISTRY", "TagInfo", "TagContext",
    "unparse_bundle", "unparse_option", "unparse_advertisement",
    "pretty_bundle",
    "lint_bundle", "Diagnostic", "LINT_CODES",
]
