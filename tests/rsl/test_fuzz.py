"""Fuzzing: the RSL front end must fail only with RSL errors.

Whatever bytes arrive in a ``harmony_bundle_setup`` call, the pipeline
(tokenize -> parse -> build) must either succeed or raise
:class:`~repro.errors.RslError` — never an arbitrary Python exception.
The server relies on this to turn malformed bundles into protocol-level
``error`` replies instead of crashing the session.
"""

from hypothesis import example, given, settings, strategies as st

from repro.errors import RslError
from repro.rsl import build_script, parse_script
from repro.rsl.expressions import parse_expression
from repro.rsl.tokens import scan

# Text biased toward RSL-looking characters to reach deep code paths.
rsl_alphabet = st.sampled_from(list(
    "abcdefghijklmnopqrstuvwxyz0123456789"
    "{}\"\\;#\n\t ._*<>=?+-/()%&|:"))
rsl_text = st.lists(rsl_alphabet, max_size=120).map("".join)
arbitrary_text = st.text(max_size=120)


@settings(max_examples=300, deadline=None)
@given(rsl_text)
@example("harmonyBundle {")
@example('harmonyBundle A b {{o {node n {seconds "')
@example("}")
@example("{" * 50)
@example("harmonyBundle A:999999999999999999999 b {{o}}")
def test_tokenizer_and_parser_total(text):
    try:
        list(scan(text))
        parse_script(text)
    except RslError:
        pass


@settings(max_examples=300, deadline=None)
@given(rsl_text)
@example("harmonyBundle A b {{o {node n {seconds {1 +}}}}}")
@example("harmonyBundle A b {{o {variable v {}}}}")
@example("harmonyNode")
@example("harmonyBundle A b {}")
def test_builder_total(text):
    try:
        build_script(text)
    except RslError:
        pass


@settings(max_examples=200, deadline=None)
@given(arbitrary_text)
def test_front_end_total_on_arbitrary_unicode(text):
    try:
        build_script(text)
    except RslError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(list("0123456789.+-*/()%<>=?:&| abxy")),
                max_size=60).map("".join))
@example("1 ? 2")
@example("((((")
@example("min(")
@example("1e")
@example("..")
@example("a.b.c.d.e.f")
def test_expression_parser_total(text):
    try:
        parse_expression(text)
    except RslError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([
    "44 + (m > 24 ? 24 : m) - 17",
    "2400 / w",
    "0.5 * w * w",
    "min(a, b) + max(a, b)",
]), st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_expression_evaluation_total(source, value):
    """Evaluation with every variable bound to the same value either
    produces a float or raises an RSL error (e.g. division by zero)."""
    expr = parse_expression(source)
    env = {name: value for name in expr.free_variables()}
    try:
        result = expr.evaluate(env)
    except RslError:
        return
    assert isinstance(result, float)
