"""Expression language tests, including property-based checks."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ExpressionError
from repro.rsl.expressions import MapEnvironment, parse_expression


def ev(source, **env):
    return parse_expression(source).evaluate(
        {k.replace("__", "."): v for k, v in env.items()})


class TestArithmetic:
    def test_integer_literal(self):
        assert ev("42") == 42.0

    def test_float_literal(self):
        assert ev("3.5") == 3.5

    def test_scientific_notation(self):
        assert ev("1e3") == 1000.0
        assert ev("2.5e-2") == 0.025

    def test_addition_and_subtraction(self):
        assert ev("1 + 2 - 4") == -1.0

    def test_precedence_multiplication_over_addition(self):
        assert ev("2 + 3 * 4") == 14.0

    def test_parentheses_override_precedence(self):
        assert ev("(2 + 3) * 4") == 20.0

    def test_unary_minus(self):
        assert ev("-5 + 3") == -2.0
        assert ev("2 * -3") == -6.0

    def test_unary_plus_is_noop(self):
        assert ev("+5") == 5.0

    def test_power_is_right_associative(self):
        assert ev("2 ** 3 ** 2") == 512.0

    def test_modulo(self):
        assert ev("7 % 3") == 1.0

    def test_division_by_zero_raises(self):
        with pytest.raises(ExpressionError):
            ev("1 / 0")

    def test_modulo_by_zero_raises(self):
        with pytest.raises(ExpressionError):
            ev("1 % 0")


class TestComparisonsAndLogic:
    def test_comparisons_return_zero_or_one(self):
        assert ev("3 > 2") == 1.0
        assert ev("3 < 2") == 0.0
        assert ev("3 >= 3") == 1.0
        assert ev("3 <= 2") == 0.0
        assert ev("3 == 3") == 1.0
        assert ev("3 != 3") == 0.0

    def test_logical_and_short_circuits(self):
        # The right side would divide by zero; && must not evaluate it.
        assert ev("0 && 1 / 0") == 0.0

    def test_logical_or_short_circuits(self):
        assert ev("5 || 1 / 0") == 5.0

    def test_not(self):
        assert ev("!0") == 1.0
        assert ev("!3") == 0.0


class TestTernary:
    def test_true_branch(self):
        assert ev("1 ? 10 : 20") == 10.0

    def test_false_branch(self):
        assert ev("0 ? 10 : 20") == 20.0

    def test_nested_ternary(self):
        assert ev("0 ? 1 : 1 ? 2 : 3") == 2.0

    def test_paper_figure3_expression(self):
        source = "44 + (client.memory > 24 ? 24 : client.memory) - 17"
        expr = parse_expression(source)
        assert expr.evaluate({"client.memory": 32}) == 51.0
        assert expr.evaluate({"client.memory": 20}) == 47.0
        assert expr.evaluate({"client.memory": 24}) == 51.0

    def test_lazy_branches(self):
        assert ev("1 ? 5 : 1 / 0") == 5.0


class TestVariables:
    def test_simple_name(self):
        assert ev("workerNodes * 2", workerNodes=4) == 8.0

    def test_dotted_name(self):
        expr = parse_expression("client.memory + 1")
        assert expr.evaluate({"client.memory": 9}) == 10.0

    def test_unbound_variable_raises(self):
        with pytest.raises(ExpressionError, match="unbound"):
            ev("missing + 1")

    def test_free_variables(self):
        expr = parse_expression("a.b + c * min(d, 2)")
        assert expr.free_variables() == {"a.b", "c", "d"}

    def test_environment_bind_is_persistent_copy(self):
        base = MapEnvironment({"x": 1})
        child = base.bind("y", 2)
        assert child.lookup("x") == 1
        assert child.lookup("y") == 2
        with pytest.raises(KeyError):
            base.lookup("y")


class TestFunctions:
    def test_min_max(self):
        assert ev("min(3, 5)") == 3.0
        assert ev("max(3, 5, 1)") == 5.0

    def test_math_functions(self):
        assert ev("sqrt(16)") == 4.0
        assert ev("ceil(2.1)") == 3.0
        assert ev("floor(2.9)") == 2.0
        assert ev("abs(-3)") == 3.0
        assert ev("log2(8)") == 3.0
        assert math.isclose(ev("log(2.718281828459045)"), 1.0)
        assert ev("pow(2, 10)") == 1024.0

    def test_function_of_expression(self):
        assert ev("max(x, 2 * x)", x=3) == 6.0

    def test_bad_function_argument_raises(self):
        with pytest.raises(ExpressionError):
            ev("sqrt(-1)")

    def test_function_name_without_call_is_variable(self):
        # "min" not followed by "(" resolves as an identifier.
        assert ev("min + 1", min=4) == 5.0


class TestErrors:
    @pytest.mark.parametrize("source", [
        "", "   ", "1 +", "* 2", "(1", "1)", "min(1,", "? 1 : 2",
        "1 ? 2", "a b", "1 2", "&& 1", "@", "1 = 2", "= 2",
    ])
    def test_malformed_expressions_raise(self, source):
        with pytest.raises(ExpressionError):
            parse_expression(source)

    def test_error_message_names_the_source(self):
        with pytest.raises(ExpressionError, match="1 \\+"):
            parse_expression("1 +")


class TestUnparse:
    def test_unparse_reparses_to_same_value(self):
        source = "44 + (m > 24 ? 24 : m) - 17"
        expr = parse_expression(source)
        again = parse_expression(expr.unparse())
        for m in (0, 10, 24, 25, 100):
            assert expr.evaluate({"m": m}) == again.evaluate({"m": m})

    def test_equality_is_by_source(self):
        assert parse_expression("1 + 2") == parse_expression("1 + 2")
        assert parse_expression("1 + 2") != parse_expression("2 + 1")
        assert hash(parse_expression("x")) == hash(parse_expression("x"))


# -- property-based ------------------------------------------------------------

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


@given(finite, finite)
def test_addition_matches_python(a, b):
    expr = parse_expression("a + b")
    assert expr.evaluate({"a": a, "b": b}) == pytest.approx(a + b)


@given(finite, finite, finite)
def test_ternary_matches_python(c, a, b):
    expr = parse_expression("c ? a : b")
    expected = a if c else b
    assert expr.evaluate({"a": a, "b": b, "c": c}) == expected


@given(st.integers(min_value=0, max_value=200))
def test_figure3_expression_clamps(memory):
    expr = parse_expression(
        "44 + (client.memory > 24 ? 24 : client.memory) - 17")
    value = expr.evaluate({"client.memory": memory})
    assert 27 <= value <= 51
    assert value == 27 + min(memory, 24)


@given(finite)
def test_unparse_evaluation_identity(x):
    expr = parse_expression("2 * x + min(x, 3) - (x > 0 ? 1 : 0)")
    again = parse_expression(expr.unparse())
    assert expr.evaluate({"x": x}) == pytest.approx(
        again.evaluate({"x": x}))
