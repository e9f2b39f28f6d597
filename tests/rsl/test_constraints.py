"""Constraint parsing and interval semantics."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import RslSemanticError
from repro.rsl.constraints import Constraint, parse_constraint


def admits(constraint, value):
    """Whether ``value`` lies in the constraint's closed interval."""
    return constraint.minimum <= value <= constraint.maximum


class TestParsing:
    def test_bare_number_is_exact(self):
        constraint = parse_constraint("20")
        assert constraint.is_exact()
        assert constraint.minimum == 20.0
        assert not constraint.elastic

    def test_float_number(self):
        assert parse_constraint("2.5").minimum == 2.5

    def test_negative_number(self):
        assert parse_constraint("-3").minimum == -3.0

    def test_at_least(self):
        constraint = parse_constraint(">=32")
        assert constraint.minimum == 32.0
        assert math.isinf(constraint.maximum)
        assert constraint.elastic

    def test_at_least_with_space(self):
        assert parse_constraint(">= 32") == parse_constraint(">=32")

    def test_strictly_greater(self):
        constraint = parse_constraint("> 32")
        assert constraint.minimum > 32.0
        assert not admits(constraint, 32.0)

    def test_at_most(self):
        constraint = parse_constraint("<= 8")
        assert admits(constraint, 8.0)
        assert not admits(constraint, 8.1)
        assert admits(constraint, 0.0)

    def test_strictly_less(self):
        constraint = parse_constraint("< 8")
        assert not admits(constraint, 8.0)
        assert admits(constraint, 7.99)

    def test_range(self):
        constraint = parse_constraint("32..128")
        assert constraint.minimum == 32.0
        assert constraint.maximum == 128.0
        assert constraint.elastic

    def test_non_constraint_returns_none(self):
        assert parse_constraint("a + b") is None
        assert parse_constraint("workerNodes") is None
        assert parse_constraint("2400 / workerNodes") is None

    def test_whitespace_stripped(self):
        assert parse_constraint("  20  ").is_exact()


class TestSemantics:
    def test_between_bounds_are_inclusive(self):
        constraint = Constraint.between(10, 20)
        assert admits(constraint, 10)
        assert admits(constraint, 20)
        assert not admits(constraint, 9.99)
        assert not admits(constraint, 20.01)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(RslSemanticError):
            Constraint(minimum=10, maximum=5)

    def test_describe_roundtrips_through_parse(self):
        for text in ("20", ">=32", "10..50", "2.5"):
            constraint = parse_constraint(text)
            again = parse_constraint(constraint.describe())
            assert again == constraint


@given(st.floats(min_value=-1e9, max_value=1e9,
                 allow_nan=False, allow_infinity=False))
def test_exact_constraints_satisfy_only_their_value(value):
    constraint = Constraint.exact(value)
    assert constraint.minimum == constraint.maximum == value
    assert constraint.is_exact()
