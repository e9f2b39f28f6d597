"""Parametric expression language used inside RSL tags.

The paper parameterizes resource requirements with TCL expressions, e.g. the
data-shipping link bandwidth in Figure 3::

    44 + (client.memory > 24 ? 24 : client.memory) - 17

and Bag's per-worker CPU time ``2400 / workerNodes``.  This module provides a
self-contained recursive-descent parser and evaluator for that expression
dialect:

* numeric literals (int and float),
* dotted identifiers resolved against an environment (``client.memory``),
* ``+ - * / %`` and unary minus, ``**`` for exponentiation,
* comparisons ``< <= > >= == !=``,
* boolean ``&& || !``,
* C/TCL ternary ``cond ? a : b``,
* parentheses and a small function library (``min``, ``max``, ``abs``,
  ``ceil``, ``floor``, ``round``, ``sqrt``, ``log``, ``log2``, ``pow``).

Expressions are parsed once into an AST (:class:`Expression`) and can then be
evaluated repeatedly against different environments; the controller does this
while exploring candidate allocations.  :meth:`Expression.free_variables`
exposes the dotted names an expression depends on, which the controller uses
to discover parameterizations such as "bandwidth depends on client.memory".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Protocol

from repro.errors import ExpressionError

__all__ = ["Expression", "parse_expression", "Environment", "MapEnvironment"]

Number = float


class Environment(Protocol):
    """Resolves dotted identifiers to numeric values during evaluation."""

    def lookup(self, name: str) -> Number:
        """Return the value bound to ``name`` or raise :class:`KeyError`."""
        ...  # pragma: no cover - protocol


class MapEnvironment:
    """Environment backed by a plain mapping, for tests and simple callers."""

    def __init__(self, values: Mapping[str, Number] | None = None):
        self._values = dict(values or {})

    def lookup(self, name: str) -> Number:
        if name not in self._values:
            raise KeyError(name)
        return float(self._values[name])

    def bind(self, name: str, value: Number) -> "MapEnvironment":
        """Return a copy of this environment with ``name`` (re)bound."""
        child = MapEnvironment(self._values)
        child._values[name] = value
        return child


_FUNCTIONS: dict[str, Callable[..., Number]] = {
    "min": min,
    "max": max,
    "abs": abs,
    "ceil": math.ceil,
    "floor": math.floor,
    "round": round,
    "sqrt": math.sqrt,
    "log": math.log,
    "log2": math.log2,
    "pow": math.pow,
}


class _Node:
    """AST node base. Subclasses implement eval/free_variables/unparse."""

    def eval(self, env: Environment) -> Number:
        raise NotImplementedError

    def free_variables(self) -> frozenset[str]:
        raise NotImplementedError

    def unparse(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class _Literal(_Node):
    value: Number

    def eval(self, env: Environment) -> Number:
        return self.value

    def free_variables(self) -> frozenset[str]:
        return frozenset()

    def unparse(self) -> str:
        if self.value == int(self.value):
            return str(int(self.value))
        return repr(self.value)


@dataclass(frozen=True)
class _Name(_Node):
    name: str

    def eval(self, env: Environment) -> Number:
        try:
            return float(env.lookup(self.name))
        except KeyError:
            raise ExpressionError(f"unbound variable {self.name!r}") from None

    def free_variables(self) -> frozenset[str]:
        return frozenset({self.name})

    def unparse(self) -> str:
        return self.name


@dataclass(frozen=True)
class _Unary(_Node):
    op: str
    operand: _Node

    def eval(self, env: Environment) -> Number:
        value = self.operand.eval(env)
        if self.op == "-":
            return -value
        if self.op == "!":
            return 0.0 if value else 1.0
        raise ExpressionError(f"unknown unary operator {self.op!r}")

    def free_variables(self) -> frozenset[str]:
        return self.operand.free_variables()

    def unparse(self) -> str:
        return f"{self.op}({self.operand.unparse()})"


_BINARY_OPS: dict[str, Callable[[Number, Number], Number]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: math.fmod(a, b),
    "**": lambda a, b: a ** b,
    "<": lambda a, b: 1.0 if a < b else 0.0,
    "<=": lambda a, b: 1.0 if a <= b else 0.0,
    ">": lambda a, b: 1.0 if a > b else 0.0,
    ">=": lambda a, b: 1.0 if a >= b else 0.0,
    "==": lambda a, b: 1.0 if a == b else 0.0,
    "!=": lambda a, b: 1.0 if a != b else 0.0,
}


@dataclass(frozen=True)
class _Binary(_Node):
    op: str
    left: _Node
    right: _Node

    def eval(self, env: Environment) -> Number:
        left = self.left.eval(env)
        if self.op == "&&":
            return self.right.eval(env) if left else 0.0
        if self.op == "||":
            return left if left else self.right.eval(env)
        right = self.right.eval(env)
        if self.op in ("/", "%") and right == 0:
            raise ExpressionError(
                f"division by zero in {self.unparse()!r}")
        return _BINARY_OPS[self.op](left, right)

    def free_variables(self) -> frozenset[str]:
        return self.left.free_variables() | self.right.free_variables()

    def unparse(self) -> str:
        return f"({self.left.unparse()} {self.op} {self.right.unparse()})"


@dataclass(frozen=True)
class _Ternary(_Node):
    condition: _Node
    if_true: _Node
    if_false: _Node

    def eval(self, env: Environment) -> Number:
        branch = self.if_true if self.condition.eval(env) else self.if_false
        return branch.eval(env)

    def free_variables(self) -> frozenset[str]:
        return (self.condition.free_variables()
                | self.if_true.free_variables()
                | self.if_false.free_variables())

    def unparse(self) -> str:
        return (f"({self.condition.unparse()} ? {self.if_true.unparse()}"
                f" : {self.if_false.unparse()})")


@dataclass(frozen=True)
class _Call(_Node):
    func: str
    args: tuple[_Node, ...]

    def eval(self, env: Environment) -> Number:
        values = [arg.eval(env) for arg in self.args]
        try:
            return float(_FUNCTIONS[self.func](*values))
        except (ValueError, TypeError) as exc:
            raise ExpressionError(
                f"error calling {self.func}: {exc}") from exc

    def free_variables(self) -> frozenset[str]:
        names: frozenset[str] = frozenset()
        for arg in self.args:
            names |= arg.free_variables()
        return names

    def unparse(self) -> str:
        return f"{self.func}({', '.join(a.unparse() for a in self.args)})"


class Expression:
    """A parsed parametric expression.

    Instances are immutable and hashable on their source text; parse once,
    evaluate many times.
    """

    def __init__(self, source: str, root: _Node):
        self._source = source
        self._root = root

    @property
    def source(self) -> str:
        """The original expression text."""
        return self._source

    def evaluate(self, env: Environment | Mapping[str, Number] | None = None,
                 ) -> Number:
        """Evaluate against ``env`` (an Environment, mapping, or nothing)."""
        if env is None:
            env = MapEnvironment()
        elif isinstance(env, Mapping):
            env = MapEnvironment(env)
        return self._root.eval(env)

    def free_variables(self) -> frozenset[str]:
        """Dotted identifiers this expression reads from the environment."""
        return self._root.free_variables()

    def unparse(self) -> str:
        """Canonical (fully parenthesized) rendering of the expression."""
        return self._root.unparse()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Expression) and other._source == self._source

    def __hash__(self) -> int:
        return hash(self._source)

    def __repr__(self) -> str:
        return f"Expression({self._source!r})"


# --------------------------------------------------------------------------
# Lexing and recursive-descent parsing
# --------------------------------------------------------------------------

_MULTICHAR_OPS = ("**", "<=", ">=", "==", "!=", "&&", "||")
_SINGLE_OPS = "+-*/%<>!?:(),"


def _lex(source: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    while i < len(source):
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        two = source[i:i + 2]
        if two in _MULTICHAR_OPS:
            tokens.append(two)
            i += 2
            continue
        if ch in _SINGLE_OPS or ch in "=&|":
            if ch in "=&|":
                raise ExpressionError(
                    f"unexpected character {ch!r} in expression {source!r}")
            tokens.append(ch)
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < len(source)
                            and source[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < len(source) and (source[j].isdigit()
                                       or (source[j] == "." and not seen_dot)):
                if source[j] == ".":
                    # A dot followed by a letter means an identifier like
                    # "1.memory" is malformed; digits only after the dot.
                    if j + 1 < len(source) and not source[j + 1].isdigit():
                        break
                    seen_dot = True
                j += 1
            # scientific notation
            if j < len(source) and source[j] in "eE":
                k = j + 1
                if k < len(source) and source[k] in "+-":
                    k += 1
                if k < len(source) and source[k].isdigit():
                    while k < len(source) and source[k].isdigit():
                        k += 1
                    j = k
            tokens.append(source[i:j])
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(source) and (source[j].isalnum()
                                       or source[j] in "._"):
                j += 1
            tokens.append(source[i:j])
            i = j
            continue
        raise ExpressionError(
            f"unexpected character {ch!r} in expression {source!r}")
    return tokens


class _Parser:
    """Precedence-climbing parser: ternary > or > and > cmp > add > mul > unary."""

    def __init__(self, source: str):
        self.source = source
        self.tokens = _lex(source)
        self.pos = 0

    def peek(self) -> str | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def take(self) -> str:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, token: str) -> None:
        if self.peek() != token:
            raise ExpressionError(
                f"expected {token!r} in expression {self.source!r}, "
                f"found {self.peek()!r}")
        self.take()

    def parse(self) -> _Node:
        node = self.ternary()
        if self.peek() is not None:
            raise ExpressionError(
                f"trailing input {self.peek()!r} in expression "
                f"{self.source!r}")
        return node

    def ternary(self) -> _Node:
        condition = self.logical_or()
        if self.peek() == "?":
            self.take()
            if_true = self.ternary()
            self.expect(":")
            if_false = self.ternary()
            return _Ternary(condition, if_true, if_false)
        return condition

    def logical_or(self) -> _Node:
        node = self.logical_and()
        while self.peek() == "||":
            self.take()
            node = _Binary("||", node, self.logical_and())
        return node

    def logical_and(self) -> _Node:
        node = self.comparison()
        while self.peek() == "&&":
            self.take()
            node = _Binary("&&", node, self.comparison())
        return node

    def comparison(self) -> _Node:
        node = self.additive()
        while self.peek() in ("<", "<=", ">", ">=", "==", "!="):
            op = self.take()
            node = _Binary(op, node, self.additive())
        return node

    def additive(self) -> _Node:
        node = self.multiplicative()
        while self.peek() in ("+", "-"):
            op = self.take()
            node = _Binary(op, node, self.multiplicative())
        return node

    def multiplicative(self) -> _Node:
        node = self.power()
        while self.peek() in ("*", "/", "%"):
            op = self.take()
            node = _Binary(op, node, self.power())
        return node

    def power(self) -> _Node:
        node = self.unary()
        if self.peek() == "**":
            self.take()
            # right associative
            return _Binary("**", node, self.power())
        return node

    def unary(self) -> _Node:
        if self.peek() in ("-", "!"):
            op = self.take()
            return _Unary(op, self.unary())
        if self.peek() == "+":
            self.take()
            return self.unary()
        return self.primary()

    def primary(self) -> _Node:
        token = self.peek()
        if token is None:
            raise ExpressionError(
                f"unexpected end of expression {self.source!r}")
        if token == "(":
            self.take()
            node = self.ternary()
            self.expect(")")
            return node
        self.take()
        if token[0].isdigit() or token[0] == ".":
            try:
                return _Literal(float(token))
            except ValueError:
                raise ExpressionError(
                    f"bad numeric literal {token!r} in {self.source!r}"
                ) from None
        if token in _FUNCTIONS and self.peek() == "(":
            self.take()
            args: list[_Node] = []
            if self.peek() != ")":
                args.append(self.ternary())
                while self.peek() == ",":
                    self.take()
                    args.append(self.ternary())
            self.expect(")")
            return _Call(token, tuple(args))
        if token[0].isalpha() or token[0] == "_":
            return _Name(token)
        raise ExpressionError(
            f"unexpected token {token!r} in expression {self.source!r}")


def parse_expression(source: str) -> Expression:
    """Parse ``source`` into an :class:`Expression`.

    >>> expr = parse_expression("44 + (m > 24 ? 24 : m) - 17")
    >>> expr.evaluate({"m": 32})
    51.0
    >>> expr.evaluate({"m": 20})
    47.0
    """
    source = source.strip()
    if not source:
        raise ExpressionError("empty expression")
    return Expression(source, _Parser(source).parse())
