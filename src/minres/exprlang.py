"""Arithmetic expressions in one variable u with second-order evaluation.

Grammar (no implicit multiplication; the binary operators bind by the
levels of _BIN_LEVELS, + - loosest, then * /, then ^, which is
right-associative and binds tighter than unary minus, so -u^2 means
-(u^2), and whose exponent may be signed):

    expr   := '-' expr | atom | expr ('+' | '-' | '*' | '/' | '^') expr
    atom   := number | 'u' | 'pi' | 'e' | fn '(' expr ')' | '(' expr ')'
    fn     := 'ln' | 'exp' | 'sqrt' | 'abs'

eval2 returns the value together with the first and second derivative
with respect to u, propagated through a second-order dual number.  It
runs a compiled form: compile2 turns the tree, once, into closures that
each apply one node's rule, and a caller that evaluates one law many
times (a PressureModel) keeps that form and passes it to eval2.
eval_prefix runs the same closures once over a whole grid of u, bit for
bit as eval2 would at each point.  Each operator has one rule, its
arithmetic and its domain predicates, written for float and array
values alike; a policy decides what a predicate that holds does.  On a
scalar it raises the DomainError or returns the special value; on a
grid it defers the point to eval2.  Parsing is total: any input yields
an AST or a positioned error, and nesting deeper than MAX_DEPTH is such
an error.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ExprSyntaxError, InvalidParameter, UnknownIdentifier

_FUNCTIONS = ("ln", "exp", "sqrt", "abs")
_CONSTANTS = {"pi": math.pi, "e": math.e}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Const:
    name: str  # "pi" | "e"


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


Expr = Num | Const | Var | Neg | Bin | Call


# binding levels: 1 sum, 2 term, 3 unary or power, 4 atom; per binary
# operator, its own level and the levels its left and right operands
# need.  A unary minus binds at _NEG_LEVEL, as does its operand.
_BIN_LEVELS = {"+": (1, 1, 2), "-": (1, 1, 2), "*": (2, 2, 3),
               "/": (2, 2, 3), "^": (3, 4, 3)}
_NEG_LEVEL = 3


def format_expr(e: Expr) -> str:
    """Source text with only the parentheses that precedence needs, so
    that parse(format_expr(e)) == e for every tree that parse returns."""
    return _format(e, 1)


def _format(e: Expr, need: int) -> str:
    """e's text, parenthesized if it binds looser than level need."""
    if isinstance(e, Num):
        return "1e999" if e.value == math.inf else repr(e.value)
    if isinstance(e, Const):
        return e.name
    if isinstance(e, Var):
        return "u"
    if isinstance(e, Call):
        return f"{e.fn}({_format(e.arg, 1)})"
    if isinstance(e, Neg):
        level, text = _NEG_LEVEL, "-" + _format(e.arg, _NEG_LEVEL)
    elif isinstance(e, Bin):
        level, left, right = _BIN_LEVELS[e.op]
        text = f"{_format(e.left, left)}{e.op}{_format(e.right, right)}"
    else:
        raise InvalidParameter(f"not an expression node: {e!r}")
    return text if level >= need else f"({text})"


_TOKEN_RE = re.compile(r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[+\-*/^()])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}",
                                  _byte_offset(text, pos),
                                  ("number", "identifier", "operator"))
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group()), pos))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group(), pos))
        elif m.lastgroup == "op":
            tokens.append((m.group(), m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


# The parser spends up to 2 frames per level of nesting (parse_expr and
# parse_atom for each parenthesis); compile2, evaluation on a scalar or
# a grid and format_expr spend 1 per tree level, and the nodes' repr, ==
# and hash up to 3.  160 levels is at most 480 frames, which leaves half
# of Python's default recursion limit of 1000 to the caller.
MAX_DEPTH = 160


class _Parser:
    """Precedence climbing over _BIN_LEVELS.  parse_expr and parse_atom
    return (node, height), height being the longest chain of operators
    below the node, and take depth, the levels of nesting around it."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected):
        kind, _, pos = self.peek()
        what = "end of input" if kind == "end" else f"{self.text[pos]!r}"
        raise ExprSyntaxError(f"unexpected {what}",
                              _byte_offset(self.text, pos), expected)

    def expect(self, kind):
        if self.peek()[0] != kind:
            self.fail((kind,))
        return self.take()

    def check_depth(self, levels, pos):
        if levels > MAX_DEPTH:
            raise ExprSyntaxError(f"nested deeper than {MAX_DEPTH} levels",
                                  _byte_offset(self.text, pos))

    def parse_expr(self, need=1, depth=0):
        """The longest expression here whose binary operators bind at
        level need or tighter.  A parenthesis, a call, a unary minus or
        an exponent nests one level deeper; an operand of + - * / does
        not."""
        kind, _, pos = self.peek()
        self.check_depth(depth, pos)
        if kind == "-":
            self.take()
            arg, height = self.parse_expr(_NEG_LEVEL, depth + 1)
            self.check_depth(height + 1, pos)
            node = Neg(arg), height + 1
        else:
            node = self.parse_atom(depth)
        while (op := self.peek()[0]) in _BIN_LEVELS:
            level, _, right_need = _BIN_LEVELS[op]
            if level < need:
                break
            pos = self.take()[2]
            right = self.parse_expr(right_need, depth + (op == "^"))
            height = max(node[1], right[1]) + 1
            self.check_depth(height, pos)
            node = Bin(op, node[0], right[0]), height
        return node

    def parse_atom(self, depth):
        kind, value, pos = self.peek()
        if kind == "num":
            self.take()
            return Num(value), 0
        if kind == "ident":
            self.take()
            if value == "u":
                return Var(), 0
            if value in _CONSTANTS:
                return Const(value), 0
            if value in _FUNCTIONS:
                self.expect("(")
                arg, height = self.parse_expr(1, depth + 1)
                self.expect(")")
                self.check_depth(height + 1, pos)
                return Call(value, arg), height + 1
            raise UnknownIdentifier(value, _byte_offset(self.text, pos))
        if kind == "(":
            self.take()
            node = self.parse_expr(1, depth + 1)
            self.expect(")")
            return node
        self.fail(("number", "identifier", "(", "-"))


def parse(text: str) -> Expr:
    """Parse expression text; raises ExprSyntaxError / UnknownIdentifier.

    Nesting and tree height are bounded by MAX_DEPTH, so that neither
    parsing nor any later walk of the tree exhausts the recursion limit.
    """
    if not isinstance(text, str):
        raise InvalidParameter("expression source must be a string")
    p = _Parser(text)
    node, _ = p.parse_expr()
    if p.peek()[0] != "end":
        p.fail(("end of input",))
    return node


class Dual2(NamedTuple):
    """Value with first and second derivative; immutable and shareable.

    The fields may also be equal-length numpy arrays, one entry per
    point: every operator below then works elementwise.  These
    operators are the one home of the sum, product and quotient rules.
    """

    value: float
    d1: float
    d2: float

    def __add__(self, other: "Dual2") -> "Dual2":
        return Dual2(self.value + other.value, self.d1 + other.d1,
                     self.d2 + other.d2)

    def __sub__(self, other: "Dual2") -> "Dual2":
        return Dual2(self.value - other.value, self.d1 - other.d1,
                     self.d2 - other.d2)

    def __neg__(self) -> "Dual2":
        return Dual2(-self.value, -self.d1, -self.d2)

    def __mul__(self, other: "Dual2") -> "Dual2":
        return Dual2(self.value * other.value,
                     self.d1 * other.value + self.value * other.d1,
                     self.d2 * other.value + 2.0 * self.d1 * other.d1
                     + self.value * other.d2)

    def __truediv__(self, other: "Dual2") -> "Dual2":
        # quotient rule solved for q', q'' from a = q b
        q = self.value / other.value
        q1 = (self.d1 - q * other.d1) / other.value
        q2 = (self.d2 - 2.0 * q1 * other.d1 - q * other.d2) / other.value
        return Dual2(q, q1, q2)


def _chain(a: Dual2, f: float, df: float, d2f: float) -> Dual2:
    return Dual2(f, df * a.d1, d2f * a.d1 * a.d1 + df * a.d2)


def _domain_error(u, e: Expr, reason: str) -> DomainError:
    """The error for node e at u; e is formatted only when one is raised."""
    return DomainError(u, format_expr(e), reason)


class _Fail(Exception):
    """A rule's scalar branch rejects its operands, for the reason in
    args[0]; the node raises it as a DomainError with its text and u."""


# what a rule raises on a scalar: a _Fail, or the ZeroDivisionError of
# a derivative denominator such as v*v underflowing to 0, or an
# OverflowError, both meaning that a value or derivative overflows
_RAISES = (_Fail, OverflowError, ZeroDivisionError)


def _node_error(u, e: Expr, err: Exception) -> DomainError:
    reason = err.args[0] if isinstance(err, _Fail) else "overflow"
    return _domain_error(u, e, reason)


# The rules: each operator's arithmetic on Dual2 values of floats or of
# arrays, and its domain predicates.  A predicate goes through the
# policy p.  On a scalar, p.defer(cond) returns cond, and a cond that
# holds takes the scalar branch below it, which raises or returns a
# special value; on a grid it marks the points where cond holds for
# eval2 and returns False.  p.split(cond) chooses between two branches
# that both run on a grid, where it holds only if cond holds everywhere.
#
# v*v and v*r, which underflow to 0 for tiny v, divide only the factor
# of a second derivative.  The inf or nan that a grid gets there enters
# every later d2 as a term of a sum of products, where it stays inf or
# nan (0 * inf is nan), and the final finite check hands the point to
# eval2.

def _divide(a: Dual2, b: Dual2, p) -> Dual2:
    if p.defer(b.value == 0.0):
        raise _Fail("division by zero")
    return a / b


def _power(a: Dual2, b: Dual2, p) -> Dual2:
    if p.split((b.d1 == 0.0) & (b.d2 == 0.0)):
        return _power_const(a, b.value, p)
    if p.defer(a.value <= 0.0):
        raise _Fail("variable exponent needs positive base")
    return _exp(b * _ln(a, p), p)


def _power_const(a: Dual2, c, p) -> Dual2:
    v = a.value
    if p.defer((v <= 0.0) | (v != v)):  # NaN takes the negative-base branch
        return _power_edge(a, c)
    f = p.pow(v, c)
    return _chain(a, f, c * f / v, c * (c - 1.0) * f / (v * v))


def _power_edge(a: Dual2, c: float) -> Dual2:
    """a^c at a zero, negative or NaN float base."""
    v = a.value
    if v == 0.0:
        if math.isnan(c):
            # NaN fails every test below and would read as c >= 2
            raise _Fail("zero base with NaN exponent")
        if c == 0.0:
            raise _Fail("0^0")
        if c < 0.0:
            raise _Fail("zero base with negative exponent")
        if c == 1.0:
            return a
        if c < 2.0:
            # v^(c-1) or v^(c-2) blows up in the derivative terms
            raise _Fail("derivative unbounded at zero base")
        d2 = 2.0 * a.d1 * a.d1 if c == 2.0 else 0.0
        return Dual2(0.0, 0.0, d2)
    # negative base: only integral exponents are defined (Python's float
    # power silently promotes fractional ones to complex); round raises
    # OverflowError on an infinite exponent and ValueError on NaN
    if math.isnan(c) or c != round(c):
        raise _Fail("negative base with non-integer exponent")
    k = int(round(c))
    f = v ** k
    df = k * v ** (k - 1)
    d2f = k * (k - 1) * v ** (k - 2) if k != 0 else 0.0
    return _chain(a, f, df, d2f)


def _ln(a: Dual2, p) -> Dual2:
    v = a.value
    if p.defer(v <= 0.0):
        raise _Fail("log of non-positive value")
    return _chain(a, p.log(v), 1.0 / v, -1.0 / (v * v))


def _exp(a: Dual2, p) -> Dual2:
    f = p.exp(a.value)
    return _chain(a, f, f, f)


def _sqrt(a: Dual2, p) -> Dual2:
    v = a.value
    if p.defer(v <= 0.0):
        if v < 0.0:
            raise _Fail("sqrt of negative value")
        if a.d1 == 0.0 and a.d2 == 0.0:
            return Dual2(0.0, 0.0, 0.0)
        raise _Fail("derivative unbounded at sqrt(0)")
    r = p.sqrt(v)
    return _chain(a, r, 0.5 / r, -0.25 / (v * r))


def _abs(a: Dual2, p) -> Dual2:
    v = a.value
    if p.defer(v == 0.0):  # the derivative at the kink is defined as 0
        return _chain(a, 0.0, 0.0, 0.0)
    return _chain(a, abs(v), p.copysign(1.0, v), 0.0)


# + - * have no predicate and cannot raise: their rules are Dual2's
# operators, called with no policy
_RULES = {"+": Dual2.__add__, "-": Dual2.__sub__, "*": Dual2.__mul__,
          "/": _divide, "^": _power,
          "ln": _ln, "exp": _exp, "sqrt": _sqrt, "abs": _abs}


class _Raise:
    """Scalar policy: a predicate that holds takes its scalar branch."""

    defer = split = bool
    log, exp, pow, sqrt, copysign = (math.log, math.exp, pow, math.sqrt,
                                     math.copysign)


def _each(fn, bad, *columns):
    """fn at every point not in bad, called on Python floats.

    numpy's log, exp and power differ from libm in the last bit on some
    inputs, so these stay scalar calls.  A point where fn raises joins
    bad; the points in bad read nan.
    """
    keep = ~bad
    cols = [np.full(bad.shape, c)[keep].tolist() for c in columns]
    out = np.full(bad.shape, math.nan)
    try:
        out[keep] = list(map(fn, *cols))
    except (ArithmeticError, ValueError):
        for i, args in zip(np.flatnonzero(keep).tolist(), zip(*cols)):
            try:
                out[i] = fn(*args)
            except (ArithmeticError, ValueError):
                bad[i] = True
    return out


class _Defer:
    """Grid policy: a predicate that holds marks its points in bad, for
    eval2 to evaluate one by one, and the walk goes on."""

    sqrt, copysign = np.sqrt, np.copysign  # correctly rounded, like math's

    def __init__(self, bad):
        self.bad = bad
        self.log, self.exp, self.pow = (partial(_each, fn, bad)
                                        for fn in (math.log, math.exp, pow))

    def defer(self, cond) -> bool:
        self.bad |= cond
        return False

    def split(self, cond) -> bool:
        return np.all(cond) or self.defer(cond)


def _compile_node(e: Expr):
    """Node e as a closure f(seed, p) -> Dual2 that runs e's rule under
    policy p: the node type and operator are resolved here, once."""
    if isinstance(e, Var):
        return lambda seed, p: seed
    if isinstance(e, (Num, Const)):
        d = Dual2(e.value if isinstance(e, Num) else _CONSTANTS[e.name],
                  0.0, 0.0)
        return lambda seed, p: d
    if isinstance(e, Neg):
        arg = _compile_node(e.arg)
        return lambda seed, p: -arg(seed, p)
    if isinstance(e, Bin) and e.op in _BIN_LEVELS:
        rule, left, right = (_RULES[e.op], _compile_node(e.left),
                             _compile_node(e.right))
        if e.op in "+-*":
            return lambda seed, p: rule(left(seed, p), right(seed, p))

        def binary(seed, p):
            try:
                return rule(left(seed, p), right(seed, p), p)
            except _RAISES as err:  # the operands raise DomainError only
                raise _node_error(seed.value, e, err) from None
        return binary
    if isinstance(e, Call) and e.fn in _FUNCTIONS:
        rule, arg = _RULES[e.fn], _compile_node(e.arg)

        def call(seed, p):
            try:
                return rule(arg(seed, p), p)
            except _RAISES as err:
                raise _node_error(seed.value, e, err) from None
        return call
    raise InvalidParameter(f"not an expression node: {e!r}")


def compile2(e: Expr):
    """e compiled once into a function of a finite float u that returns
    eval2(e, u); pass it to eval2 or eval_prefix in place of e.  Under
    a _Defer policy p, law(us, p) runs the same tree over an array us."""
    node = _compile_node(e)

    def law(u, p=_Raise):
        out = node(Dual2(u, 1.0, 0.0), p)
        # x * 0.0 is nan exactly where x is inf or nan
        z = out.value * 0.0 + out.d1 * 0.0 + out.d2 * 0.0
        if p.defer(z != z):
            raise _domain_error(u, e, "non-finite result")
        return out
    return law


def eval2(e, u: float) -> Dual2:
    """Evaluate e and its first two u-derivatives at a finite u.

    e is an expression or its compile2 form.
    """
    u = float(u)
    if not math.isfinite(u):
        raise InvalidParameter(f"u must be finite, got {u!r}")
    return (e if callable(e) else compile2(e))(u)


def eval_prefix(e, us) -> tuple[Dual2, DomainError | None]:
    """eval2 at every u of a 1-D grid, in one run of the compiled tree.

    e is an expression or its compile2 form.  Returns Dual2 arrays over
    the longest prefix of us at which eval2 returns, and the DomainError
    that eval2 raises at the next point (None when every point
    evaluates); other errors propagate from the first point that raises
    them.  Every value is bit-identical to eval2's: the points that the
    grid policy marks are evaluated by eval2.
    """
    law = e if callable(e) else compile2(e)
    us = np.array(us, dtype=float)
    grid = _Defer(~np.isfinite(us))
    with np.errstate(all="ignore"):
        try:
            out = law(us, grid)
        except DomainError:
            # only a subtree free of u raises on a grid: at every point
            grid.bad[:] = True
            out = Dual2(math.nan, math.nan, math.nan)
    value, d1, d2 = (np.full(us.shape, x, dtype=float) for x in out)
    for i in np.flatnonzero(grid.bad).tolist():
        try:
            d = eval2(law, us[i])
        except DomainError as err:
            return Dual2(value[:i], d1[:i], d2[:i]), err
        value[i], d1[i], d2[i] = d.value, d.d1, d.d2
    return Dual2(value, d1, d2), None
