"""Arithmetic expressions in one variable u with second-order evaluation.

Grammar (no implicit multiplication, ^ is right-associative and binds
tighter than unary minus, so -u^2 means -(u^2)):

    sum    := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := number | 'u' | 'pi' | 'e' | fn '(' sum ')' | '(' sum ')'
    fn     := 'ln' | 'exp' | 'sqrt' | 'abs'

eval2 returns the value together with the first and second derivative
with respect to u, propagated through a second-order dual number.  It
runs a compiled form: compile2 turns the tree, once, into closures that
each do one node's arithmetic, and a caller that evaluates one law many
times (a PressureModel) keeps that form and passes it to eval2.
eval_prefix does the same for a whole grid of u in one walk of the
tree, bit for bit as eval2 would at each point.  Parsing is total: any input
yields an AST or a positioned error, and nesting deeper than MAX_DEPTH
is such an error.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
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


def format_expr(e: Expr) -> str:
    """Canonical fully parenthesized form; parse(format_expr(e)) == e
    while that form nests no deeper than MAX_DEPTH."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Const):
        return e.name
    if isinstance(e, Var):
        return "u"
    if isinstance(e, Neg):
        return f"(-{format_expr(e.arg)})"
    if isinstance(e, Bin):
        return f"({format_expr(e.left)}{e.op}{format_expr(e.right)})"
    if isinstance(e, Call):
        return f"{e.fn}({format_expr(e.arg)})"
    raise InvalidParameter(f"not an expression node: {e!r}")


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


# The parser spends up to 5 frames per level of nesting (sum, term,
# unary, power and atom for each parenthesis); evaluation, _walk_many
# and format_expr spend 1 per tree level, and the nodes' repr, == and
# hash up to 3.  160 levels is at most 800 frames, which leaves a fifth
# of Python's default recursion limit of 1000 to the caller.
MAX_DEPTH = 160


class _Parser:
    """Recursive descent.  Each parse_* method returns (node, height),
    height being the longest chain of operators below the node."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # levels of nesting around the next parse_unary

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

    def operator(self, op, pos, left, right):
        """The Bin node for the operator token at pos."""
        height = max(left[1], right[1]) + 1
        self.check_depth(height, pos)
        return Bin(op, left[0], right[0]), height

    def parse_sum(self):
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.take()
            node = self.operator(op, pos, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.take()
            node = self.operator(op, pos, node, self.parse_unary())
        return node

    def parse_unary(self):
        # every nesting level, whether a parenthesis, a function call,
        # a unary minus or an exponent, passes through here once
        pos = self.peek()[2]
        self.check_depth(self.depth, pos)
        self.depth += 1
        if self.peek()[0] == "-":
            self.take()
            arg, height = self.parse_unary()
            self.check_depth(height + 1, pos)
            node = Neg(arg), height + 1
        else:
            node = self.parse_power()
        self.depth -= 1
        return node

    def parse_power(self):
        base = self.parse_atom()
        if self.peek()[0] == "^":
            pos = self.take()[2]
            # right-associative; exponent may itself be signed
            return self.operator("^", pos, base, self.parse_unary())
        return base

    def parse_atom(self):
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
                arg, height = self.parse_sum()
                self.expect(")")
                self.check_depth(height + 1, pos)
                return Call(value, arg), height + 1
            raise UnknownIdentifier(value, _byte_offset(self.text, pos))
        if kind == "(":
            self.take()
            node = self.parse_sum()
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
    node, _ = p.parse_sum()
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


def _domain_error(u: float, e: Expr, reason: str) -> DomainError:
    """The error for node e at u; e is formatted only when one is raised."""
    return DomainError(u, format_expr(e), reason)


def _dual_pow_const(a: Dual2, c: float, u: float, e: Bin) -> Dual2:
    v = a.value
    if v > 0.0:
        f = v ** c
        return _chain(a, f, c * f / v, c * (c - 1.0) * f / (v * v))
    if v == 0.0:
        if math.isnan(c):
            # NaN fails every test below and would read as c >= 2
            raise _domain_error(u, e, "zero base with NaN exponent")
        if c == 0.0:
            raise _domain_error(u, e, "0^0")
        if c < 0.0:
            raise _domain_error(u, e, "zero base with negative exponent")
        if c == 1.0:
            return a
        if c < 2.0:
            # v^(c-1) or v^(c-2) blows up in the derivative terms
            raise _domain_error(u, e, "derivative unbounded at zero base")
        d2 = 2.0 * a.d1 * a.d1 if c == 2.0 else 0.0
        return Dual2(0.0, 0.0, d2)
    # negative base: only integral exponents are defined (Python's float
    # power silently promotes fractional ones to complex); round raises
    # OverflowError on an infinite exponent and ValueError on NaN
    if math.isnan(c) or c != round(c):
        raise _domain_error(u, e, "negative base with non-integer exponent")
    k = int(round(c))
    f = v ** k
    df = k * v ** (k - 1)
    d2f = k * (k - 1) * v ** (k - 2) if k != 0 else 0.0
    return _chain(a, f, df, d2f)


def _compile_node(e: Expr):
    """Node e as a closure f(seed, u) -> Dual2 that does eval2's work at
    e: the node type and operator are resolved here, once, and every
    call makes the same operations and domain checks in the same order.
    """
    if isinstance(e, Var):
        return lambda seed, u: seed
    if isinstance(e, (Num, Const)):
        d = Dual2(e.value if isinstance(e, Num) else _CONSTANTS[e.name],
                  0.0, 0.0)
        return lambda seed, u: d
    if isinstance(e, Neg):
        arg = _compile_node(e.arg)
        return lambda seed, u: -arg(seed, u)
    if isinstance(e, Bin):
        rule = _bin_rule(e)
        left, right = _compile_node(e.left), _compile_node(e.right)

        def binary(seed, u):
            a = left(seed, u)
            b = right(seed, u)
            try:
                return rule(u, a, b)
            except (OverflowError, ZeroDivisionError):
                # a derivative denominator such as v*v underflowing to 0
                # means that derivative overflows
                raise _domain_error(u, e, "overflow") from None
        return binary
    if isinstance(e, Call):
        rule, arg = _call_rule(e), _compile_node(e.arg)

        def call(seed, u):
            a = arg(seed, u)
            try:
                return rule(u, a)
            except (OverflowError, ZeroDivisionError):
                raise _domain_error(u, e, "overflow") from None
        return call

    def not_a_node(seed, u):
        raise InvalidParameter(f"not an expression node: {e!r}")
    return not_a_node


def _bin_rule(e: Bin):
    """Bin node e's arithmetic as rule(u, a, b) on its operands' values."""
    if e.op == "+":
        return lambda u, a, b: a + b
    if e.op == "-":
        return lambda u, a, b: a - b
    if e.op == "*":
        return lambda u, a, b: a * b
    if e.op == "/":
        def divide(u, a, b):
            if b.value == 0.0:
                raise _domain_error(u, e, "division by zero")
            return a / b
        return divide
    if e.op == "^":
        def power(u, a, b):
            if b.d1 == 0.0 and b.d2 == 0.0:
                return _dual_pow_const(a, b.value, u, e)
            if a.value <= 0.0:
                raise _domain_error(
                    u, e, "variable exponent needs positive base")
            ln_a = _chain(a, math.log(a.value), 1.0 / a.value,
                          -1.0 / (a.value * a.value))
            prod = b * ln_a
            f = math.exp(prod.value)
            return _chain(prod, f, f, f)
        return power

    def unknown(u, a, b):
        raise InvalidParameter(f"unknown operator {e.op!r}")
    return unknown


def _call_rule(e: Call):
    """Call node e's arithmetic as rule(u, a) on its argument's value."""
    if e.fn == "ln":
        def ln(u, a):
            v = a.value
            if v <= 0.0:
                raise _domain_error(u, e, "log of non-positive value")
            return _chain(a, math.log(v), 1.0 / v, -1.0 / (v * v))
        return ln
    if e.fn == "exp":
        def exp(u, a):
            f = math.exp(a.value)
            return _chain(a, f, f, f)
        return exp
    if e.fn == "sqrt":
        def sqrt(u, a):
            v = a.value
            if v < 0.0:
                raise _domain_error(u, e, "sqrt of negative value")
            if v == 0.0:
                if a.d1 == 0.0 and a.d2 == 0.0:
                    return Dual2(0.0, 0.0, 0.0)
                raise _domain_error(u, e, "derivative unbounded at sqrt(0)")
            r = math.sqrt(v)
            return _chain(a, r, 0.5 / r, -0.25 / (v * r))
        return sqrt
    if e.fn == "abs":
        def abs_(u, a):
            v = a.value
            s = 0.0 if v == 0.0 else math.copysign(1.0, v)
            # derivative at the kink is defined as 0
            return _chain(a, abs(v), s, 0.0)
        return abs_

    def unknown(u, a):
        raise UnknownIdentifier(e.fn, 0)
    return unknown


def compile2(e: Expr):
    """e compiled once into a function of a finite float u that returns
    eval2(e, u); pass it to eval2 in place of e."""
    node = _compile_node(e)

    def law(u: float) -> Dual2:
        out = node(Dual2(u, 1.0, 0.0), u)
        if not (math.isfinite(out.value) and math.isfinite(out.d1)
                and math.isfinite(out.d2)):
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


def _each(fn, bad, *columns):
    """fn at every point, called on Python floats.

    numpy's log, exp and power differ from libm in the last bit on some
    inputs, so these stay scalar calls.  A point where fn raises is
    flagged in bad and reads nan.
    """
    cols = [c.tolist() for c in columns]
    try:
        return np.array(list(map(fn, *cols)), dtype=float)
    except (ArithmeticError, ValueError):
        pass
    out = []
    for i, args in enumerate(zip(*cols)):
        try:
            out.append(fn(*args))
        except (ArithmeticError, ValueError):
            bad[i] = True
            out.append(math.nan)
    return np.array(out, dtype=float)


def _pow_many(a: Dual2, b: Dual2, bad) -> Dual2:
    v = a.value
    const = (b.d1 == 0.0) & (b.d2 == 0.0)
    if not const.all():
        # exp(b ln a); points where the exponent is constant go to eval2
        bad |= const | (v <= 0.0) | (v * v == 0.0)
        ln_a = _chain(a, _each(math.log, bad, v), 1.0 / v, -1.0 / (v * v))
        prod = b * ln_a
        f = _each(math.exp, bad, prod.value)
        return _chain(prod, f, f, f)
    # zero and negative bases take eval2's special cases
    c = b.value
    bad |= (v <= 0.0) | (v * v == 0.0)
    f = _each(pow, bad, np.where(v > 0.0, v, 1.0), c)
    return _chain(a, f, c * f / v, c * (c - 1.0) * f / (v * v))


def _walk_many(e: Expr, seed: Dual2, bad) -> Dual2:
    """eval2's arithmetic on a whole grid, with Dual2 arrays as values.

    Sets bad at every point where eval2 raises or might raise, and
    wherever an operation here could round differently from it.
    """
    n = bad.size
    if isinstance(e, Var):
        return seed
    if isinstance(e, (Num, Const)):
        value = e.value if isinstance(e, Num) else _CONSTANTS[e.name]
        return Dual2(np.full(n, value), np.zeros(n), np.zeros(n))
    if isinstance(e, Neg):
        return -_walk_many(e.arg, seed, bad)
    if isinstance(e, Bin) and e.op in ("+", "-", "*", "/", "^"):
        a = _walk_many(e.left, seed, bad)
        b = _walk_many(e.right, seed, bad)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            bad |= b.value == 0.0
            return a / b
        return _pow_many(a, b, bad)
    if isinstance(e, Call) and e.fn in _FUNCTIONS:
        a = _walk_many(e.arg, seed, bad)
        v = a.value
        if e.fn == "ln":
            bad |= (v <= 0.0) | (v * v == 0.0)
            return _chain(a, _each(math.log, bad, v), 1.0 / v, -1.0 / (v * v))
        if e.fn == "exp":
            f = _each(math.exp, bad, v)
            return _chain(a, f, f, f)
        if e.fn == "sqrt":
            # np.sqrt is correctly rounded, like math.sqrt; sqrt(0)
            # goes to eval2
            r = np.sqrt(v)
            bad |= (v < 0.0) | (v * r == 0.0)
            return _chain(a, r, 0.5 / r, -0.25 / (v * r))
        s = np.where(v == 0.0, 0.0, np.copysign(1.0, v))
        return _chain(a, np.abs(v), s, 0.0)
    # anything else: eval2 raises at each point what it raises there
    bad[:] = True
    nan = np.full(n, math.nan)
    return Dual2(nan, nan, nan)


def eval_prefix(e: Expr, us, law=None) -> tuple[Dual2, DomainError | None]:
    """eval2 at every u of a 1-D grid, in one walk of the tree.

    Returns Dual2 arrays over the longest prefix of us at which eval2
    returns, and the DomainError that eval2 raises at the next point
    (None when every point evaluates); other errors propagate from
    the first point that raises them.  Every value is bit-identical to
    eval2's: the points where the walk meets a domain condition, a
    failing scalar call or a non-finite value are evaluated by eval2,
    with law, e's compile2 form, built once if the caller has none.
    """
    us = np.array(us, dtype=float)
    bad = ~np.isfinite(us)
    with np.errstate(all="ignore"):
        out = _walk_many(e, Dual2(us, np.ones(us.size), np.zeros(us.size)),
                         bad)
    value, d1, d2 = (np.array(x, dtype=float)
                     for x in (out.value, out.d1, out.d2))
    bad |= ~(np.isfinite(value) & np.isfinite(d1) & np.isfinite(d2))
    for i in np.flatnonzero(bad).tolist():
        law = law or compile2(e)
        try:
            d = eval2(law, us[i])
        except DomainError as err:
            return Dual2(value[:i], d1[:i], d2[:i]), err
        value[i], d1[i], d2[i] = d.value, d.d1, d.d2
    return Dual2(value, d1, d2), None
