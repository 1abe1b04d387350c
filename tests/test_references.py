"""Library paths checked against plain reference implementations.

Profile lookups search segment ends and arc abscissae for a whole grid
at once; the reference scans the segments and samples linearly, one
point at a time.  eval2 formats a subexpression only when it raises
DomainError; the reference formats every Bin and Call node eagerly, as
eval2 once did.  Grid evaluation walks the tree
once for all points; the reference is a loop of scalar evaluations.
parse climbs one precedence table; the reference is the recursive
descent it replaced, one method per binding level.
The critical slopes and the d >= 3 split are checked against 50-digit
mpmath roots.
"""

import itertools
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import minres.exprlang as exprlang
from minres import check_maximality, solve
from minres.body import Linear, ParamArc, ProblemSpec, Profile
from minres.criticals import critical_values, pair_criticals
from minres.errors import (DomainError, ExprSyntaxError, InvalidParameter,
                           MinresError, UnknownIdentifier)
from minres.exprlang import (_CONSTANTS, _FUNCTIONS, MAX_DEPTH, Bin, Call,
                             Const, Dual2, Neg, Num, Var, _byte_offset,
                             _chain, _tokenize, eval2, format_expr, parse)
from minres.pressure import make_builtin, make_expr, make_zero
from minres.render import profile_csv, profile_svg
from test_acceptance import PAIR_MINUS, PAIR_PLUS, _spec_for
from test_exprlang import exprs


def _rise(seg):
    if isinstance(seg, Linear):
        return seg.slope * (seg.t_to - seg.t_from)
    return seg.samples[-1][1] - seg.samples[0][1]


def _scan(profile, t):
    """(segment index, height at its start) by a linear scan."""
    x0 = 0.0
    last = len(profile.segments) - 1
    for i, seg in enumerate(profile.segments):
        if t < seg.t_to or i == last:
            return i, x0
        x0 += _rise(seg)


def _scan_arc(arc, t, col):
    pts = arc.samples
    if t <= pts[0][0]:
        return pts[0][col]
    if t >= pts[-1][0]:
        return pts[-1][col]
    j = next(j for j, s in enumerate(pts) if s[0] > t)
    t0, t1 = pts[j - 1][0], pts[j][0]
    v0, v1 = pts[j - 1][col], pts[j][col]
    if t1 == t0:
        return v1
    return v0 + (t - t0) / (t1 - t0) * (v1 - v0)


def ref_x_at(profile, t):
    i, x0 = _scan(profile, t)
    seg = profile.segments[i]
    if isinstance(seg, Linear):
        return x0 + seg.slope * (t - seg.t_from)
    return _scan_arc(seg, t, 1)


def _slope(seg, t):
    if isinstance(seg, Linear):
        return seg.slope
    return _scan_arc(seg, t, 2)


def ref_slope_at(profile, t):
    i, _ = _scan(profile, t)
    return _slope(profile.segments[i], t)


def ref_slope_if_unambiguous(profile, t):
    i, _ = _scan(profile, t)
    seg = profile.segments[i]
    if i > 0 and abs(t - seg.t_from) <= 1e-9 * max(1.0, profile.T):
        prev = profile.segments[i - 1]
        left = _slope(prev, prev.t_to)
        right = _slope(seg, seg.t_from)
        if abs(left - right) > 1e-9 * max(1.0, abs(left), abs(right)):
            return None
    return _slope(seg, t)


def _probe_points(profile):
    """Kinks, every arc sample and the midpoints between them, and T."""
    ts = {0.0, profile.T}
    ts.update(profile.T * k / 64 for k in range(65))
    for seg in profile.segments:
        ts.update((seg.t_from, seg.t_to))
        if isinstance(seg, ParamArc):
            arc_ts = [s[0] for s in seg.samples]
            ts.update(arc_ts)
            ts.update(0.5 * (a + b) for a, b in zip(arc_ts, arc_ts[1:]))
    return sorted(ts)


def _assert_lookups_match(profile):
    for t in _probe_points(profile):
        assert profile.x_at(t) == ref_x_at(profile, t), t
        assert profile.slope_at(t) == ref_slope_at(profile, t), t
        assert (profile.slope_if_unambiguous(t)
                == ref_slope_if_unambiguous(profile, t)), t


def test_lookups_match_scan_on_planar_cap_then_slope():
    sol = solve(_spec_for(2, 2.0, 1.0, "pair"))
    front = sol.front
    assert [type(s) for s in front.segments] == [Linear, Linear]
    assert front.segments[0].slope == 0.0
    knee = front.segments[0].t_to
    assert front.slope_if_unambiguous(knee) is None
    _assert_lookups_match(front)
    _assert_lookups_match(sol.rear)


def test_lookups_match_scan_on_two_arc_split():
    sol = solve(_spec_for(3, 1.0, 0.8, "pair"))
    for profile in (sol.front, sol.rear):
        assert [type(s) for s in profile.segments] == [Linear, ParamArc]
        assert profile.segments[0].slope == 0.0
        _assert_lookups_match(profile)


_newton_bodies = dict(
    d=st.sampled_from((2, 3, 4)), s=st.floats(min_value=0.25, max_value=4.0),
    o=st.floats(min_value=0.0, max_value=1.0),
    T=st.floats(min_value=0.25, max_value=4.0),
    h=st.floats(min_value=0.0, max_value=3.0),
    k=st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=0.9)),
    o2=st.floats(min_value=0.0, max_value=1.0))


def _outside_message(profile, t):
    """The InvalidParameter text of each entry point at t, as a tuple."""
    texts = []
    for lookup in (profile.x_at, profile.slope_at,
                   profile.slope_if_unambiguous,
                   lambda t: profile.sample((0.0, t, profile.T))):
        with pytest.raises(InvalidParameter) as err:
            lookup(t)
        texts.append(str(err.value))
    return tuple(texts)


@settings(max_examples=60, deadline=None)
@given(**_newton_bodies)
def test_grid_lookups_match_scan(d, s, o, T, h, k, o2):
    """One sample call over every probe point returns, bit for bit, what
    the reference scan returns point by point; out-of-range and NaN t
    raise the same text through every entry point."""
    p_minus = make_zero() if k == 0.0 else make_builtin(k * s, o2)
    sol = solve(ProblemSpec(d=d, T=T, H=h * T, p_plus=make_builtin(s, o),
                            p_minus=p_minus))
    for profile in (sol.front, sol.rear):
        ts = _probe_points(profile)
        x, u, unambiguous = profile.sample(ts)
        got = [(_bits(xv), _bits(uv), _bits(uv) if ok else None)
               for xv, uv, ok
               in zip(x.tolist(), u.tolist(), unambiguous.tolist())]
        want = []
        for t in ts:
            ref_u = ref_slope_if_unambiguous(profile, t)
            want.append((_bits(ref_x_at(profile, t)),
                         _bits(ref_slope_at(profile, t)),
                         None if ref_u is None else _bits(ref_u)))
        assert got == want
        for t in (-1e-3, -T, T * (1.0 + 1e-8), 2.0 * T, math.nan):
            assert _outside_message(profile, t) == (
                (f"t={t} outside [0, {profile.T}]",) * 4)


def test_exports_and_maximality_make_no_per_point_lookups(monkeypatch):
    """CSV, SVG and the maximality check on a two-arc body read the
    profiles through whole-grid calls only."""
    sol = solve(_spec_for(3, 1.0, 0.8, "pair"))
    assert all(isinstance(p.segments[-1], ParamArc)
               for p in (sol.front, sol.rear))

    def refuse(self, t):
        raise AssertionError("per-point profile lookup")

    for name in ("x_at", "slope_at", "slope_if_unambiguous"):
        monkeypatch.setattr(Profile, name, refuse)
    profile_csv(sol, 256)
    profile_svg(sol, 256)
    check_maximality(sol.spec, "front", sol.front, sol.lambda_plus)
    check_maximality(sol.spec, "rear", sol.rear, sol.lambda_minus)


def _ref_pow_const(a, c, u, where):
    v = a.value
    if v > 0.0:
        f = v ** c
        return _chain(a, f, c * f / v, c * (c - 1.0) * f / (v * v))
    if v == 0.0:
        if math.isnan(c):
            # NaN fails every test below and would read as c >= 2
            raise DomainError(u, where, "zero base with NaN exponent")
        if c == 0.0:
            raise DomainError(u, where, "0^0")
        if c < 0.0:
            raise DomainError(u, where, "zero base with negative exponent")
        if c == 1.0:
            return a
        if c < 2.0:
            raise DomainError(u, where, "derivative unbounded at zero base")
        d2 = 2.0 * a.d1 * a.d1 if c == 2.0 else 0.0
        return Dual2(0.0, 0.0, d2)
    if math.isnan(c) or c != round(c):
        raise DomainError(u, where, "negative base with non-integer exponent")
    k = int(round(c))
    f = v ** k
    df = k * v ** (k - 1)
    d2f = k * (k - 1) * v ** (k - 2) if k != 0 else 0.0
    return _chain(a, f, df, d2f)


def _ref_eval_node(e, seed, u):
    if isinstance(e, Num):
        return Dual2(e.value, 0.0, 0.0)
    if isinstance(e, Const):
        return Dual2(_CONSTANTS[e.name], 0.0, 0.0)
    if isinstance(e, Var):
        return seed
    if isinstance(e, Neg):
        return -_ref_eval_node(e.arg, seed, u)
    if isinstance(e, Bin):
        a = _ref_eval_node(e.left, seed, u)
        b = _ref_eval_node(e.right, seed, u)
        where = format_expr(e)
        try:
            if e.op == "+":
                return a + b
            if e.op == "-":
                return a - b
            if e.op == "*":
                return a * b
            if e.op == "/":
                if b.value == 0.0:
                    raise DomainError(u, where, "division by zero")
                return a / b
            if e.op == "^":
                if b.d1 == 0.0 and b.d2 == 0.0:
                    return _ref_pow_const(a, b.value, u, where)
                if a.value <= 0.0:
                    raise DomainError(u, where,
                                      "variable exponent needs positive base")
                ln_a = _chain(a, math.log(a.value), 1.0 / a.value,
                              -1.0 / (a.value * a.value))
                prod = b * ln_a
                f = math.exp(prod.value)
                return _chain(prod, f, f, f)
        except (OverflowError, ZeroDivisionError):
            raise DomainError(u, where, "overflow") from None
        raise InvalidParameter(f"unknown operator {e.op!r}")
    if isinstance(e, Call):
        a = _ref_eval_node(e.arg, seed, u)
        where = format_expr(e)
        v = a.value
        try:
            if e.fn == "ln":
                if v <= 0.0:
                    raise DomainError(u, where, "log of non-positive value")
                return _chain(a, math.log(v), 1.0 / v, -1.0 / (v * v))
            if e.fn == "exp":
                f = math.exp(v)
                return _chain(a, f, f, f)
            if e.fn == "sqrt":
                if v < 0.0:
                    raise DomainError(u, where, "sqrt of negative value")
                if v == 0.0:
                    if a.d1 == 0.0 and a.d2 == 0.0:
                        return Dual2(0.0, 0.0, 0.0)
                    raise DomainError(u, where,
                                      "derivative unbounded at sqrt(0)")
                r = math.sqrt(v)
                return _chain(a, r, 0.5 / r, -0.25 / (v * r))
            if e.fn == "abs":
                s = 0.0 if v == 0.0 else math.copysign(1.0, v)
                return _chain(a, abs(v), s, 0.0)
        except (OverflowError, ZeroDivisionError):
            raise DomainError(u, where, "overflow") from None
        raise UnknownIdentifier(e.fn, 0)
    raise InvalidParameter(f"not an expression node: {e!r}")


def ref_eval2(e, u):
    u = float(u)
    if not math.isfinite(u):
        raise InvalidParameter(f"u must be finite, got {u!r}")
    out = _ref_eval_node(e, Dual2(u, 1.0, 0.0), u)
    if not (math.isfinite(out.value) and math.isfinite(out.d1)
            and math.isfinite(out.d2)):
        raise DomainError(u, format_expr(e), "non-finite result")
    return out


def _outcome(evaluate, e, u):
    """The exact bits of the dual value, or the error raised."""
    try:
        d = evaluate(e, u)
    except DomainError as err:
        return "DomainError", err.u, err.where, str(err)
    except ArithmeticError as err:  # any that eval2 lets escape
        return type(err).__name__, str(err)
    return tuple(float.hex(x) for x in (d.value, d.d1, d.d2))


slopes = st.one_of(st.sampled_from((0.0, -1.0, -2.0, 1.0)),
                   st.floats(min_value=-1e3, max_value=1e3))


@settings(max_examples=400, deadline=None)
@given(e=exprs, u=slopes)
def test_eval2_matches_eager_reference(e, u):
    assert _outcome(eval2, e, u) == _outcome(ref_eval2, e, u)


def _hex_or_error(evaluate, u):
    """float.hex of each value returned, as a list, or the error raised."""
    try:
        out = evaluate(u)
    except (DomainError, ArithmeticError) as err:
        return _error(err)
    return [float.hex(x) for x in out]


@settings(max_examples=300, deadline=None)
@given(e=exprs, u=slopes)
def test_expression_model_matches_eager_reference(e, u):
    """make_expr compiles its law once; every scalar evaluation of the
    model is still eval2's, bit for bit and error for error."""
    model = make_expr(e)
    expected = _hex_or_error(lambda u: ref_eval2(e, u), u)
    assert _hex_or_error(model.eval, u) == expected
    for k, method in enumerate((model.p, model.dp, model.d2p)):
        got = _hex_or_error(lambda u: [method(u)], u)
        assert got == (expected[k:k + 1] if isinstance(expected, list)
                       else expected)
    text = format_expr(e)
    assert model.describe() == text
    assert make_expr(text) == make_expr(text) == model
    assert hash(make_expr(text)) == hash(make_expr(text)) == hash(model)


def test_eval2_does_not_format_on_success(monkeypatch):
    def refuse(e):
        raise AssertionError(f"format_expr({e!r}) on the evaluation path")

    cases = [(parse(text), u) for text in (PAIR_PLUS, PAIR_MINUS)
             for u in (0.0, 1e-8, 0.5, 1.0, 3.0, 1e6)]
    expected = [ref_eval2(e, u) for e, u in cases]
    monkeypatch.setattr(exprlang, "format_expr", refuse)
    assert [eval2(e, u) for e, u in cases] == expected


class _RefParser:
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


def ref_parse(text: str):
    """Parse expression text; raises ExprSyntaxError / UnknownIdentifier.

    Nesting and tree height are bounded by MAX_DEPTH, so that neither
    parsing nor any later walk of the tree exhausts the recursion limit.
    """
    if not isinstance(text, str):
        raise InvalidParameter("expression source must be a string")
    p = _RefParser(text)
    node, _ = p.parse_sum()
    if p.peek()[0] != "end":
        p.fail(("end of input",))
    return node


# source fragments: every token kind, whitespace, a stray identifier and
# character, a two-byte character, and pairs that nest a sign
FRAGMENTS = ("u", "2", "1.5", "pi", "e", "+", "-", "*", "/", "^", "(", ")",
             "ln(", "exp(", "sqrt(", "abs(", " ", "x", "1e3", "é", "--",
             "^-")
LAW = "1/(1+u^2)"
NESTINGS = (lambda k: "(" * k + LAW + ")" * k,
            lambda k: LAW + "+0*u" * k,
            lambda k: "-" * k + "u",
            lambda k: "u" + "^u" * k,
            lambda k: "u" + "^-u" * k,
            lambda k: "ln(" * k + "u" + ")" * k,
            lambda k: "-(" * k + "u" + ")" * k,
            lambda k: "u" + "*u" * k,
            lambda k: "(u+" * k + "u" + ")" * k,
            lambda k: "exp(-" * k + "u" + ")" * k,
            lambda k: "2^(" * k + "u" + ")" * k,
            lambda k: "-u*" * k + "u")


def _parse_outcome(parse_text, text):
    """The tree, by == and by repr, or the error: its type, message,
    byte offset and expected tokens."""
    try:
        e = parse_text(text)
    except (ExprSyntaxError, UnknownIdentifier) as err:
        return type(err), str(err), err.offset, getattr(err, "expected", None)
    return e, repr(e)


def _assert_parsers_agree(texts):
    for text in texts:
        assert _parse_outcome(parse, text) == _parse_outcome(ref_parse, text), text


def test_parse_matches_recursive_descent_on_short_inputs():
    """Every string of at most three fragments: 11,155 inputs."""
    _assert_parsers_agree("".join(parts) for n in range(4)
                          for parts in itertools.product(FRAGMENTS, repeat=n))


@settings(max_examples=300, deadline=None)
@given(parts=st.lists(st.sampled_from(FRAGMENTS), max_size=30))
def test_parse_matches_recursive_descent_property(parts):
    _assert_parsers_agree(["".join(parts)])


def test_parse_matches_recursive_descent_next_to_the_nesting_bound():
    """Each shape at MAX_DEPTH +- 3 levels, as it is, with a closing
    parenthesis more and with its last character cut."""
    texts = [shape(k) for shape in NESTINGS
             for k in range(MAX_DEPTH - 3, MAX_DEPTH + 4)]
    _assert_parsers_agree(texts + [t + ")" for t in texts]
                          + [t[:-1] for t in texts])


def _stack_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("parse_text, fits", [(parse, True),
                                              (ref_parse, False)])
def test_parse_spends_two_frames_per_nesting_level(parse_text, fits):
    """The deepest accepted parenthesis nest parses within 2 MAX_DEPTH
    frames and a margin; the recursive descent needs more than 3."""
    text = NESTINGS[0](MAX_DEPTH - 2)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 2 * MAX_DEPTH + 30)
    try:
        outcome = parse_text(text)
    except RecursionError as err:
        outcome = err
    finally:
        sys.setrecursionlimit(limit)
    if fits:
        assert outcome == parse(text)
    else:
        assert isinstance(outcome, RecursionError)


def _bits(*values):
    return tuple(float.hex(float(v)) for v in values)


def _error(err):
    if isinstance(err, DomainError):
        return "DomainError", err.u, err.where, str(err)
    return type(err).__name__, str(err)


def _pointwise(evaluate, us):
    """Bits at each point up to the first error, and that error."""
    rows = []
    for u in us:
        try:
            rows.append(_bits(*evaluate(float(u))))
        except (MinresError, ArithmeticError, ValueError) as err:
            return rows, _error(err)
    return rows, None


def _assert_grid_matches_pointwise(model, evaluate, us):
    rows, first_error = _pointwise(evaluate, us)
    try:
        p, dp, d2p = model.eval_many(us)
    except (MinresError, ArithmeticError, ValueError) as err:
        assert _error(err) == first_error
    else:
        assert first_error is None
        assert [_bits(*r) for r in zip(p, dp, d2p)] == rows
    if first_error is not None and first_error[0] == "DomainError":
        p, dp, d2p, err = model.eval_prefix(us)
        assert [_bits(*r) for r in zip(p, dp, d2p)] == rows
        assert _error(err) == first_error


grid_points = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, -2.0, 1e-300, -1e-300, 1e-200,
                     1e300, -1e300)),
    st.floats(min_value=-1e3, max_value=1e3))
grids = st.lists(grid_points, min_size=1, max_size=12)


@settings(max_examples=400, deadline=None)
@given(e=exprs, us=grids)
def test_eval_many_matches_eval2_at_each_point(e, us):
    def evaluate(u):
        d = eval2(e, u)
        return d.value, d.d1, d.d2

    _assert_grid_matches_pointwise(make_expr(e), evaluate, us)


@pytest.mark.parametrize("text", ["u^2.5+u^-1.5+u^2", "exp(-u)*ln(1+u)",
                                  "(1+u)^u", "sqrt(u)*u^3.0"])
def test_eval_many_matches_eval2_on_a_dense_grid(text):
    """numpy's power, exp and log round differently from libm at some of
    these points, so the grid must call the scalar functions."""
    e = parse(text)

    def evaluate(u):
        d = eval2(e, u)
        return d.value, d.d1, d.d2

    _assert_grid_matches_pointwise(make_expr(e), evaluate,
                                   np.geomspace(1e-3, 1e2, 2000))


@settings(max_examples=200, deadline=None)
@given(s=st.floats(min_value=1e-3, max_value=1e3),
       o=st.floats(min_value=-1e3, max_value=1e3), us=grids)
def test_eval_many_matches_builtin_and_zero_laws(s, o, us):
    """Grids and single slopes both match each law's closed form, written
    out here in the builtin law's documented operation order."""
    def newton(u):
        q = 1.0 + u * u
        return (s / q + o, -2.0 * s * u / (q * q),
                s * (6.0 * u * u - 2.0) / (q * q * q))

    for model, law in ((make_builtin(s, o), newton),
                       (make_zero(), lambda u: (0.0, 0.0, 0.0))):
        _assert_grid_matches_pointwise(model, law, us)
        for u in us:
            assert (_bits(model.p(u), model.dp(u), model.d2p(u))
                    == _bits(*law(u)))


def _blocked_at(law, u):
    """law, plus 0*(1/(u-c)): the same values, DomainError exactly at c."""
    return make_expr(f"{law}+0*(1/(u-{u!r}))")


@pytest.mark.parametrize("plus_at, minus_at", [(100, 50), (50, 100)])
def test_pair_criticals_raises_the_earliest_grid_failure(plus_at, minus_at):
    """The assumption scan evaluates both laws on one grid; the law that
    fails at the smaller slope decides the error, as in a pointwise loop."""
    grid = np.geomspace(1e-6, 1e4, 128)
    p_plus = _blocked_at(PAIR_PLUS, float(grid[plus_at]))
    p_minus = _blocked_at(PAIR_MINUS, float(grid[minus_at]))
    first = p_plus if plus_at < minus_at else p_minus
    u = float(grid[min(plus_at, minus_at)])
    with pytest.raises(DomainError) as expected:
        first.dp(u)
    with pytest.raises(DomainError) as got:
        pair_criticals(p_plus, p_minus, 2)
    assert _error(got.value) == _error(expected.value)


# the three laws of the acceptance matrix, as mpmath functions of u
_MP_LAWS = {
    "newton:1,0": lambda u: 1 / (1 + u ** 2),
    PAIR_PLUS: lambda u: 1 / (1 + u ** 2) + mpmath.mpf("0.5"),
    PAIR_MINUS: lambda u: mpmath.mpf("0.5") / (1 + u ** 2) - mpmath.mpf("0.5"),
}


def _model(law):
    return make_builtin(1.0, 0.0) if law == "newton:1,0" else make_expr(law)


def _mp_criticals(p):
    """(u_bar, u0, B) of p from 50-digit roots and derivatives."""
    d1 = lambda u: mpmath.diff(p, u)
    u_bar = mpmath.findroot(lambda u: mpmath.diff(p, u, 2), 0.5)
    u0 = mpmath.findroot(lambda u: p(0) - p(u) + u * d1(u), 1.2)
    return u_bar, u0, (p(0) - p(u0)) / u0


def test_criticals_match_mpmath_references():
    """Criticals and u_star within the 1e-12 root tolerance of 50-digit
    references; prints the achieved error of each."""
    with mpmath.workdps(50):
        refs = {law: _mp_criticals(p) for law, p in _MP_LAWS.items()}
        B_minus = refs[PAIR_MINUS][2]
        u_star = mpmath.findroot(
            lambda u: mpmath.diff(_MP_LAWS[PAIR_PLUS], u) + B_minus, 1.5)
    worst = 0.0
    for law, ref in refs.items():
        cv = critical_values(_model(law))
        for name, got, want in zip(("u_bar", "u0", "B"),
                                   (cv.u_bar, cv.u0, cv.B), ref):
            err = abs(got - float(want))
            print(f"{law} {name}: error {err:.2e}")
            worst = max(worst, err)
    pc = pair_criticals(make_expr(PAIR_PLUS), make_expr(PAIR_MINUS), 2)
    err = abs(pc.u_star - float(u_star))
    print(f"pair u_star: error {err:.2e}")
    worst = max(worst, err)
    assert worst <= 1e-12


def _mp_branch(law, d):
    """(b, R) of one law in d dimensions as 50-digit functions of the
    terminal slope U > u0, with R the branch resistance on T = 1."""
    p = _MP_LAWS[law]
    _, u0, B = _mp_criticals(p)
    omega = mpmath.mpf(1) / (d - 2)
    dp = lambda u: mpmath.diff(p, u)
    if d == 3:
        # |p'|^-1 = (1+u^2)^2 / (2 s u) for p = s/(1+u^2) + c
        s = 1 if law == PAIR_PLUS else mpmath.mpf("0.5")
        G = lambda u: (mpmath.log(u) + u ** 2 + u ** 4 / 4) / (2 * s)
        g = lambda U: u0 / B + G(U) - G(u0)
    else:
        g = lambda U: (u0 / B ** omega
                       + mpmath.quad(lambda v: (-dp(v)) ** -omega, [u0, U]))
    b = lambda U: U - (-dp(U)) ** omega * g(U)
    R = lambda U: p(U) + (-dp(U)) ** (1 + omega) * g(U)
    return dp, b, R, g, B


@pytest.mark.parametrize("d,H", [(3, 0.8), (4, 0.5)])
def test_split_matches_mpmath_references(d, H):
    """The split's terminal slopes, rear height, multiplier and
    resistance against 50-digit roots of the two split equations
    p_plus'(z_plus) = p_minus'(z_minus) and b_plus + b_minus = H (T = 1);
    prints the achieved error of each beside its tolerance."""
    sol = solve(_spec_for(d, 1.0, H, "pair"))
    pc = pair_criticals(make_expr(PAIR_PLUS), make_expr(PAIR_MINUS), d)
    with mpmath.workdps(50):
        dp_p, b_p, R_p, g_p, _ = _mp_branch(PAIR_PLUS, d)
        dp_m, b_m, R_m, _, B_m = _mp_branch(PAIR_MINUS, d)
        omega = mpmath.mpf(1) / (d - 2)
        u_star = mpmath.findroot(lambda u: dp_p(u) + B_m, pc.u_star)
        h_star = u_star - B_m ** omega * g_p(u_star)
        z_p, z_m = mpmath.findroot(
            [lambda zp, zm: dp_p(zp) - dp_m(zm),
             lambda zp, zm: b_p(zp) + b_m(zm) - H],
            (sol.U_plus, sol.U_minus))
        refs = (("h_star", pc.h_star, h_star, 1e-11),
                ("U_plus", sol.U_plus, z_p, 1e-12),
                ("U_minus", sol.U_minus, z_m, 1e-12),
                ("beta_minus", sol.beta_minus, b_m(z_m), 1e-11),
                ("lambda_plus", sol.lambda_plus, -dp_p(z_p), 1e-12))
        R_total = R_p(z_p) + R_m(z_m)
    failed = []
    for name, got, want, tol in refs:
        err = abs(got - float(want))
        print(f"d={d} H={H} {name}: error {err:.2e} (tolerance {tol:.0e})")
        if err > tol:
            failed.append(name)
    rel = abs(sol.R_total - float(R_total)) / float(R_total)
    print(f"d={d} H={H} R_total: relative error {rel:.2e} (tolerance 1e-12)")
    if rel > 1e-12:
        failed.append("R_total")
    assert not failed
