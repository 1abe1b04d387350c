"""Library paths checked against plain reference implementations.

Profile lookups bisect segment ends and arc abscissae; the reference
scans the segments and samples linearly.  eval2 formats a subexpression
only when it raises DomainError; the reference formats every Bin and
Call node eagerly, as eval2 once did.
"""

import math

from hypothesis import given, settings, strategies as st

import minres.exprlang as exprlang
from minres import solve
from minres.body import Linear, ParamArc
from minres.errors import DomainError, InvalidParameter, UnknownIdentifier
from minres.exprlang import (_CONSTANTS, Bin, Call, Const, Dual2, Neg, Num,
                             Var, _chain, eval2, format_expr, parse)
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


def _ref_pow_const(a, c, u, where):
    v = a.value
    if v > 0.0:
        f = v ** c
        return _chain(a, f, c * f / v, c * (c - 1.0) * f / (v * v))
    if v == 0.0:
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
    if c != round(c):
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
        except OverflowError:
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
        except OverflowError:
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
    except ArithmeticError as err:  # e.g. 1/(v*v) once v*v underflows
        return type(err).__name__, str(err)
    return tuple(float.hex(x) for x in (d.value, d.d1, d.d2))


slopes = st.one_of(st.sampled_from((0.0, -1.0, -2.0, 1.0)),
                   st.floats(min_value=-1e3, max_value=1e3))


@settings(max_examples=400, deadline=None)
@given(e=exprs, u=slopes)
def test_eval2_matches_eager_reference(e, u):
    assert _outcome(eval2, e, u) == _outcome(ref_eval2, e, u)


def test_eval2_does_not_format_on_success(monkeypatch):
    def refuse(e):
        raise AssertionError(f"format_expr({e!r}) on the evaluation path")

    cases = [(parse(text), u) for text in (PAIR_PLUS, PAIR_MINUS)
             for u in (0.0, 1e-8, 0.5, 1.0, 3.0, 1e6)]
    expected = [ref_eval2(e, u) for e, u in cases]
    monkeypatch.setattr(exprlang, "format_expr", refuse)
    assert [eval2(e, u) for e, u in cases] == expected
