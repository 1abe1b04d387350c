"""Expression language: parsing, printing, dual evaluation."""

import math
import operator
import random

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from minres.errors import DomainError, ExprSyntaxError, UnknownIdentifier
from minres.exprlang import (_CONSTANTS, _FUNCTIONS, MAX_DEPTH, Bin, Call,
                             Const, Dual2, Neg, Num, Var, eval2, eval_prefix,
                             format_expr, parse)


def _trees(numbers, binary, max_leaves):
    """ASTs over the given literals; binary(children) builds Bin nodes."""
    leaves = st.one_of(numbers, st.just(Var()),
                       st.sampled_from((Const("pi"), Const("e"))))
    return st.recursive(leaves, lambda children: st.one_of(
        st.builds(Neg, children),
        binary(children),
        st.builds(Call, st.sampled_from(_FUNCTIONS), children)),
        max_leaves=max_leaves)


# the parser's image: literals are finite and nonnegative, any operator
# may join any two subtrees
exprs = _trees(
    st.floats(min_value=0.0, allow_infinity=False).map(Num),
    lambda children: st.builds(Bin, st.sampled_from("+-*/^"), children,
                               children),
    max_leaves=12)


def _signed_num(value):
    return Num(value) if value >= 0.0 else Neg(Num(-value))


# moderate literals and constant exponents, as in _random_expr below
smooth_exprs = _trees(
    st.floats(min_value=0.1, max_value=3.0).map(lambda v: Num(round(v, 3))),
    lambda children: st.one_of(
        st.builds(Bin, st.sampled_from("+-*/"), children, children),
        st.builds(lambda base, k: Bin("^", base, _signed_num(k)), children,
                  st.sampled_from((2.0, 3.0, 0.5, -1.0, -2.0)))),
    max_leaves=8)


def ev(text, u):
    d = eval2(parse(text), u)
    return d.value, d.d1, d.d2


def test_parse_simple_sum():
    e = parse("1+u")
    assert isinstance(e, Bin) and e.op == "+"
    assert isinstance(e.left, Num) and e.left.value == 1.0
    assert isinstance(e.right, Var)


def test_parse_newton_law():
    e = parse("1/(1+u^2)")
    assert format_expr(e) == "1.0/(1.0+u^2.0)"


def test_power_right_associative():
    v, _, _ = ev("2^3^2", 1.0)
    assert v == 512.0


def test_unary_minus_binds_looser_than_power():
    v, _, _ = ev("-u^2", 3.0)
    assert v == -9.0


def test_signed_exponent():
    v, d1, _ = ev("u^-2", 2.0)
    assert v == pytest.approx(0.25, rel=1e-14)
    assert d1 == pytest.approx(-0.25, rel=1e-14)


def test_constants():
    v, d1, d2 = ev("pi+e", 1.0)
    assert v == math.pi + math.e
    assert d1 == 0.0 and d2 == 0.0


def test_functions_parse():
    for fn in ("exp", "ln", "sqrt", "abs"):
        e = parse(f"{fn}(u)")
        assert isinstance(e, Call) and e.fn == fn


def test_no_implicit_multiplication():
    with pytest.raises(ExprSyntaxError):
        parse("2u")


def test_unknown_identifier_offset():
    with pytest.raises(UnknownIdentifier) as err:
        parse("1+bogus")
    assert err.value.offset == 2


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("1+*2")
    assert err.value.offset == 2


def test_unbalanced_paren():
    with pytest.raises(ExprSyntaxError):
        parse("(1+u")


def test_empty_input():
    with pytest.raises(ExprSyntaxError):
        parse("")


def test_utf8_byte_offset():
    # a two-byte character before the bad token shifts the byte offset
    with pytest.raises(ExprSyntaxError) as err:
        parse("1+é")  # 'é' encodes to 2 bytes, sits at byte 2
    assert err.value.offset == 2
    with pytest.raises(ExprSyntaxError) as err2:
        parse("éé+1")  # bad char at byte 0; next one would be 2
    assert err2.value.offset == 0


# nesting bound: the deepest input of each shape parses, one level more
# is an ExprSyntaxError at the token that opens it

LAW = "1/(1+u^2)"  # height 3; its exponent sits two levels deep


def parens(k):
    return "(" * k + LAW + ")" * k


def long_sum(n):
    return LAW + "+0*u" * n


def minus_signs(k):
    return "-" * k + "u"


@pytest.mark.parametrize("shape, at_bound, beyond_offset", [
    (parens, MAX_DEPTH - 2, MAX_DEPTH + 6),  # the exponent 2
    (long_sum, MAX_DEPTH - 3, len(long_sum(MAX_DEPTH - 3))),  # the last +
    (minus_signs, MAX_DEPTH, MAX_DEPTH + 1),  # the u
])
def test_nesting_bound(shape, at_bound, beyond_offset):
    e = parse(shape(at_bound))
    d = eval2(e, 0.5)
    grid, failure = eval_prefix(e, [0.0, 0.5])
    assert failure is None and float(grid.value[1]) == d.value
    assert parse(shape(at_bound)) == e
    assert hash(parse(shape(at_bound))) == hash(e)
    assert parse(format_expr(e)) == e and repr(e)
    with pytest.raises(ExprSyntaxError) as err:
        parse(shape(at_bound + 1))
    assert err.value.offset == beyond_offset
    assert f"nested deeper than {MAX_DEPTH} levels" in str(err.value)


# frozen dual values

def test_eval2_newton_at_1():
    v, d1, d2 = ev("1/(1+u^2)", 1.0)
    assert v == pytest.approx(0.5, abs=1e-15)
    assert d1 == pytest.approx(-0.5, abs=1e-15)
    assert d2 == pytest.approx(0.5, abs=1e-15)


def test_eval2_identity():
    v, d1, d2 = ev("u", 3.7)
    assert (v, d1, d2) == (3.7, 1.0, 0.0)


def test_eval2_ln():
    v, d1, d2 = ev("ln(u)", 1.0)
    assert v == 0.0
    assert d1 == pytest.approx(1.0, abs=1e-15)
    assert d2 == pytest.approx(-1.0, abs=1e-15)


def test_eval2_exp_chain():
    v, d1, d2 = ev("exp(-u^2)", 1.0)
    assert v == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert d1 == pytest.approx(-2.0 * math.exp(-1.0), rel=1e-14)
    assert d2 == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)


def test_eval2_sqrt():
    v, d1, d2 = ev("sqrt(u)", 4.0)
    assert v == 2.0
    assert d1 == pytest.approx(0.25, rel=1e-15)
    assert d2 == pytest.approx(-1.0 / 32.0, rel=1e-14)


# (text, u, where, reason): one row per kind of DomainError; where is the
# innermost failing subexpression as format_expr prints it
DOMAIN_ERRORS = (
    ("1+ln(u-1)", 0.5, "ln(u-1.0)", "log of non-positive value"),
    ("ln(u)", 0.0, "ln(u)", "log of non-positive value"),
    ("sqrt(u)", -1.0, "sqrt(u)", "sqrt of negative value"),
    ("sqrt(u*u)", 0.0, "sqrt(u*u)", "derivative unbounded at sqrt(0)"),
    ("1/u", 0.0, "1.0/u", "division by zero"),
    ("u^0", 0.0, "u^0.0", "0^0"),
    ("u^-1", 0.0, "u^-1.0", "zero base with negative exponent"),
    ("u^0.5", 0.0, "u^0.5", "derivative unbounded at zero base"),
    ("u^0.5", -2.0, "u^0.5", "negative base with non-integer exponent"),
    ("(0-u)^(1e999-1e999)", 1.0, "(0.0-u)^(1e999-1e999)",
     "negative base with non-integer exponent"),
    ("u^(1e999-1e999)", 0.0, "u^(1e999-1e999)", "zero base with NaN exponent"),
    ("u^u", -1.0, "u^u", "variable exponent needs positive base"),
    ("exp(u)", 1000.0, "exp(u)", "overflow"),
    ("(0-u)^1e999", 1.0, "(0.0-u)^1e999", "overflow"),
    ("(0-u)^(0-1e999)", 1.0, "(0.0-u)^(0.0-1e999)", "overflow"),
    ("u*1e308*10", 1.0, "u*1e+308*10.0", "non-finite result"),
)


def test_domain_errors():
    """eval2 raises each; a grid walk stops at the same point with it."""
    for text, u, where, reason in DOMAIN_ERRORS:
        expected = (u, where, f"undefined at u={u!r} in {where} ({reason})")
        with pytest.raises(DomainError) as err:
            ev(text, u)
        assert (err.value.u, err.value.where, str(err.value)) == expected, text
        d, grid_err = eval_prefix(parse(text), [u, u + 1.0])
        assert d.value.size == 0, text
        assert (grid_err.u, grid_err.where, str(grid_err)) == expected, text


# (text, u, (value, d1, d2)): the points where a rule's scalar branch
# returns a value, which a grid hands to eval2
SPECIAL_VALUES = (
    ("u^1", 0.0, (0.0, 1.0, 0.0)),
    ("u^2", 0.0, (0.0, 0.0, 2.0)),
    ("u^3", 0.0, (0.0, 0.0, 0.0)),
    ("(0-u)^3", 1.0, (-1.0, -3.0, -6.0)),
    ("(0-u)^-2", 1.0, (1.0, -2.0, 6.0)),
    ("sqrt(u-u)", 1.0, (0.0, 0.0, 0.0)),
    ("abs(u)", 0.0, (0.0, 0.0, 0.0)),
)


def test_special_values():
    """eval2 returns the closed form; a grid returns the same bits."""
    for text, u, expected in SPECIAL_VALUES:
        d = eval2(parse(text), u)
        assert tuple(d) == expected, text
        grid, err = eval_prefix(parse(text), [u, u + 1.0])
        assert err is None, text
        assert ([float.hex(float(x[0])) for x in grid]
                == [float.hex(x) for x in d]), text


# (text, u, where): a derivative denominator such as v*v underflows to 0
# at u.  eval2 raises there; a grid, which marks no such point itself,
# divides by 0 into a second derivative that no later rule makes finite
# again, so its final finite check hands the point to eval2
UNDERFLOWS = (
    ("ln(u)", 1e-200, "ln(u)"),
    ("ln(u)*0", 1e-200, "ln(u)"),
    ("1/ln(u)", 1e-200, "ln(u)"),
    ("exp(0-ln(u))", 1e-200, "ln(u)"),
    ("u^3", 1e-200, "u^3.0"),
    ("u^u", 1e-200, "u^u"),
    ("sqrt(u)", 1e-320, "sqrt(u)"),
)


def test_underflowed_denominators_reach_eval2():
    for text, u, where in UNDERFLOWS:
        with pytest.raises(DomainError) as err:
            eval2(parse(text), u)
        assert (err.value.where, str(err.value)) == (
            where, f"undefined at u={u!r} in {where} (overflow)"), text
        grid, grid_err = eval_prefix(parse(text), [u, u + 1.0])
        assert grid.value.size == 0, text
        assert str(grid_err) == str(err.value), text


def test_abs_kink():
    v, d1, _ = ev("abs(u)", -3.0)
    assert v == 3.0 and d1 == -1.0
    v0, d10, _ = ev("abs(u)", 0.0)
    assert v0 == 0.0 and d10 == 0.0


def test_dual2_arithmetic_identities():
    a = Dual2(2.0, 1.0, 0.0)
    sq = a * a
    assert sq.value == 4.0 and sq.d1 == 4.0 and sq.d2 == 2.0
    quot = Dual2(1.0, 0.0, 0.0) / a
    assert quot.value == 0.5
    assert quot.d1 == pytest.approx(-0.25, rel=1e-15)
    assert quot.d2 == pytest.approx(0.25, rel=1e-15)


def _random_expr(rng, depth):
    """Random AST inside the parser's image (no negative literals)."""
    if depth == 0 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.45:
            return Num(round(rng.uniform(0.1, 3.0), 3))
        if choice < 0.85:
            return Var()
        return Const(rng.choice(("pi", "e")))
    kind = rng.random()
    if kind < 0.55:
        op = rng.choice("+-*/")
        left = _random_expr(rng, depth - 1)
        right = _random_expr(rng, depth - 1)
        return Bin(op, left, right)
    if kind < 0.7:
        return Neg(_random_expr(rng, depth - 1))
    if kind < 0.85:
        exponent = rng.choice((2.0, 3.0, 0.5, -1.0, -2.0))
        node = Num(abs(exponent))
        if exponent < 0.0:
            node = Neg(node)
        return Bin("^", _random_expr(rng, depth - 1), node)
    return Call(rng.choice(("exp", "ln", "sqrt", "abs")),
                _random_expr(rng, depth - 1))


def test_print_parse_round_trip():
    rng = random.Random(20260816)
    for _ in range(300):
        e = _random_expr(rng, 4)
        text = format_expr(e)
        assert parse(text) == e


# a law that parses prints as text that parses: the fully parenthesized
# form of these two nested past MAX_DEPTH
DEEP_LAWS = ("-" * 100 + "u", "1/(1+u^2)" + "+0*u" * 157)


@settings(max_examples=300, deadline=None)
@given(e=exprs)
@example(e=parse(DEEP_LAWS[0]))
@example(e=parse(DEEP_LAWS[1]))
@example(e=parse("1e999"))
def test_print_parse_round_trip_property(e):
    assert parse(format_expr(e)) == e


def test_eval_total_or_domain_error():
    """Evaluation either returns finite floats or raises DomainError.

    Tiny and huge u make derivative denominators such as v*v underflow
    to 0 or powers overflow.
    """
    rng = random.Random(7)
    hits = 0
    for _ in range(500):
        e = _random_expr(rng, 4)
        for u in (rng.uniform(0.01, 5.0), 1e-300, 1e-200, 1e200, 1e300):
            try:
                d = eval2(e, u)
            except DomainError:
                continue
            hits += 1
            assert math.isfinite(d.value)
            assert math.isfinite(d.d1)
            assert math.isfinite(d.d2)
    assert hits > 200


def test_eval_deterministic():
    e = parse("exp(-u^2)/(1+u^2)+sqrt(u)")
    a = eval2(e, 1.7)
    b = eval2(e, 1.7)
    assert a == b


_MP_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": operator.pow}
_MP_FUNCTIONS = {"ln": mpmath.log, "exp": mpmath.exp, "sqrt": mpmath.sqrt,
                 "abs": abs}


class _NearSingularity(Exception):
    """An operand within 1e-9 of 0 where its operation is singular.

    That is abs's kink, the domain edge of sqrt and ln, a pole of / or of
    a negative power, or the branch point of a fractional power.  There
    a double's rounding of the operand can move the value or its
    derivatives by O(1) against the exact tree, so no comparison of
    derivatives measures eval2.
    """


def _near_zero(a):
    if abs(a) < 1e-9:
        raise _NearSingularity
    return a


def _mp_eval(e, u):
    """e at the mpf u, every operation in the working precision."""
    if isinstance(e, Num):
        return mpmath.mpf(e.value)
    if isinstance(e, Const):
        return mpmath.mpf(_CONSTANTS[e.name])
    if isinstance(e, Var):
        return u
    if isinstance(e, Neg):
        return -_mp_eval(e.arg, u)
    if isinstance(e, Call):
        a = _mp_eval(e.arg, u)
        return _MP_FUNCTIONS[e.fn](a if e.fn == "exp" else _near_zero(a))
    a, b = _mp_eval(e.left, u), _mp_eval(e.right, u)
    if e.op == "/" or (e.op == "^" and not (b >= 0 and b == int(b))):
        _near_zero(b if e.op == "/" else a)
    return _MP_OPS[e.op](a, b)


def _fd_check(e, u):
    """Dual derivatives vs 50-digit derivatives of the same tree.

    mpmath differentiates a 50-digit walk of the AST, so the reference
    is exact far below the bounds, which measure eval2's own rounding.
    Raises _NearSingularity where the comparison is not meaningful.
    """
    d = eval2(e, u)
    with mpmath.workdps(50):
        f = lambda x: _mp_eval(e, x)
        ref1 = float(mpmath.diff(f, mpmath.mpf(u)))
        ref2 = float(mpmath.diff(f, mpmath.mpf(u), 2))
    assert abs(d.d1 - ref1) <= 1e-6 * max(abs(d.d1), abs(ref1), 1.0), \
        f"{format_expr(e)} at {u}: d1 {d.d1!r}, reference {ref1!r}"
    assert abs(d.d2 - ref2) <= 1e-4 * max(abs(d.d2), abs(ref2), 1.0), \
        f"{format_expr(e)} at {u}: d2 {d.d2!r}, reference {ref2!r}"


def test_finite_difference_agreement():
    rng = random.Random(99)
    checked = 0
    while checked < 200:
        e = _random_expr(rng, 3)
        u = rng.uniform(0.05, 4.0)
        try:
            eval2(e, u)
            _fd_check(e, u)
        except (DomainError, _NearSingularity):
            continue
        checked += 1


@settings(max_examples=300, deadline=None)
@given(e=smooth_exprs, u=st.floats(min_value=0.05, max_value=4.0))
@example(e=parse("((-pi)+((-(u^3.0))+(-(pi^3.0))))"), u=0.05)
def test_finite_difference_agreement_property(e, u):
    try:
        eval2(e, u)
        _fd_check(e, u)
    except (DomainError, _NearSingularity):
        assume(False)
