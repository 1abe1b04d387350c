"""Critical slopes and ratios for single laws and front/rear pairs."""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from minres.criticals import (critical_values, pair_criticals, relaxed_p,
                              slope_at_multiplier)
from minres.errors import (AssumptionViolated, InvalidParameter, NotUnimodal)
from minres.pressure import make_builtin, make_expr, make_zero


NEWTON_UBAR = 3.0 ** -0.5


def test_newton_reference_values():
    cv = critical_values(make_builtin(1.0, 0.0))
    assert cv.u_bar == pytest.approx(NEWTON_UBAR, abs=1e-9)
    assert cv.u0 == pytest.approx(1.0, abs=1e-9)
    assert cv.B == pytest.approx(0.5, abs=1e-9)


def test_offset_does_not_move_criticals():
    cv = critical_values(make_expr("1/(1+u^2)+0.5"))
    assert cv.u0 == pytest.approx(1.0, abs=1e-9)
    assert cv.B == pytest.approx(0.5, abs=1e-9)


def test_rear_law_of_example_pair():
    cv = critical_values(make_expr("0.5/(1+u^2)-0.5"))
    assert cv.u0 == pytest.approx(1.0, abs=1e-9)
    assert cv.B == pytest.approx(0.25, abs=1e-9)


def test_scaled_families_keep_u0():
    """(p(0)-p(u))/u scales linearly, so u0 is scale/offset invariant."""
    rng = random.Random(11)
    for _ in range(20):
        scale = rng.uniform(0.1, 5.0)
        offset = rng.uniform(-2.0, 2.0)
        cv = critical_values(make_builtin(scale, offset))
        assert cv.u0 == pytest.approx(1.0, rel=1e-9)
        assert cv.B == pytest.approx(scale / 2.0, rel=1e-9)
        assert cv.u_bar == pytest.approx(NEWTON_UBAR, rel=1e-7)


def test_u0_attains_supremum():
    """No sampled slope beats the reported ratio."""
    m = make_builtin(1.0, 0.0)
    cv = critical_values(m)
    p0 = m.p(0.0)
    best = (p0 - m.p(cv.u0)) / cv.u0
    for k in range(1, 2000):
        u = 0.005 * k
        assert (p0 - m.p(u)) / u <= best + 1e-12
    assert best == pytest.approx(cv.B, abs=1e-12)


def test_b_matches_slope_at_u0():
    m = make_expr("1/(1+u^2)+0.5")
    cv = critical_values(m)
    assert -m.dp(cv.u0) == pytest.approx(cv.B, rel=1e-9)


def test_u_bar_below_u0():
    cv = critical_values(make_builtin(2.0, 1.0))
    assert cv.u_bar < cv.u0


def test_relaxed_pressure_values():
    m = make_builtin(1.0, 0.0)
    cv = critical_values(m)
    # linear section: p(0) - B u
    assert relaxed_p(m, cv, 0.5) == pytest.approx(0.75, abs=1e-9)
    # beyond u0 the raw law takes over
    assert relaxed_p(m, cv, 2.0) == pytest.approx(0.2, abs=1e-12)
    # continuous at the junction
    assert relaxed_p(m, cv, cv.u0) == pytest.approx(m.p(cv.u0), abs=1e-9)


def test_relaxed_rejects_negative_slope():
    m = make_builtin(1.0, 0.0)
    cv = critical_values(m)
    with pytest.raises(InvalidParameter):
        relaxed_p(m, cv, -0.1)


def test_relaxed_is_convex_minorant():
    m = make_expr("1/(1+u^2)+0.5")
    cv = critical_values(m)
    for k in range(1, 400):
        u = 0.01 * k
        assert relaxed_p(m, cv, u) <= m.p(u) + 1e-12


def test_pair_criticals_example():
    pc = pair_criticals(make_expr("1/(1+u^2)+0.5"),
                        make_expr("0.5/(1+u^2)-0.5"), 2)
    assert pc.plus.B == pytest.approx(0.5, abs=1e-9)
    assert pc.minus.B == pytest.approx(0.25, abs=1e-9)
    assert pc.u_star == pytest.approx(1.608465371420134, abs=1e-9)
    assert pc.h_star is None  # planar pairs carry no spatial threshold


def test_u_star_against_bisection():
    """u* solves p+'(u) = -B- ; check with an independent bisection."""
    pp = make_expr("1/(1+u^2)+0.5")
    pc = pair_criticals(pp, make_expr("0.5/(1+u^2)-0.5"), 2)
    target = -pc.minus.B

    def f(u):
        return pp.dp(u) - target

    lo, hi = pc.plus.u0, 50.0
    assert f(lo) < 0.0 < f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    assert pc.u_star == pytest.approx(0.5 * (lo + hi), abs=1e-9)


def test_pair_with_zero_rear():
    pc = pair_criticals(make_builtin(1.0, 0.0), make_zero(), 2)
    assert pc.minus.B == 0.0
    assert pc.minus.u0 == math.inf
    assert pc.u_star == math.inf


def test_pair_spatial_threshold():
    pc = pair_criticals(make_expr("1/(1+u^2)+0.5"),
                        make_expr("0.5/(1+u^2)-0.5"), 3)
    assert pc.h_star == pytest.approx(0.672741408002381, abs=1e-9)


def test_pair_zero_rear_spatial_threshold_infinite():
    pc = pair_criticals(make_builtin(1.0, 0.0), make_zero(), 3)
    assert pc.h_star == math.inf


def test_swapped_pair_rejected():
    """Front must dominate: B+ > B- and p+' < p-' on u > 0."""
    with pytest.raises(AssumptionViolated):
        pair_criticals(make_expr("0.5/(1+u^2)-0.5"),
                       make_expr("1/(1+u^2)+0.5"), 2)


def test_front_zero_rejected():
    with pytest.raises(InvalidParameter):
        pair_criticals(make_zero(), make_zero(), 2)


def test_two_hump_law_not_unimodal():
    """Two superposed laws at very different slope scales give the drop
    ratio (p(0)-p(u))/u twin peaks near u=1 and u=100."""
    law = make_expr("1/(1+u^2)+40/(1+(u/100)^2)")
    with pytest.raises(NotUnimodal):
        critical_values(law)


def test_criticals_match_closed_forms():
    """Over s in [0.5, 2] and o in [-1, 1], every spelling of the Newton
    family s/(1+u^2)+o gives u0 = 1, B = s/2, u_bar = 1/sqrt(3), and
    s/(1+u^4)+o gives u0 = 3^(1/4), B = s 3^(3/4)/4, u_bar = (3/5)^(1/4),
    all within the 1e-12 root tolerance; prints the worst error of each."""
    worst = {}

    @settings(max_examples=40, deadline=None)
    @given(s=st.floats(min_value=0.5, max_value=2.0),
           o=st.floats(min_value=-1.0, max_value=1.0))
    @example(s=1.0, o=0.0)
    def check(s, o):
        newton = (1.0, s / 2.0, NEWTON_UBAR)
        quartic = (3.0 ** 0.25, s * 3.0 ** 0.75 / 4.0, 0.6 ** 0.25)
        laws = [(make_builtin(s, o), newton)] + [
            (make_expr(text.format(s=repr(s), o=repr(o))), want)
            for text, want in (("{s}/(1+u^2)+{o}", newton),
                               ("{s}/(u*u+1)+{o}", newton),
                               ("{s}*(1+u^2)^-1+{o}", newton),
                               ("{s}/(1+u^4)+{o}", quartic))]
        for model, want in laws:
            cv = critical_values(model)
            for name, got, ref in zip(("u0", "B", "u_bar"),
                                      (cv.u0, cv.B, cv.u_bar), want):
                err = abs(got - ref)
                worst[name] = max(worst.get(name, 0.0), err)
                assert err <= 1e-12, (model.describe(), name, got, ref)

    check()
    for name, err in worst.items():
        print(f"closed-form {name}: worst error {err:.2e}")


@pytest.mark.parametrize("model, root", [
    (make_builtin(1.0, 0.0), 1.00000000000097),
    (make_expr("1/(1+u^4)"), 1.3160740129530737)])
def test_slope_at_multiplier_up_to_B(model, root):
    """-p'(u0) falls short of B by the stationarity residual r > 0; for
    a multiplier in [B - r, B] no slope above u0 has p' = -mu, and the
    slope is u0 itself.  Just below B - r the root above u0 is found."""
    cv = critical_values(model)
    r = model.dp(cv.u0) + cv.B
    assert r > 0.0
    for mu in (cv.B, cv.B - r / 2.0, -model.dp(cv.u0)):
        assert slope_at_multiplier(model, cv, mu) == cv.u0
    assert slope_at_multiplier(model, cv, cv.B * (1.0 - 1e-12)) == root
