"""Planar (d=2) solver: case taxonomy, frozen solutions, optimality."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from minres.body import (DOUBLE_TRIANGLE, FLAT_DISK, FRONT_TRAPEZIUM,
                         FRONT_TRIANGLE, TRIANGLE_OVER_TRAPEZIUM, Linear,
                         ProblemSpec, Profile)
from minres.oracle import resistance_quadrature
from minres.planar import classify2d, solve2d
from minres.pressure import make_builtin, make_expr, make_zero


def example_pair_spec(T, H):
    return ProblemSpec(d=2, T=T, H=H,
                       p_plus=make_expr("1/(1+u^2)+0.5"),
                       p_minus=make_expr("0.5/(1+u^2)-0.5"))


def parallel_spec(T, H):
    return ProblemSpec(d=2, T=T, H=H,
                       p_plus=make_builtin(1.0, 0.0),
                       p_minus=make_zero())


def body_resistance(spec, front, rear):
    return (resistance_quadrature(spec, "front", front)
            + resistance_quadrature(spec, "rear", rear))


def test_case_taxonomy():
    expected = {0.0: FLAT_DISK, 1.0: FRONT_TRAPEZIUM, 2.0: FRONT_TRIANGLE,
                4.0: TRIANGLE_OVER_TRAPEZIUM, 6.0: DOUBLE_TRIANGLE}
    for H, label in expected.items():
        assert classify2d(example_pair_spec(2.0, H)) == label


def test_classification_boundaries():
    # u0+ = 1, u* = 1.6085, u* + u0- = 2.6085, all for T = 1
    assert classify2d(example_pair_spec(1.0, 0.999)) == FRONT_TRAPEZIUM
    assert classify2d(example_pair_spec(1.0, 1.0)) == FRONT_TRIANGLE
    assert classify2d(example_pair_spec(1.0, 1.60846)) == FRONT_TRIANGLE
    assert classify2d(example_pair_spec(1.0, 1.609)) == TRIANGLE_OVER_TRAPEZIUM
    assert classify2d(example_pair_spec(1.0, 2.608)) == TRIANGLE_OVER_TRAPEZIUM
    assert classify2d(example_pair_spec(1.0, 2.609)) == DOUBLE_TRIANGLE


def test_flat_disk():
    sol = solve2d(example_pair_spec(2.0, 0.0))
    assert sol.case_label == FLAT_DISK
    assert sol.R_total == pytest.approx(3.0, abs=1e-12)  # T(p+(0)+p-(0))
    assert sol.beta_plus == 0.0 and sol.beta_minus == 0.0


def test_front_trapezium_frozen():
    sol = solve2d(example_pair_spec(2.0, 1.0))
    assert sol.case_label == FRONT_TRAPEZIUM
    assert sol.R_total == pytest.approx(2.5, abs=1e-9)
    assert sol.beta_plus == pytest.approx(1.0) and sol.beta_minus == 0.0
    assert sol.lambda_plus == pytest.approx(0.5, abs=1e-9)
    # flat cap of radius T - H/u0 = 1, then slope u0
    assert sol.front.slope_at(0.5) == 0.0
    assert sol.front.slope_at(1.5) == pytest.approx(1.0, abs=1e-9)


def test_front_triangle_frozen():
    sol = solve2d(example_pair_spec(2.0, 2.0))
    assert sol.case_label == FRONT_TRIANGLE
    # pure cone of slope 1: R = T p+bar(1) = 2 (1.5 - 0.5)
    assert sol.R_total == pytest.approx(2.0, abs=1e-9)
    assert sol.front.slope_at(1.0) == pytest.approx(1.0)
    assert sol.lambda_plus == pytest.approx(0.5, abs=1e-9)


def test_triangle_over_trapezium_frozen():
    sol = solve2d(example_pair_spec(2.0, 4.0))
    assert sol.case_label == TRIANGLE_OVER_TRAPEZIUM
    u_star = 1.608465371420134
    assert sol.beta_plus == pytest.approx(2.0 * u_star, abs=1e-8)
    assert sol.beta_minus == pytest.approx(4.0 - 2.0 * u_star, abs=1e-8)
    # both multipliers collapse onto B- at the threshold slope
    assert sol.lambda_plus == pytest.approx(0.25, abs=1e-8)
    assert sol.lambda_minus == pytest.approx(0.25, abs=1e-9)
    assert sol.R_total == pytest.approx(1.3617766830499913, abs=1e-9)


def test_double_triangle_frozen():
    sol = solve2d(example_pair_spec(2.0, 6.0))
    assert sol.case_label == DOUBLE_TRIANGLE
    # split balances the slopes of the two laws
    z_front = sol.beta_plus / 2.0
    z_rear = sol.beta_minus / 2.0
    pp = sol.spec.p_plus
    pm = sol.spec.p_minus
    assert pp.dp(z_front) == pytest.approx(pm.dp(z_rear), abs=1e-9)
    assert sol.beta_plus + sol.beta_minus == pytest.approx(6.0, abs=1e-12)
    assert sol.R_total == pytest.approx(0.8815304301101334, abs=1e-9)
    assert sol.lambda_plus == pytest.approx(sol.lambda_minus, abs=1e-9)


def test_parallel_flux_rear_is_free():
    sol = solve2d(parallel_spec(2.0, 3.0))
    assert sol.R_minus == 0.0
    assert sol.lambda_minus is None
    assert sol.beta_minus == 0.0
    assert sol.beta_plus == pytest.approx(3.0)


def test_beta_split_adds_to_height():
    for H in (0.5, 1.0, 2.5, 4.0, 5.5, 7.0):
        sol = solve2d(example_pair_spec(2.0, H))
        assert sol.beta_plus + sol.beta_minus == pytest.approx(H, abs=1e-9)
        assert sol.beta_minus >= 0.0


def test_resistance_continuous_across_boundaries():
    """R(H) should be continuous through the case transitions."""
    u_star = 1.608465371420134
    for H_boundary in (2.0, 2.0 * u_star, 2.0 * (u_star + 1.0)):
        lo = solve2d(example_pair_spec(2.0, H_boundary - 1e-7))
        hi = solve2d(example_pair_spec(2.0, H_boundary + 1e-7))
        assert lo.R_total == pytest.approx(hi.R_total, abs=1e-5)


def test_resistance_decreases_with_height():
    values = [solve2d(example_pair_spec(2.0, H)).R_total
              for H in (0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0)]
    for a, b in zip(values, values[1:]):
        assert b < a + 1e-12


def test_scaling_law():
    base = solve2d(example_pair_spec(2.0, 3.0))
    for k in (0.5, 3.0):
        scaled = solve2d(example_pair_spec(2.0 * k, 3.0 * k))
        assert scaled.R_total == pytest.approx(k * base.R_total, rel=1e-9)
        assert scaled.case_label == base.case_label


def _random_competitor(rng, T, beta, n_max=6):
    """Random monotone piecewise-linear profile of total rise beta."""
    n = rng.randint(1, n_max)
    cuts = sorted(rng.uniform(0.0, T) for _ in range(n - 1))
    ts = [0.0] + cuts + [T]
    weights = [rng.random() for _ in range(n)]
    wsum = sum(weights) or 1.0
    segs = []
    for (a, b), w in zip(zip(ts, ts[1:]), weights):
        if b <= a:
            continue
        rise = beta * w / wsum
        segs.append(Linear(a, b, rise / (b - a)))
    # adjust final segment so the rises sum exactly to beta
    total = sum(s.slope * (s.t_to - s.t_from) for s in segs)
    last = segs[-1]
    fix = (beta - total) / (last.t_to - last.t_from)
    segs[-1] = Linear(last.t_from, last.t_to, max(last.slope + fix, 0.0))
    return Profile(T=T, segments=tuple(segs),
                   beta=sum(s.slope * (s.t_to - s.t_from) for s in segs))


def test_no_competitor_beats_solver():
    """400 random admissible bodies never undercut the analytic optimum."""
    rng = random.Random(314159)
    for H in (1.0, 2.0, 4.0, 6.0):
        spec = example_pair_spec(2.0, H)
        sol = solve2d(spec)
        for _ in range(100):
            split = rng.uniform(0.0, H)
            front = _random_competitor(rng, 2.0, split)
            rear = _random_competitor(rng, 2.0, H - split)
            r = body_resistance(spec, front, rear)
            assert r >= sol.R_total - 1e-9, (H, split, r, sol.R_total)


def test_solver_profile_reproduces_resistance():
    """Quadrature over the returned profiles matches the closed form."""
    for H in (1.0, 2.0, 4.0, 6.0):
        spec = example_pair_spec(2.0, H)
        sol = solve2d(spec)
        r = body_resistance(spec, sol.front, sol.rear)
        assert r == pytest.approx(sol.R_total, rel=1e-12)


def test_profiles_are_convex_and_tiled():
    for H in (0.0, 1.0, 2.0, 4.0, 6.0):
        sol = solve2d(example_pair_spec(2.0, H))
        for prof in (sol.front, sol.rear):
            assert prof.is_convex()
            assert prof.x_at(0.0) == pytest.approx(0.0, abs=1e-12)
        assert sol.front.x_at(2.0) == pytest.approx(sol.beta_plus, abs=1e-9)
        assert sol.rear.x_at(2.0) == pytest.approx(sol.beta_minus, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(T=st.floats(min_value=0.1, max_value=10.0),
       h=st.floats(min_value=1.61, max_value=50.0))
def test_split_heights_sum_exactly_to_H(T, h):
    H = T * h
    spec = ProblemSpec(d=2, T=T, H=H, p_plus=make_builtin(1.0, 0.5),
                       p_minus=make_builtin(0.5, -0.5))
    sol = solve2d(spec)
    assert sol.case_label in (TRIANGLE_OVER_TRAPEZIUM, DOUBLE_TRIANGLE)
    assert sol.beta_plus + sol.beta_minus == H


@pytest.mark.xfail(strict=True, reason="critical_values finds the drop "
                   "rate's first peak (u0 = 0.896), not its narrow "
                   "higher one near u = 1.1055; minres verify certifies "
                   "this body")
def test_a_narrow_second_peak_of_the_drop_rate_is_not_missed():
    """A narrow bump on 1/(1+u^2) raises the drop rate (p(0) - p(u))/u
    to 0.4969685 near u = 1.1055 (200,001-point grid on [0.3, 3]),
    above the solver's B = 0.4962628 at u0 = 0.896.  A flat cap then
    slope 1.1055 then beats the solved body, 0.7515158 < 0.7518686.
    Nothing flags it: the doubling scan of critical_values sees one
    peak, the 256-point maximality grid steps over the band where the
    drop rate exceeds lambda, the brute-force gap of 0.00423 is under
    its 1% tolerance, and validate passes the law."""
    spec = ProblemSpec(d=2, T=1.0, H=0.5,
                       p_plus=make_expr("1/(1+u^2)+0.05*exp(0-(20*(u-1))^2)"),
                       p_minus=make_zero())
    sol = solve2d(spec)
    u = 1.1055
    knee = 1.0 - spec.H / u
    rival = Profile(T=1.0, segments=(Linear(0.0, knee, 0.0),
                                     Linear(knee, 1.0, u)), beta=spec.H)
    assert sol.R_total <= resistance_quadrature(spec, "front", rival)
