"""Higher-dimensional solver: quadrature kernel, height inversion, splits."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from minres import solve
from minres.body import BodySolution, ProblemSpec, flat_profile, split_height
from minres.criticals import critical_values, pair_criticals
from minres.errors import AssumptionViolated, InvalidParameter
from minres.pressure import make_builtin, make_expr, make_zero
from minres.spatial import (GTable, extremal_from_U, resistance_branch,
                            solve_height_for_U, solve_spatial)

B3_OF_2 = 1.0845482255552044  # height of the d=3 classical body with U=2
R3_OF_2 = 0.34647228391116736


def newton_gtable(d):
    model = make_builtin(1.0, 0.0)
    return GTable(model=model, cv=critical_values(model), d=d)


def g3_closed(u):
    """d=3 kernel for the classical law, valid for u >= 1."""
    return 2.0 + 0.5 * (math.log(u) + u * u - 1.0 + (u ** 4 - 1.0) / 4.0)


def g4_closed(u):
    return math.sqrt(2.0) * (5.0 * math.sqrt(u) + u ** 2.5 - 1.0) / 5.0


def test_g_linear_below_u0():
    gt = newton_gtable(3)
    # relaxed law is linear with |slope| B on [0, u0]: g = u / B
    assert gt.g(0.5) == pytest.approx(1.0, rel=1e-12)
    assert gt.g(1.0) == pytest.approx(2.0, rel=1e-10)


def test_g_matches_closed_form_d3():
    gt = newton_gtable(3)
    for u in (1.0, 1.5, 2.0, 3.0, 5.0):
        assert gt.g(u) == pytest.approx(g3_closed(u), rel=1e-10)


def test_g_matches_closed_form_d4():
    gt = newton_gtable(4)
    for u in (1.0, 1.5, 2.0, 3.0, 5.0):
        assert gt.g(u) == pytest.approx(g4_closed(u), rel=1e-10)


def test_b_vanishes_on_flat_branch():
    gt = newton_gtable(3)
    assert gt.b(0.3) == 0.0
    assert gt.b(1.0) == pytest.approx(0.0, abs=1e-9)


def test_b_is_increasing():
    gt = newton_gtable(3)
    us = [1.0 + 0.25 * k for k in range(17)]
    vals = [gt.b(u) for u in us]
    for a, b in zip(vals, vals[1:]):
        assert b > a


def test_height_inversion_round_trip():
    gt = newton_gtable(3)
    assert gt.b(2.0) == pytest.approx(B3_OF_2, rel=1e-10)
    ex = solve_height_for_U(gt, B3_OF_2, T=1.0)
    assert ex.U == pytest.approx(2.0, rel=1e-9)


def test_height_inversion_rejects_nonpositive_curvature():
    """A bump near u = 3 makes p'' <= 0 on about [2.7, 3.5] and keeps the
    drop rate unimodal.  b' = omega |p'|^(omega-1) p'' g stops rising
    there, so no height whose bracket reaches it is solved."""
    law = make_expr("1/(1+u^2)+0.05*exp(0-(u-3)^2)")
    cv = critical_values(law)
    gt = GTable(model=law, cv=cv, d=3)
    assert solve_height_for_U(gt, 1.0).U < 2.0
    with pytest.raises(AssumptionViolated) as err:
        solve_height_for_U(gt, 2.0)
    u = err.value.witness
    assert cv.u0 < u < 3.5 and law.d2p(u) <= 0.0
    assert str(err.value) == f"law curvature not positive at u={u:g}"
    with pytest.raises(AssumptionViolated):
        solve(ProblemSpec(d=3, T=1.0, H=2.0, p_plus=law, p_minus=make_zero()))


def test_terminal_slope_discontinuity():
    """The profile leaves the flat cap at slope u0, never below."""
    gt = newton_gtable(3)
    ex = extremal_from_U(gt, 1.5, 1.0)
    u_first, t_first, x_first = ex.samples[0]
    assert u_first == pytest.approx(1.0, rel=1e-9)  # u jumps to u0
    assert t_first == pytest.approx(ex.t0, rel=1e-12)
    assert x_first == 0.0


def test_resistance_frozen_value_d3():
    gt = newton_gtable(3)
    ex = extremal_from_U(gt, 2.0, 1.0)
    assert resistance_branch(gt, ex.U, 1.0) == pytest.approx(R3_OF_2,
                                                              rel=1e-10)


def test_flat_body_resistance():
    gt = newton_gtable(3)
    ex = extremal_from_U(gt, 1.0, 1.0)  # U = u0: zero height, flat disk
    assert resistance_branch(gt, ex.U, 1.0) == pytest.approx(1.0, rel=1e-9)


def test_extremal_samples_on_curve():
    """Sampled (t, x, u) triples satisfy the stationarity relations."""
    gt = newton_gtable(3)
    model = gt.model
    ex = extremal_from_U(gt, 2.0, 1.0)
    lam = ex.lam
    for u, t, x in ex.samples[1:]:
        # radius where slope u is optimal: t |p'(u)| = lam  (d = 3)
        assert t * abs(model.dp(u)) == pytest.approx(lam, rel=1e-7)
    us = [s[0] for s in ex.samples]
    ts = [s[1] for s in ex.samples]
    xs = [s[2] for s in ex.samples]
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert all(b > a for a, b in zip(xs, xs[1:]))
    assert all(b > a for a, b in zip(us, us[1:]))
    # x accumulates integral of u dt (trapezoid cross-check; its own
    # discretization error dominates, so sample densely)
    fine = extremal_from_U(gt, 2.0, 1.0, n_samples=2048)
    acc = 0.0
    prev_u, prev_t, _ = fine.samples[0]
    for u, t, _ in fine.samples[1:]:
        acc += 0.5 * (u + prev_u) * (t - prev_t)
        prev_u, prev_t = u, t
    assert acc == pytest.approx(fine.beta, rel=1e-5)


def test_solve_parallel_d3_classical():
    spec = ProblemSpec(d=3, T=1.0, H=B3_OF_2,
                       p_plus=make_builtin(1.0, 0.0), p_minus=make_zero())
    sol = solve_spatial(spec)
    assert sol.case_label == "Spatial"
    assert sol.U_plus == pytest.approx(2.0, rel=1e-9)
    assert sol.R_total == pytest.approx(R3_OF_2, rel=1e-9)
    assert sol.R_minus == 0.0
    assert sol.beta_minus == 0.0


def test_solve_flat_disk_spatial():
    spec = ProblemSpec(d=3, T=1.0, H=0.0,
                       p_plus=make_builtin(1.0, 0.0), p_minus=make_zero())
    sol = solve_spatial(spec)
    assert sol.case_label == "FlatDisk"
    assert sol.R_total == pytest.approx(1.0, rel=1e-12)


def pair_spec(d, T, H):
    return ProblemSpec(d=d, T=T, H=H,
                       p_plus=make_expr("1/(1+u^2)+0.5"),
                       p_minus=make_expr("0.5/(1+u^2)-0.5"))


def test_pair_below_threshold_has_flat_rear():
    pc = pair_criticals(make_expr("1/(1+u^2)+0.5"),
                        make_expr("0.5/(1+u^2)-0.5"), 3)
    spec = pair_spec(3, 1.0, 0.9 * pc.h_star)
    sol = solve_spatial(spec)
    assert sol.beta_minus == 0.0
    assert sol.beta_plus == pytest.approx(spec.H, abs=1e-12)
    assert sol.U_minus is None


def test_pair_above_threshold_splits():
    pc = pair_criticals(make_expr("1/(1+u^2)+0.5"),
                        make_expr("0.5/(1+u^2)-0.5"), 3)
    spec = pair_spec(3, 1.0, 0.8)
    assert spec.H > pc.h_star
    sol = solve_spatial(spec)
    assert sol.beta_minus > 0.0
    assert sol.beta_plus + sol.beta_minus == pytest.approx(0.8, abs=1e-9)
    # split stationarity: terminal slopes balance the two laws
    dpp = spec.p_plus.dp(sol.U_plus)
    dpm = spec.p_minus.dp(sol.U_minus)
    assert dpp == pytest.approx(dpm, abs=1e-9)


def test_split_is_locally_optimal():
    """Moving height between front and rear never helps."""
    spec = pair_spec(3, 1.0, 0.8)
    sol = solve_spatial(spec)
    pc = pair_criticals(spec.p_plus, spec.p_minus, 3)
    gtp = GTable(model=spec.p_plus, cv=pc.plus, d=3)
    gtm = GTable(model=spec.p_minus, cv=pc.minus, d=3)

    def total(beta_m):
        exp = solve_height_for_U(gtp, spec.H - beta_m, 1.0)
        exm = solve_height_for_U(gtm, beta_m, 1.0)
        return (resistance_branch(gtp, exp.U, 1.0)
                + resistance_branch(gtm, exm.U, 1.0))

    base = total(sol.beta_minus)
    assert base == pytest.approx(sol.R_total, rel=1e-9)
    for eps in (-1e-3, 1e-3):
        assert total(sol.beta_minus + eps) >= base - 1e-9


def test_split_does_not_invert_the_rear_height(monkeypatch):
    """The split root is bracketed from u0 of the rear directly; no rear
    height inversion runs to find its upper end."""
    import minres.spatial as spatial
    laws = []
    real = spatial._invert_height
    monkeypatch.setattr(spatial, "_invert_height",
                        lambda gt, h: laws.append(gt.model) or real(gt, h))
    spec = pair_spec(3, 1.0, 0.8)
    sol = solve_spatial(spec)
    assert sol.beta_minus > 0.0
    assert not any(law is spec.p_minus for law in laws)


def test_swapped_pair_rejected_spatially():
    spec = ProblemSpec(d=3, T=1.0, H=0.5,
                       p_plus=make_expr("0.5/(1+u^2)-0.5"),
                       p_minus=make_expr("1/(1+u^2)+0.5"))
    with pytest.raises(AssumptionViolated):
        solve_spatial(spec)


def test_scaling_law_d3():
    base = solve_spatial(pair_spec(3, 1.0, 0.8))
    for k in (0.5, 3.0):
        scaled = solve_spatial(pair_spec(3, k, 0.8 * k))
        assert scaled.R_total == pytest.approx(k * k * base.R_total,
                                               rel=1e-8)


def test_scaling_law_d4():
    spec = ProblemSpec(d=4, T=1.0, H=0.45,
                       p_plus=make_builtin(1.0, 0.0), p_minus=make_zero())
    base = solve_spatial(spec)
    for k in (0.5, 3.0):
        s2 = ProblemSpec(d=4, T=k, H=0.45 * k,
                         p_plus=make_builtin(1.0, 0.0), p_minus=make_zero())
        scaled = solve_spatial(s2)
        assert scaled.R_total == pytest.approx(k ** 3 * base.R_total,
                                               rel=1e-8)


def test_resistance_decreases_with_height_d3():
    values = []
    for H in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.5):
        values.append(solve_spatial(pair_spec(3, 1.0, H)).R_total)
    for a, b in zip(values, values[1:]):
        assert b < a


def test_ball_volume_factor():
    spec = ProblemSpec(d=3, T=1.0, H=B3_OF_2,
                       p_plus=make_builtin(1.0, 0.0), p_minus=make_zero(),
                       include_ball_volume=True)
    sol = solve_spatial(spec)
    assert sol.R_total == pytest.approx(math.pi * R3_OF_2, rel=1e-9)


# the acceptance pair 1/(1+u^2)+0.5 over 0.5/(1+u^2)-0.5, as builtin laws
BUILTIN_PAIR = (make_builtin(1.0, 0.5), make_builtin(0.5, -0.5))


@settings(max_examples=100, deadline=None)
@given(d=st.sampled_from((3, 4)), h=st.floats(min_value=0.7, max_value=5.0))
def test_split_heights_sum_exactly_to_H(d, h):
    spec = ProblemSpec(d=d, T=1.0, H=h, p_plus=BUILTIN_PAIR[0],
                       p_minus=BUILTIN_PAIR[1])
    sol = solve_spatial(spec)
    assert sol.beta_minus > 0.0  # above h_star: the rear is curved
    assert sol.beta_plus + sol.beta_minus == h


@settings(max_examples=1000, deadline=None)
@given(H=st.floats(min_value=1e-300, max_value=1e300),
       frac=st.floats(min_value=0.0, max_value=1.0))
def test_split_height_is_exact(H, frac):
    first, rest = split_height(H, H * frac)
    assert first + rest == H
    assert rest == H - first


def test_body_solution_rejects_inexact_split():
    spec = ProblemSpec(d=3, T=1.0, H=0.3, p_plus=make_builtin(1.0, 0.0),
                       p_minus=make_zero())
    with pytest.raises(InvalidParameter):
        BodySolution(spec=spec, case_label="Spatial", front=flat_profile(1.0),
                     rear=flat_profile(1.0), beta_plus=0.2, beta_minus=0.1,
                     lambda_plus=1.0, lambda_minus=None, R_plus=1.0,
                     R_minus=0.0, R_total=1.0)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n_samples", [-1, 0, 1, 2])
def test_solve_rejects_too_few_samples(d, n_samples):
    spec = ProblemSpec(d=d, T=1.0, H=0.5, p_plus=make_builtin(1.0, 0.0),
                       p_minus=make_zero())
    with pytest.raises(InvalidParameter):
        solve(spec, n_samples=n_samples)


@pytest.mark.parametrize("n_samples", [-1, 0, 1, 2])
def test_spatial_entry_points_reject_too_few_samples(n_samples):
    """Called directly, the d >= 3 entry points refuse to build a short arc.

    An arc built from one sample is empty: solve_spatial would then
    report the flat disk's R_total=1.0 for this curved body (0.6075...).
    """
    gt = newton_gtable(3)
    spec = ProblemSpec(d=3, T=1.0, H=0.5, p_plus=make_builtin(1.0, 0.0),
                       p_minus=make_zero())
    with pytest.raises(InvalidParameter):
        extremal_from_U(gt, 2.0, 1.0, n_samples=n_samples)
    with pytest.raises(InvalidParameter):
        solve_height_for_U(gt, 0.5, 1.0, n_samples=n_samples)
    with pytest.raises(InvalidParameter):
        solve_spatial(spec, n_samples=n_samples)


def test_solve_accepts_three_samples():
    spec = ProblemSpec(d=3, T=1.0, H=0.5, p_plus=make_builtin(1.0, 0.0),
                       p_minus=make_zero())
    sol = solve(spec, n_samples=3)
    assert sol.R_total == pytest.approx(0.6075072718146134, rel=1e-12)
