"""Closed-form classical bodies (d = 3, 4) against the generic solver."""

import math

import pytest

from minres.body import ProblemSpec
from minres.classical import newton3, newton4
from minres.criticals import critical_values
from minres.oracle import resistance_quadrature
from minres.pressure import make_builtin, make_zero
from minres.spatial import GTable, extremal_from_U, solve_spatial


def spec_for(d, T, H):
    return ProblemSpec(d=d, T=T, H=H,
                       p_plus=make_builtin(1.0, 0.0), p_minus=make_zero())


def gtable(d):
    model = make_builtin(1.0, 0.0)
    return GTable(model=model, cv=critical_values(model), d=d)


def test_newton3_frozen_values():
    c = newton3(1.0, 2.0)
    assert c.beta == pytest.approx(1.0845482255552044, rel=1e-12)
    assert c.beta == pytest.approx((114.0 - 8.0 * math.log(2.0)) / 100.0,
                                   rel=1e-12)
    assert c.lam == pytest.approx(0.16, rel=1e-12)
    assert c.t0 == pytest.approx(0.32, rel=1e-12)
    assert c.R_plus == pytest.approx(0.34647228391116736, rel=1e-12)


def test_newton4_frozen_values():
    c = newton4(1.0, 2.0)
    assert c.beta == pytest.approx(0.6731370849898477, rel=1e-12)
    assert c.R_plus == pytest.approx(0.4122980664016244, rel=1e-12)
    c4 = newton4(1.0, 4.0)
    assert c4.beta == pytest.approx(176.0 / 85.0, rel=1e-12)


def test_flat_body_identity():
    """U = 1 collapses the curved span: R must equal p(0) T^{d-1}."""
    for T in (1.0, 2.0, 0.5):
        assert abs(newton3(T, 1.0).R_plus - T ** 2) <= 1e-10
        assert abs(newton4(T, 1.0).R_plus - T ** 3) <= 1e-10
        assert newton3(T, 1.0).beta == pytest.approx(0.0, abs=1e-12)
        assert newton4(T, 1.0).beta == pytest.approx(0.0, abs=1e-12)


def test_rejected_closed_forms_fail_identity():
    """Two previously circulated closed forms break the flat-body
    identity R(U=1) = p(0) T^{d-1}; the shipped forms satisfy it.  Kept
    here as rejected errata so nobody reintroduces them."""
    T, U = 1.0, 1.0
    s = 1.0 + U * U
    # rejected d=3 form: doubled denominator
    bad3 = T ** 2 * (17 * U**2 + 2 + 10 * U**4 + 3 * U**6
                     + 4 * math.log(U) * U**2) / (4.0 * s ** 4)
    assert abs(bad3 - 1.0) > 0.4
    # rejected d=4 form: wrong expression, even the T power is off
    bad4 = T ** 2 * (1 + 3 * U**2) / (2.0 * s ** 2)
    assert abs(bad4 - 1.0) > 0.4
    assert abs(newton3(T, U).R_plus - 1.0) <= 1e-10
    assert abs(newton4(T, U).R_plus - 1.0) <= 1e-10


def test_shipped_forms_match_quadrature_everywhere():
    """The identity alone can't pin a formula; quadrature at several U
    does (see test_quadrature_certifies_resistance for the sweep)."""
    c = newton3(1.0, 1.5)
    sol = solve_spatial(spec_for(3, 1.0, c.beta), n_samples=2048)
    assert resistance_quadrature(sol.spec, "front", sol.front) == \
        pytest.approx(c.R_plus, rel=1e-8)


def test_d3_matches_generic_solver():
    for U in (1.5, 2.0, 3.0):
        c = newton3(1.0, U)
        sol = solve_spatial(spec_for(3, 1.0, c.beta))
        assert sol.U_plus == pytest.approx(U, rel=1e-9)
        assert sol.lambda_plus == pytest.approx(c.lam, rel=1e-9)
        assert sol.R_total == pytest.approx(c.R_plus, rel=1e-9)


def test_d4_matches_generic_solver():
    for U in (1.5, 2.0, 4.0):
        c = newton4(1.0, U)
        sol = solve_spatial(spec_for(4, 1.0, c.beta))
        assert sol.U_plus == pytest.approx(U, rel=1e-9)
        assert sol.lambda_plus == pytest.approx(c.lam, rel=1e-9)
        assert sol.R_total == pytest.approx(c.R_plus, rel=1e-9)


@pytest.mark.parametrize("closed, d", [(newton3, 3), (newton4, 4)])
@pytest.mark.parametrize("U", [32.0, 64.0, 200.0])
def test_tall_bodies_match_closed_forms(closed, d, U):
    """g(U) reaches ~2e6 at U = 64 in d = 3, where its rounding alone
    exceeds the 1e-11 quadrature tolerance; the solve still succeeds."""
    c = closed(1.0, U)
    sol = solve_spatial(spec_for(d, 1.0, c.beta))
    assert sol.R_total == pytest.approx(c.R_plus, rel=1e-12, abs=0.0)
    assert sol.U_plus == pytest.approx(U, rel=1e-12, abs=0.0)


def test_parametric_curve_matches_generic_samples():
    """Generic extremal samples land on the closed-form (t(u), x(u))."""
    for d, closed in ((3, newton3), (4, newton4)):
        c = closed(1.0, 2.0)
        profile = extremal_from_U(gtable(d), 2.0, 1.0, n_samples=64)[0]
        cap, arc = profile.segments
        assert cap.t_to == pytest.approx(c.t0, rel=1e-10)
        for t, x, u in arc.samples:
            assert t == pytest.approx(c.t_of_u(u), rel=1e-8)
            assert x == pytest.approx(c.x_of_u(u), rel=1e-8, abs=1e-10)


def test_quadrature_certifies_resistance():
    """Independent quadrature over the solved profile hits the closed form."""
    for d, closed in ((3, newton3), (4, newton4)):
        for U in (1.0, 1.5, 2.0, 4.0):
            c = closed(1.0, U)
            sol = solve_spatial(spec_for(d, 1.0, c.beta), n_samples=2048)
            r = resistance_quadrature(sol.spec, "front", sol.front)
            assert r == pytest.approx(c.R_plus, rel=1e-8)


def test_scaling_in_T():
    base3 = newton3(1.0, 2.0)
    scaled3 = newton3(2.0, 2.0)
    assert scaled3.R_plus == pytest.approx(4.0 * base3.R_plus, rel=1e-12)
    assert scaled3.beta == pytest.approx(2.0 * base3.beta, rel=1e-12)
    base4 = newton4(1.0, 2.0)
    scaled4 = newton4(3.0, 2.0)
    assert scaled4.R_plus == pytest.approx(27.0 * base4.R_plus, rel=1e-12)
