"""Certification oracles: pointwise maximality, brute-force DP, quadrature."""

import pytest

from minres.body import Linear, ProblemSpec, Profile
from minres.errors import InfeasibleGrid, InvalidParameter
from minres.oracle import brute_force, check_maximality, resistance_quadrature
from minres.planar import solve2d
from minres.pressure import make_builtin, make_expr, make_zero
from minres.spatial import solve_spatial


def example_pair_spec(T, H, d=2):
    return ProblemSpec(d=d, T=T, H=H,
                       p_plus=make_expr("1/(1+u^2)+0.5"),
                       p_minus=make_expr("0.5/(1+u^2)-0.5"))


def parallel_spec(d, T, H):
    return ProblemSpec(d=d, T=T, H=H,
                       p_plus=make_builtin(1.0, 0.0), p_minus=make_zero())


def test_maximality_passes_on_solved_planar():
    for H in (1.0, 2.0, 4.0, 6.0):
        spec = example_pair_spec(2.0, H)
        sol = solve2d(spec)
        rep = check_maximality(spec, "front", sol.front, sol.lambda_plus)
        assert rep.passed, (H, rep.worst_violation)
        rep_rear = check_maximality(spec, "rear", sol.rear,
                                    sol.lambda_minus)
        assert rep_rear.passed


def test_maximality_passes_on_solved_spatial():
    spec = parallel_spec(3, 1.0, 1.0845482255552044)
    sol = solve_spatial(spec)
    rep = check_maximality(spec, "front", sol.front, sol.lambda_plus)
    assert rep.passed, rep.worst_violation


def test_maximality_rejects_wrong_multiplier():
    spec = example_pair_spec(2.0, 4.0)
    sol = solve2d(spec)
    rep = check_maximality(spec, "front", sol.front,
                           sol.lambda_plus * 1.2)
    assert not rep.passed
    assert rep.worst_violation > 1e-6
    # the flat cap stops being optimal when lambda grows: witness at u > 0
    assert rep.witness_u > 0.0


def test_maximality_rejects_perturbed_profile():
    """A 10% slope change on a segment leaves the extremal family."""
    spec = example_pair_spec(2.0, 2.0)
    sol = solve2d(spec)
    bad = Profile(T=2.0, segments=(Linear(0.0, 1.0, 0.9),
                                   Linear(1.0, 2.0, 1.1)), beta=2.0)
    rep = check_maximality(spec, "front", bad, sol.lambda_plus)
    assert not rep.passed
    assert rep.witness_t is not None and rep.witness_u is not None


def test_maximality_needs_positive_multiplier():
    spec = example_pair_spec(2.0, 2.0)
    sol = solve2d(spec)
    with pytest.raises(InvalidParameter):
        check_maximality(spec, "front", sol.front, 0.0)
    with pytest.raises(InvalidParameter):
        check_maximality(spec, "front", sol.front, -1.0)


def test_brute_force_planar_within_tolerance():
    for H in (1.0, 4.0, 6.0):
        spec = example_pair_spec(2.0, H)
        sol = solve2d(spec)
        res = brute_force(spec, "front", sol.beta_plus)
        assert res.gap <= 0.01 * abs(sol.R_total)
        assert res.gap >= -1e-9 * max(1.0, abs(res.analytic_value))


def test_brute_force_zero_height_is_exact():
    spec = example_pair_spec(2.0, 1.0)
    res = brute_force(spec, "rear", 0.0)
    assert res.gap == 0.0
    assert res.best_value == res.analytic_value


def test_brute_force_spatial_within_tolerance():
    spec = parallel_spec(3, 1.0, 0.55)
    sol = solve_spatial(spec)
    res = brute_force(spec, "front", sol.beta_plus)
    assert res.gap <= 0.01 * abs(sol.R_total)
    assert res.gap >= 0.0  # DP profiles are a strict subset here


def test_brute_force_gap_shrinks_with_grid():
    spec = parallel_spec(3, 1.0, 0.55)
    sol = solve_spatial(spec)
    g1 = brute_force(spec, "front", sol.beta_plus, 200, 400).gap
    g2 = brute_force(spec, "front", sol.beta_plus, 400, 800).gap
    assert g2 <= g1 + 1e-12


def test_brute_force_best_profile_is_feasible():
    spec = example_pair_spec(2.0, 4.0)
    sol = solve2d(spec)
    n_cells = 100
    res = brute_force(spec, "front", sol.beta_plus, n_cells, 200)
    slopes = res.best_profile
    assert len(slopes) == n_cells
    assert all(u >= 0.0 for u in slopes)
    dt = 2.0 / n_cells
    total_rise = sum(u * dt for u in slopes)
    assert total_rise == pytest.approx(sol.beta_plus, rel=1e-9)
    # the slope tuple evaluates to its reported value under the exact
    # piecewise-linear integrator
    segs = tuple(Linear(k * dt, (k + 1) * dt, u)
                 for k, u in enumerate(slopes))
    prof = Profile(T=2.0, segments=segs, beta=total_rise)
    direct = resistance_quadrature(spec, "front", prof)
    assert direct == pytest.approx(res.best_value, rel=1e-9)


def test_brute_force_grid_limits():
    spec = example_pair_spec(2.0, 4.0)
    with pytest.raises(InvalidParameter):
        brute_force(spec, "front", 4.0, 4000, 400)  # beyond desk scale
    with pytest.raises(InfeasibleGrid):
        # one height step of 4 in a cell of 0.001 needs slope 4000; cap is 8
        brute_force(spec, "front", 4.0, 2000, 1)


def test_quadrature_exact_on_linear_segments():
    """Piecewise-linear profiles integrate in closed form: equality."""
    for H in (1.0, 4.0, 6.0):
        spec = example_pair_spec(2.0, H)
        sol = solve2d(spec)
        r_front = resistance_quadrature(spec, "front", sol.front)
        r_rear = resistance_quadrature(spec, "rear", sol.rear)
        assert r_front + r_rear == pytest.approx(sol.R_total, rel=1e-12)


def test_quadrature_zero_law():
    spec = parallel_spec(2, 2.0, 1.0)
    sol = solve2d(spec)
    assert resistance_quadrature(spec, "rear", sol.rear) == 0.0


def test_quadrature_on_arcs_matches_analytic():
    spec = parallel_spec(3, 1.0, 1.0845482255552044)
    sol = solve_spatial(spec, n_samples=2048)
    r = resistance_quadrature(spec, "front", sol.front)
    assert r == pytest.approx(0.34647228391116736, rel=1e-8)


def test_quadrature_respects_ball_volume_flag():
    import math
    spec = ProblemSpec(d=3, T=1.0, H=1.0845482255552044,
                       p_plus=make_builtin(1.0, 0.0), p_minus=make_zero(),
                       include_ball_volume=True)
    sol = solve_spatial(spec, n_samples=2048)
    r = resistance_quadrature(spec, "front", sol.front)
    assert r == pytest.approx(math.pi * 0.34647228391116736, rel=1e-8)
