"""Certification oracles: pointwise maximality, brute-force DP, quadrature."""

import math
import warnings

import numpy as np
import pytest

from minres import solve
from minres.body import Linear, ParamArc, ProblemSpec, Profile, flat_profile
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


def test_profile_with_nan_slope_is_rejected():
    """NaN compares false, so the tiling and maximality checks cannot
    see it; the profile refuses it when built."""
    spec = ProblemSpec(d=2, T=2.0, H=4.0, p_plus=make_builtin(1.0, 0.5),
                       p_minus=make_builtin(0.5, -0.5))
    with pytest.raises(InvalidParameter):
        check_maximality(spec, "front",
                         Profile(T=2.0, segments=(Linear(0.0, 2.0, math.nan),),
                                 beta=4.0), 0.3)


@pytest.mark.parametrize("bad", [
    dict(T=math.inf), dict(beta=math.nan),
    dict(segments=(Linear(0.0, math.nan, 0.0),)),
    dict(segments=(ParamArc(samples=((0.0, 0.0, 1.0), (0.5, math.nan, 1.5),
                                      (1.0, 1.0, 2.0))),), beta=1.0),
])
def test_profile_rejects_non_finite_values(bad):
    kwargs = dict(T=1.0, segments=(Linear(0.0, 1.0, 0.0),), beta=0.0)
    kwargs.update(bad)
    with pytest.raises(InvalidParameter):
        Profile(**kwargs)


def test_analytic_branch_value_samples_no_arc(monkeypatch):
    """brute_force's analytic value inverts the height and integrates the
    resistance directly; it builds no sampled arc."""
    import minres.spatial as spatial
    calls = []
    real = spatial.extremal_from_U
    monkeypatch.setattr(spatial, "extremal_from_U",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    spec = example_pair_spec(1.0, 0.8, d=3)
    res = brute_force(spec, "front", 0.7, n_cells=20, n_heights=40)
    assert res.analytic_value > 0.0
    assert calls == []


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


def _maximality_loop(spec, branch, profile, lam, n_t, n_u):
    """Reference: the scan one t at a time, as check_maximality once ran."""
    model = spec.p_plus if branch == "front" else spec.p_minus
    T, d = spec.T, spec.d
    u_max = 4.0 * max(1.0, profile.max_slope())
    u_grid = np.concatenate(([0.0], np.geomspace(u_max * 1e-6, u_max,
                                                 n_u - 1)))
    p_vals = model.eval_many(u_grid)[0]
    t_grid = T * (np.arange(1, n_t + 1) / n_t)
    slopes = profile.sample(t_grid)[1]
    p_prof = model.eval_many(slopes)[0]
    worst, wit_t, wit_u, scale = -math.inf, 0.0, 0.0, 1.0
    for t, slope, p in zip(t_grid.tolist(), slopes.tolist(), p_prof.tolist()):
        w = t ** (d - 2)
        with np.errstate(over="ignore", invalid="ignore"):
            h_grid = w * p_vals + lam * u_grid
        k = int(np.argmin(h_grid))
        h_prof = w * p + lam * slope
        if np.isfinite(h_grid).all() and math.isfinite(h_prof):
            scale = max(scale, 1.0 + float(np.max(np.abs(h_grid))))
            violation = h_prof - float(h_grid[k])
        else:  # a row that cannot be compared fails at its own t
            violation = math.inf
        if violation > worst:
            worst, wit_t, wit_u = violation, t, float(u_grid[k])
    return worst, wit_t, wit_u, scale, 1e-8 * scale


def _maximality_cases():
    for d, H in ((2, 1.0), (2, 6.0), (3, 0.4), (3, 0.8), (4, 0.5)):
        sol = solve(example_pair_spec(2.0 if d == 2 else 1.0, H, d))
        yield sol.spec, "front", sol.front, sol.lambda_plus
        yield sol.spec, "rear", sol.rear, sol.lambda_minus
    sol = solve(parallel_spec(3, 1.0, 0.55))
    yield sol.spec, "front", sol.front, sol.lambda_plus
    # w p = -inf meets lam u = +inf: rows of h_t holding nan
    spec = ProblemSpec(d=4, T=1e100, H=1e100,
                       p_plus=make_builtin(1e200, -1e300), p_minus=make_zero())
    line = Profile(T=1e100, segments=(Linear(0.0, 1e100, 1.0),), beta=1e100)
    yield spec, "front", line, 1e308


def test_maximality_scan_matches_the_loop_bit_for_bit():
    for spec, branch, profile, lam in _maximality_cases():
        for n_t, n_u in ((64, 256), (7, 9)):
            for m in (1.0, 1.05):
                rep = check_maximality(spec, branch, profile, lam * m,
                                       n_t=n_t, n_u=n_u)
                got = (rep.worst_violation, rep.witness_t, rep.witness_u,
                       rep.scale, rep.threshold)
                want = _maximality_loop(spec, branch, profile, lam * m,
                                        n_t, n_u)
                assert [x.hex() for x in got] == [x.hex() for x in want]


def test_maximality_fails_where_h_t_overflows():
    """w p = -inf meets lam u = +inf, so every row of the scan is nan: the
    check must fail at the first such t, not pass with no row counted,
    and must not warn."""
    spec = ProblemSpec(d=4, T=1e100, H=1e100,
                       p_plus=make_builtin(1e200, -1e300), p_minus=make_zero())
    line = Profile(T=1e100, segments=(Linear(0.0, 1e100, 1.0),), beta=1e100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_maximality(spec, "front", line, 1e308)
    assert not rep.passed
    assert rep.worst_violation == math.inf
    assert rep.witness_t == 1e100 / 64  # the first sampled radius
    assert math.isfinite(rep.threshold)


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


@pytest.mark.parametrize("counts", [
    dict(n_cells=20.0), dict(n_heights=40.5), dict(n_cells=math.nan)])
def test_brute_force_rejects_non_integer_counts(counts):
    spec = example_pair_spec(2.0, 4.0)
    with pytest.raises(InvalidParameter, match="must be an integer"):
        brute_force(spec, "front", 4.0, **counts)


@pytest.mark.parametrize("counts", [
    dict(n_t=64.0), dict(n_u=256.5), dict(n_t=math.nan)])
def test_maximality_rejects_non_integer_counts(counts):
    spec = example_pair_spec(2.0, 2.0)
    sol = solve2d(spec)
    with pytest.raises(InvalidParameter, match="must be an integer"):
        check_maximality(spec, "front", sol.front, sol.lambda_plus, **counts)


def test_oracles_accept_numpy_integer_counts():
    spec = example_pair_spec(2.0, 4.0)
    sol = solve2d(spec)
    grid = dict(n_cells=np.int64(20), n_heights=np.int32(40))
    assert (brute_force(spec, "front", sol.beta_plus, **grid).best_value
            == brute_force(spec, "front", sol.beta_plus, 20, 40).best_value)
    assert check_maximality(spec, "front", sol.front, sol.lambda_plus,
                            n_t=np.int64(16), n_u=np.uint16(32)) == \
        check_maximality(spec, "front", sol.front, sol.lambda_plus, 16, 32)
    with pytest.raises(InvalidParameter, match=r"^need n_t >= 2"):
        check_maximality(spec, "front", sol.front, sol.lambda_plus,
                         n_t=np.int64(1))
    with pytest.raises(InvalidParameter,
                       match=r"^grid dimensions must be in \[1, 2000\]$"):
        brute_force(spec, "front", 4.0, np.int64(0), 40)


def test_brute_force_rejects_an_overflowing_radius_power():
    """T**(d-1) overflows: an input error, not a raw OverflowError."""
    with pytest.raises(InvalidParameter, match=r"T\*\*2 overflows"):
        brute_force(parallel_spec(3, 1e200, 1.0), "front", 1.0, n_cells=10,
                    n_heights=10)


def test_quadrature_rejects_an_overflowing_radius_power():
    with pytest.raises(InvalidParameter, match=r"T\*\*2 overflows"):
        resistance_quadrature(parallel_spec(3, 1e200, 1.0), "front",
                              flat_profile(1e200))


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


@pytest.mark.parametrize("d", (2, 3, 4))
@pytest.mark.parametrize("n", (1000, 4000))
def test_quadrature_exact_on_a_straight_arc_with_a_leftover_interval(d, n):
    """An even sample count leaves one interval outside the Simpson pairs.

    On a straight arc the integrand p(u) (d-1) t^(d-2) is a polynomial of
    degree d-2 <= 2 in t, so the rule is exact and only rounding remains.
    """
    slope, t_start, T = 0.7, 1.0, 2.0
    ts = np.linspace(t_start, T, n)
    arc = ParamArc(tuple((t, slope * (t - t_start), slope) for t in ts))
    profile = Profile(T, (Linear(0.0, t_start, 0.0), arc),
                      slope * (T - t_start))
    spec = parallel_spec(d, T, slope * (T - t_start))
    p = spec.p_plus.p
    exact = spec.resistance_factor * (
        p(0.0) * t_start ** (d - 1)
        + p(slope) * (T ** (d - 1) - t_start ** (d - 1)))
    r = resistance_quadrature(spec, "front", profile)
    assert r == pytest.approx(exact, rel=1e-13, abs=0.0)


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
