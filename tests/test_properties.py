"""Solver properties over the builtin family newton:s,o with a zero rear.

Each example solves a few bodies in d = 2, 3 or 4 and checks a property
the paper's solution must have for every instance, not just the frozen
acceptance matrix:

* scaling: R(kT, kH) = k^(d-1) R(T, H), to criterion 7's 1e-8;
* R_total is nonincreasing in H (at fixed T);
* the solved front passes the sampled maximality check;
* in d = 3, 4, with a zero or newton:k*s,o2 rear, every branch with a
  multiplier passes it too, and independent quadrature of each sampled
  branch agrees with its analytic resistance to 1e-8 relative;
* in d = 3, 4, also under a newton:k*s,o2 rear with k < 1, the front
  profile's height stays within BodySolution's bound of beta_plus.

The offset stays nonnegative, so p > 0 and R_total is bounded away from
zero, which keeps the relative scaling error meaningful.
"""

from hypothesis import example, given, settings, strategies as st

from minres import check_maximality, resistance_quadrature, solve
from minres.body import ProblemSpec
from minres.criticals import critical_values
from minres.pressure import make_builtin, make_zero
from minres.spatial import GTable

dims = st.sampled_from((2, 3, 4))
scales = st.floats(min_value=0.25, max_value=4.0)
offsets = st.floats(min_value=0.0, max_value=1.0)
radii = st.floats(min_value=0.25, max_value=4.0)
aspects = st.floats(min_value=0.0, max_value=3.0)  # h = H/T
rear_scales = st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=0.9))


def _solve(d, s, o, T, H):
    return solve(ProblemSpec(d=d, T=T, H=H, p_plus=make_builtin(s, o),
                             p_minus=make_zero()))


def _pair_spec(d, s, o, T, h, k, o2):
    p_minus = make_zero() if k == 0.0 else make_builtin(k * s, o2)
    return ProblemSpec(d=d, T=T, H=h * T, p_plus=make_builtin(s, o),
                       p_minus=p_minus)


@settings(max_examples=60, deadline=None)
@given(d=dims, s=scales, o=offsets, T=radii, h=aspects,
       k=st.floats(min_value=0.1, max_value=10.0))
def test_resistance_scales_with_the_body(d, s, o, T, h, k):
    base = _solve(d, s, o, T, h * T).R_total
    scaled = _solve(d, s, o, k * T, k * h * T).R_total
    expect = k ** (d - 1) * base
    assert abs(scaled - expect) <= 1e-8 * abs(expect)


@settings(max_examples=60, deadline=None)
@given(d=dims, s=scales, o=offsets, T=radii, h1=aspects, h2=aspects)
def test_resistance_nonincreasing_in_height(d, s, o, T, h1, h2):
    lo, hi = sorted((h1, h2))
    assert _solve(d, s, o, T, hi * T).R_total <= _solve(d, s, o, T,
                                                          lo * T).R_total


@settings(max_examples=60, deadline=None)
@given(d=dims, s=scales, o=offsets, T=radii, h=aspects)
@example(d=3, s=1.0, o=0.0, T=1.0, h=3.0)
def test_front_passes_maximality(d, s, o, T, h):
    sol = _solve(d, s, o, T, h * T)
    assert sol.lambda_minus is None  # a zero rear carries no multiplier
    rep = check_maximality(sol.spec, "front", sol.front, sol.lambda_plus)
    assert rep.passed, rep


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from((3, 4)), s=scales, o=offsets, T=radii,
       h=st.floats(min_value=0.05, max_value=3.0), k=rear_scales, o2=offsets)
@example(d=3, s=1.0, o=0.0, T=1.0, h=3.0, k=0.0, o2=0.0)
def test_sampled_arcs_pass_both_oracles(d, s, o, T, h, k, o2):
    sol = solve(_pair_spec(d, s, o, T, h, k, o2))
    for branch, profile, lam, R in (
            ("front", sol.front, sol.lambda_plus, sol.R_plus),
            ("rear", sol.rear, sol.lambda_minus, sol.R_minus)):
        if lam is not None:
            rep = check_maximality(sol.spec, branch, profile, lam)
            assert rep.passed, (branch, rep)
        r = resistance_quadrature(sol.spec, branch, profile)
        assert abs(r - R) <= 1e-8 * R, (branch, r, R)


_EPS = 2.220446049250313e-16


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from((3, 4)), s=scales, o=offsets, T=radii,
       h=st.floats(min_value=0.05, max_value=3.0),
       k=rear_scales, o2=offsets)
def test_front_height_within_documented_bound(d, s, o, T, h, k, o2):
    sol = solve(_pair_spec(d, s, o, T, h, k, o2))
    p_plus, p_minus = sol.spec.p_plus, sol.spec.p_minus
    gt = GTable(p_plus, critical_values(p_plus), d)
    U, omega = sol.U_plus, gt.omega
    ap = abs(p_plus.dp(U))
    b_prime = omega * ap ** (omega - 1.0) * p_plus.d2p(U) * gt.g(U)
    delta = 1e-12 + 4.0 * _EPS * U
    g_terms = ap ** omega
    if sol.U_minus is not None:
        g_terms += abs(p_minus.dp(sol.U_minus)) ** omega
    bound = T * (b_prime * delta + 1e-11 * g_terms) + 2.0 * _EPS * sol.spec.H
    assert abs(sol.front.beta - sol.beta_plus) <= bound
    assert abs(sol.rear.beta - sol.beta_minus) <= _EPS * sol.spec.H
