"""The envelope identity: the height multiplier is the price of height.

The optimal resistance R*(H) at fixed T has dR*/dH = -(d-1) f lambda_plus,
with f the resistance factor; on a split both branches share the
multiplier.  The case thresholds (u0 T, u* T and (u* + u0-) T in d = 2,
h* T in d >= 3) change the shape of the body but not this derivative,
so R* is C^1 across them.

Each example solves three bodies, at H - e, H and H + e with e = 1e-5 H,
and checks the solver's R_total against its own lambda_plus with no
reference values:

* sandwich: the optimum minimizes a convex functional (the relaxed law)
  under the linear constraint x(T) = H, so R* is convex in H and
  lambda_plus nonincreasing.  By the mean value theorem each one-sided
  quotient over [a, b] lies in [-c lambda(a), -c lambda(b)], c = (d-1) f,
  thresholds included;
* central: where no threshold lies in [H - e, H + e], lambda is convex or
  concave there, and by Hermite-Hadamard the central quotient is within
  c |(lambda(H-e) + lambda(H+e))/2 - lambda(H)| of -c lambda(H).

The tolerances come from the solver's documented errors, not from a fit:

* each R_total is the optimum at the height its body reaches,
  front.beta + rear.beta, which the root solves leave within
  BodySolution's bound of H, so R carries c lambda |reach - H|; and it
  carries a rounding of 64 eps |R|, the floor adaptive_simpson accepts;
* lambda_plus = T^(d-2) |p_plus'(U_plus)| carries the root tolerance of
  U_plus, 1e-12 + 4 eps U_plus, times T^(d-2) |p_plus''(U_plus)|, and
  critical_values' stationarity residual of 1e-9 lambda (a body with a
  capped rear prices its height at B_minus through p_plus'(u*) =
  p_minus'(u0-)).
"""

import pytest
from hypothesis import given, settings, strategies as st

from minres import solve
from minres.body import ProblemSpec
from minres.criticals import pair_criticals
from minres.pressure import make_builtin, make_expr, make_zero

_EPS = 2.0 ** -52
_XTOL = 1e-12  # numerics.bracket_root's absolute abscissa tolerance
_STEP = 1e-5  # e / H


def _laws(kind, s, o, k, o2):
    """A front/rear pair: builtin newton:s,o over newton:k*s,o2, or the
    expression s/(1+u^2)+o over k*s*exp(-u^2); k = 0 is a zero rear."""
    if kind == "builtin":
        return (make_builtin(s, o),
                make_zero() if k == 0.0 else make_builtin(k * s, o2))
    return (make_expr(f"{s!r}/(1+u^2)+{o!r}"),
            make_zero() if k == 0.0 else make_expr(f"{k * s!r}*exp(0-u^2)"))


def _thresholds(d, T, p_plus, p_minus):
    pc = pair_criticals(p_plus, p_minus, d)
    hs = ((pc.plus.u0, pc.u_star, pc.u_star + pc.minus.u0) if d == 2
          else (pc.h_star,))
    return [T * h for h in hs if h < float("inf")]


def _lambda_error(sol):
    lam, U = sol.lambda_plus, sol.U_plus
    err = 1e-9 * lam
    if U is not None:
        err += (sol.spec.T ** (sol.spec.d - 2) * abs(sol.spec.p_plus.d2p(U))
                * (_XTOL + 4.0 * _EPS * U))
    return err


def envelope_failures(d, T, H, p_plus, p_minus, thresholds,
                      lam_scale=1.0):
    """The checks of the identity at H that fail, as (name, excess)
    with excess > 0; lam_scale multiplies every reported lambda_plus."""
    e = _STEP * H
    sols = [solve(ProblemSpec(d=d, T=T, H=h, p_plus=p_plus, p_minus=p_minus))
            for h in (H - e, H, H + e)]
    c = (d - 1) * sols[0].spec.resistance_factor
    Hs = [s.spec.H for s in sols]
    R = [s.R_total for s in sols]
    lam = [lam_scale * s.lambda_plus for s in sols]
    dlam = [lam_scale * _lambda_error(s) for s in sols]
    reach = [abs(s.front.beta + s.rear.beta - s.spec.H) for s in sols]

    def quotient(a, b):
        """(R_b - R_a)/(H_b - H_a) and its error bound."""
        width = Hs[b] - Hs[a]
        err = (c * max(lam) * (reach[a] + reach[b])
               + 64.0 * _EPS * (abs(R[a]) + abs(R[b]))) / width
        return (R[b] - R[a]) / width, err

    failures = []
    for a, b in ((0, 1), (1, 2)):
        q, err = quotient(a, b)
        failures.append((f"below [{a},{b}]", -c * lam[a] - q
                         - (err + c * dlam[a])))
        failures.append((f"above [{a},{b}]", q + c * lam[b]
                         - (err + c * dlam[b])))
    if not any(Hs[0] <= t <= Hs[2] for t in thresholds):
        q, err = quotient(0, 2)
        bend = abs((lam[0] + lam[2]) / 2.0 - lam[1])
        slack = err + c * (bend + 2.0 * dlam[1] + (dlam[0] + dlam[2]) / 2.0)
        failures.append(("central", abs(q + c * lam[1]) - slack))
    return [(name, excess) for name, excess in failures if excess > 0.0]


@settings(max_examples=100, deadline=None)
@given(d=st.integers(min_value=2, max_value=5),
       kind=st.sampled_from(("builtin", "expr")),
       s=st.floats(min_value=0.5, max_value=2.0),
       o=st.floats(min_value=0.0, max_value=1.0),
       k=st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=0.5)),
       o2=st.floats(min_value=-1.0, max_value=0.0),
       T=st.floats(min_value=0.5, max_value=2.0),
       where=st.one_of(
           st.floats(min_value=0.05, max_value=3.0),
           st.tuples(st.integers(min_value=0, max_value=2),
                     st.sampled_from((-1.0, 1.0)))))
def test_multiplier_is_the_derivative_of_the_optimum(d, kind, s, o, k, o2,
                                                      T, where):
    """where is an aspect ratio H/T, or (i, side): a height half a step
    below (side -1) or above (+1) the i-th finite threshold, so one
    one-sided quotient crosses it."""
    p_plus, p_minus = _laws(kind, s, o, k, o2)
    thresholds = _thresholds(d, T, p_plus, p_minus)
    if isinstance(where, float):
        H = where * T
    elif thresholds:
        i, side = where
        H = thresholds[i % len(thresholds)] * (1.0 + side * _STEP / 2.0)
    else:  # a zero rear in d >= 3 has no threshold
        H = T
    assert envelope_failures(d, T, H, p_plus, p_minus, thresholds) == []


@pytest.mark.parametrize("d, kind, k, h", [
    (2, "builtin", 0.0, 2.0), (2, "expr", 0.3, 2.5), (3, "builtin", 0.0, 1.0),
    (3, "expr", 0.3, 2.0), (4, "builtin", 0.5, 1.5), (5, "expr", 0.0, 0.8)])
def test_a_mispriced_multiplier_fails(d, kind, k, h):
    """lambda_plus off by one part in a million breaks the identity."""
    p_plus, p_minus = _laws(kind, 1.0, 0.5, k, -0.5)
    thresholds = _thresholds(d, 1.0, p_plus, p_minus)
    assert envelope_failures(d, 1.0, h, p_plus, p_minus, thresholds) == []
    assert envelope_failures(d, 1.0, h, p_plus, p_minus, thresholds,
                             lam_scale=1.0 + 1e-6) != []
