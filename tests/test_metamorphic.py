"""A metamorphic relation: rescaling the slope and the pressure.

For a > 0, k > 0 and any c, the law q(u) = a p(k u) + c prices a profile
x as a p prices k x, plus c times the constant factor T^(d-1) of its
branch.  So the body solved for q at height H is the one solved for p
at height k H with every height divided by k: the same case label,
beta_q = beta_p / k, lambda_q = a k lambda_p and, on each branch whose
law is nonzero, R_q = a R_p + c factor T^(d-1).  No reference values
are needed.  q is built from p's tree, with k*u in place of u, and
reaches the solver as text, so every example also parses a new law.

Each solve misses the exact optimum by what its root solves leave.  A
root x is located to delta(x) = 1e-12 + 4 eps |x| (bracket_root), and
g to delta_g = 1e-11, or ~1e-14 g where g is large (GTable.g).  The
branch slopes carry these errors, and so do the numbers built on them:

* d = 2: a body that splits its height has its front slope s off by
  delta(s) plus what the error of u0_minus moves it: delta(u0_minus) on
  a double triangle, and delta(u0_minus) |p_minus''(u0_minus) /
  p_plus''(u_star)| through u_star over a capped rear.  The heights
  move by T ds;
* d >= 3: a flat rear leaves U_plus off by delta(U_plus) plus
  delta_g |p'|^omega / b', b' = omega |p'|^(omega-1) p'' g.  A split
  leaves U_minus off by delta(U_minus) plus the balance error, the
  inner root's b_plus' delta(U_plus) and delta_g on both heights,
  over b_minus'; U_plus = z(U_minus) carries delta(U_plus) plus
  |p_minus'' / p_plus''| dU_minus.  beta_minus = T b_minus(U_minus)
  moves by T (b_minus' dU_minus + delta_g |p_minus'|^omega);
* a branch's multiplier T^(d-2) |p'(U)| moves by T^(d-2) |p''(U)| dU,
  and a capped or flat branch's B not to first order, since u0
  maximizes the drop rate;
* a branch's resistance moves by c lambda times its height error
  (dR/dU = -c lambda T b'(U), c = (d-1) factor), plus, in d >= 3,
  factor T^(d-1) |p'(U)|^(1+omega) delta_g from g.

Every comparison also allows a rounding of 64 eps on each side, the
floor adaptive_simpson accepts.  The branch data, b' included through
g(U) = (U - profile.beta/T) / |p'(U)|^omega, are read off each solution.
"""

from hypothesis import given, settings, strategies as st

from minres import solve
from minres.body import (DOUBLE_TRIANGLE, TRIANGLE_OVER_TRAPEZIUM,
                         ProblemSpec)
from minres.criticals import pair_criticals
from minres.exprlang import Bin, Call, Neg, Num, Var, format_expr
from minres.pressure import make_expr
from test_envelope import _laws

_EPS = 2.0 ** -52
_XTOL = 1e-12  # numerics.bracket_root's absolute abscissa tolerance


def _root_tol(x):
    return _XTOL + 4.0 * _EPS * abs(x)


def _g_tol(g):
    return 1e-11 + 1e-14 * g


def _substitute(e, k):
    """e with k*u in place of u."""
    if isinstance(e, Var):
        return Bin("*", Num(k), Var())
    if isinstance(e, Neg):
        return Neg(_substitute(e.arg, k))
    if isinstance(e, Bin):
        return Bin(e.op, _substitute(e.left, k), _substitute(e.right, k))
    if isinstance(e, Call):
        return Call(e.fn, _substitute(e.arg, k))
    return e


def _rescaled(model, a, k, c):
    """a p(k u) + c for an expression law p, parsed from its text; the
    zero law stays zero."""
    if model.is_zero:
        return model
    q = Bin("*", Num(a), _substitute(model.expr, k))
    q = Bin("+", q, Num(c)) if c >= 0.0 else Bin("-", q, Num(-c))
    return make_expr(format_expr(q))


def _branch(sol, side):
    """(law, profile, terminal slope, multiplier)."""
    if side == "plus":
        return sol.spec.p_plus, sol.front, sol.U_plus, sol.lambda_plus
    return sol.spec.p_minus, sol.rear, sol.U_minus, sol.lambda_minus


def _errors(sol):
    """Documented error bounds of beta_minus and of each branch's
    multiplier and resistance, as a dict keyed like BodySolution."""
    spec = sol.spec
    d, T = spec.d, spec.T
    c = (d - 1) * spec.resistance_factor
    dU = {"plus": 0.0, "minus": 0.0}  # slope errors
    dh = {"plus": 0.0, "minus": 0.0}  # height errors of the branch's R
    dg = {"plus": 0.0, "minus": 0.0}  # g's share of the branch's R
    beta_err = 0.0
    if d == 2:
        pc = pair_criticals(spec.p_plus, spec.p_minus, 2)
        u0m = pc.minus.u0
        if sol.case_label == TRIANGLE_OVER_TRAPEZIUM:
            dU["plus"] = _root_tol(pc.u_star) + _root_tol(u0m) * abs(
                spec.p_minus.d2p(u0m) / spec.p_plus.d2p(pc.u_star))
        elif sol.case_label == DOUBLE_TRIANGLE:
            dU["plus"] = dU["minus"] = _root_tol(sol.U_plus) + _root_tol(u0m)
        beta_err = dh["plus"] = dh["minus"] = T * dU["plus"]
    else:
        omega = 1.0 / (d - 2)
        slope = {}
        for side in ("plus", "minus"):
            law, profile, U, _ = _branch(sol, side)
            if U is None:
                continue
            ap, d2 = abs(law.dp(U)), law.d2p(U)
            g = (U - profile.beta / T) / ap ** omega
            slope[side] = (U, ap, d2, omega * ap ** (omega - 1.0) * d2 * g,
                           _g_tol(g))
            dg[side] = (spec.resistance_factor * T ** (d - 1)
                        * ap ** (1.0 + omega) * _g_tol(g))
        if "minus" in slope:
            Up, app, d2p, bp, gtp = slope["plus"]
            Um, apm, d2m, bm, gtm = slope["minus"]
            dU["minus"] = _root_tol(Um) + (
                bp * _root_tol(Up) + gtp * app ** omega
                + gtm * apm ** omega) / bm
            dU["plus"] = _root_tol(Up) + abs(d2m / d2p) * dU["minus"]
            beta_err = T * (bm * dU["minus"] + gtm * apm ** omega)
        elif "plus" in slope:
            Up, app, _, bp, gtp = slope["plus"]
            dU["plus"] = _root_tol(Up) + gtp * app ** omega / bp
        for side, (_, _, _, b1, _) in slope.items():
            dh[side] = T * b1 * dU[side]
    errors = {"beta_minus": beta_err}
    for side in ("plus", "minus"):
        law, _, U, lam = _branch(sol, side)
        lam_err = 0.0 if U is None else (
            T ** (d - 2) * abs(law.d2p(U)) * dU[side])
        errors[f"lambda_{side}"] = lam_err
        errors[f"R_{side}"] = c * (lam or 0.0) * dh[side] + dg[side]
    return errors


def _misses(got, want, err_got, err_want):
    """How far |got - want| exceeds its bound (> 0 is a failure)."""
    return (abs(got - want)
            - (err_got + err_want + 64.0 * _EPS * (abs(got) + abs(want))))


def metamorphic_misses(d, s, o, rear, T, h, a, k, c):
    """Solve p at k H and q at H, H = h T, and return, by name, how far
    each compared number misses its bound."""
    p_plus, p_minus = _laws("expr", s, o, rear, 0.0)
    q_plus, q_minus = (_rescaled(m, a, k, c) for m in (p_plus, p_minus))
    sol_q = solve(ProblemSpec(d=d, T=T, H=h * T, p_plus=q_plus,
                              p_minus=q_minus))
    sol_p = solve(ProblemSpec(d=d, T=T, H=k * (h * T), p_plus=p_plus,
                              p_minus=p_minus))
    assert sol_q.case_label == sol_p.case_label
    err_q, err_p = _errors(sol_q), _errors(sol_p)
    misses = {}
    for beta in ("beta_plus", "beta_minus"):  # both move with beta_minus
        misses[beta] = _misses(getattr(sol_q, beta), getattr(sol_p, beta) / k,
                               err_q["beta_minus"], err_p["beta_minus"] / k)
    shift = c * sol_q.spec.resistance_factor * T ** (d - 1)
    for side, law in (("plus", p_plus), ("minus", p_minus)):
        lam_q, lam_p = (getattr(sol, f"lambda_{side}")
                        for sol in (sol_q, sol_p))
        assert (lam_q is None) == (lam_p is None)
        if lam_q is not None:
            misses[f"lambda_{side}"] = _misses(
                lam_q, a * k * lam_p, err_q[f"lambda_{side}"],
                a * k * err_p[f"lambda_{side}"])
        R = f"R_{side}"
        if law.is_zero:
            assert getattr(sol_q, R) == getattr(sol_p, R) == 0.0
        else:
            misses[R] = _misses(getattr(sol_q, R),
                                a * getattr(sol_p, R) + shift, err_q[R],
                                a * err_p[R] + 64.0 * _EPS * abs(shift))
    return misses


BODIES = dict(
    d=st.integers(min_value=2, max_value=5),
    s=st.floats(min_value=0.5, max_value=2.0),
    o=st.floats(min_value=0.0, max_value=1.0),
    rear=st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=0.5)),
    T=st.floats(min_value=0.5, max_value=2.0),
    h=st.floats(min_value=0.05, max_value=3.0),
    a=st.floats(min_value=0.25, max_value=4.0),
    k=st.floats(min_value=0.5, max_value=2.0),
    c=st.floats(min_value=-1.0, max_value=1.0))


@settings(max_examples=40, deadline=None)
@given(**BODIES)
def test_rescaled_law_solves_the_rescaled_body(d, s, o, rear, T, h, a, k, c):
    """s/(1+u^2)+o over a zero rear or rear*s*exp(0-u^2), mapped by a, k
    and c; the bodies have aspect ratio h."""
    misses = metamorphic_misses(d, s, o, rear, T, h, a, k, c)
    assert {name: m for name, m in misses.items() if m > 0.0} == {}
