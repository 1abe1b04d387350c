"""Acceptance gate: nine numbered criteria, one pass/fail line each.

Run with `pytest -rP` (the repo default) to see each line; every
criterion asserts its stated tolerance, so a regression fails the exact
criterion that broke.  The instance matrix is frozen: 12 problems over
d = 2, 3, 4, parallel and non-parallel flux, heights straddling the
case thresholds for each pair.
"""

import math
import random
import time

import numpy as np
import pytest

from minres.body import (DOUBLE_TRIANGLE, FRONT_TRAPEZIUM, FRONT_TRIANGLE,
                         Linear, ParamArc, ProblemSpec, Profile,
                         TRIANGLE_OVER_TRAPEZIUM)
from minres.classical import newton3, newton4
from minres.criticals import critical_values, pair_criticals
from minres.errors import DomainError
from minres.exprlang import Bin, Call, Const, Neg, Num, Var, eval2
from minres.oracle import brute_force, check_maximality, resistance_quadrature
from minres.planar import solve2d
from minres.pressure import make_builtin, make_expr, make_zero
from minres.spatial import GTable, resistance_branch, solve_height_for_U
from minres import solve

PAIR_PLUS = "1/(1+u^2)+0.5"
PAIR_MINUS = "0.5/(1+u^2)-0.5"

# (d, T, H, flux): one height below and one above the case threshold
# per (dimension, flux) cell
MATRIX = (
    (2, 2.0, 1.0, "parallel"),
    (2, 2.0, 3.0, "parallel"),
    (2, 2.0, 1.0, "pair"),
    (2, 2.0, 6.0, "pair"),
    (3, 1.0, 0.4, "parallel"),
    (3, 1.0, 0.55, "parallel"),
    (3, 1.0, 0.4, "pair"),
    (3, 1.0, 0.8, "pair"),
    (4, 1.0, 0.25, "parallel"),
    (4, 1.0, 0.45, "parallel"),
    (4, 1.0, 0.2, "pair"),
    (4, 1.0, 0.5, "pair"),
)


def _spec_for(d, T, H, flux, ball=False):
    if flux == "parallel":
        return ProblemSpec(d=d, T=T, H=H, p_plus=make_builtin(1.0, 0.0),
                           p_minus=make_zero(), include_ball_volume=ball)
    return ProblemSpec(d=d, T=T, H=H, p_plus=make_expr(PAIR_PLUS),
                       p_minus=make_expr(PAIR_MINUS),
                       include_ball_volume=ball)


@pytest.fixture(scope="module")
def solved_matrix():
    return tuple((row, solve(_spec_for(*row))) for row in MATRIX)


def _report(num, name, ok, detail):
    print(f"acceptance {num}/9 {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_1_reference_criticals():
    model = make_builtin(1.0, 0.0)
    critical_values(model)  # warm the code paths before timing
    started = time.perf_counter()
    cv = critical_values(model)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    errs = (abs(cv.u_bar - 3.0 ** -0.5), abs(cv.u0 - 1.0), abs(cv.B - 0.5))
    ok = max(errs) <= 1e-9 and elapsed_ms < 10.0
    _report(1, "reference-criticals", ok,
            f"max abs err {max(errs):.2e}, {elapsed_ms:.2f} ms")


def test_criterion_2_case_taxonomy():
    expected = {1.0: FRONT_TRAPEZIUM, 2.0: FRONT_TRIANGLE,
                4.0: TRIANGLE_OVER_TRAPEZIUM, 6.0: DOUBLE_TRIANGLE}
    started = time.perf_counter()
    got = {H: solve2d(_spec_for(2, 2.0, H, "pair")).case_label
           for H in expected}
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    ok = got == expected and elapsed_ms < 100.0
    _report(2, "case-taxonomy", ok, f"labels {got}, {elapsed_ms:.1f} ms")


def _curve_agreement(d, closed):
    worst = 0.0
    for U in np.linspace(1.0, 5.0, 20):
        U = float(U)
        c = closed(1.0, U)
        sol = solve(_spec_for(d, 1.0, c.beta, "parallel"), n_samples=64)
        worst = max(worst, abs(sol.lambda_plus - c.lam) / c.lam)
        if U == 1.0:
            # flat body: cap radius T plays the role of t0
            worst = max(worst, abs(c.t0 - 1.0))
            continue
        worst = max(worst, abs(sol.beta_plus - c.beta) / c.beta)
        flat, arc = sol.front.segments
        assert isinstance(arc, ParamArc) and len(arc.samples) == 64
        worst = max(worst, abs(flat.t_to - c.t0) / c.t0)
        for t, x, u in arc.samples:
            tc = c.t_of_u(u)
            xc = c.x_of_u(u)
            worst = max(worst, abs(t - tc) / tc)
            # x -> 0 at the cap junction: floor the scale at 1e-3
            # so machine dust in the closed form is not divided by ~0
            worst = max(worst, abs(x - xc) / max(abs(xc), 1e-3))
    return worst


def test_criterion_3_classical_agreement():
    worst3 = _curve_agreement(3, newton3)
    worst4 = _curve_agreement(4, newton4)
    ok = max(worst3, worst4) <= 1e-8
    _report(3, "classical-agreement", ok,
            f"worst rel err d3 {worst3:.2e}, d4 {worst4:.2e}")


def test_criterion_4_closed_form_certification():
    worst_quad = 0.0
    for d, closed in ((3, newton3), (4, newton4)):
        for U in (1.0, 1.5, 2.0, 4.0):
            c = closed(1.0, U)
            sol = solve(_spec_for(d, 1.0, c.beta, "parallel"),
                        n_samples=2048)
            r = resistance_quadrature(sol.spec, "front", sol.front)
            worst_quad = max(worst_quad, abs(r - c.R_plus) / c.R_plus)
    flat_err = max(abs(newton3(1.0, 1.0).R_plus - 1.0),
                   abs(newton4(1.0, 1.0).R_plus - 1.0))
    # the two rejected closed forms must fail the flat-body identity
    rejected3 = (17.0 + 2.0 + 10.0 + 3.0) / (4.0 * 2.0 ** 4)
    rejected4 = (1.0 + 3.0) / (2.0 * 2.0 ** 2)
    rejected_fail = abs(rejected3 - 1.0) > 0.1 and abs(rejected4 - 1.0) > 0.1
    ok = worst_quad <= 1e-8 and flat_err <= 1e-10 and rejected_fail
    _report(4, "closed-form-certification", ok,
            f"quad rel {worst_quad:.2e}, flat abs {flat_err:.2e}, "
            f"rejected forms give {rejected3:.2f}/{rejected4:.2f} at U=1")


def test_criterion_5_global_optimality(solved_matrix):
    worst_rel_slack = 0.0
    worst_seconds = 0.0
    shrink_ok = True
    for (d, T, H, flux), sol in solved_matrix:
        spec = sol.spec
        started = time.perf_counter()
        for branch, beta, model in (("front", sol.beta_plus, spec.p_plus),
                                    ("rear", sol.beta_minus, spec.p_minus)):
            if model.is_zero:
                continue
            res = brute_force(spec, branch, beta, 200, 400)
            assert res.gap >= -1e-9 * max(1.0, abs(res.analytic_value))
            slack = max(res.gap, 0.0)
            worst_rel_slack = max(worst_rel_slack,
                                  slack / max(abs(sol.R_total), 1e-12))
            doubled = brute_force(spec, branch, beta, 400, 800)
            slack2 = max(doubled.gap, 0.0)
            if slack2 > slack + 1e-12 * max(1.0, abs(sol.R_total)):
                shrink_ok = False
        worst_seconds = max(worst_seconds, time.perf_counter() - started)
    ok = worst_rel_slack <= 0.01 and shrink_ok and worst_seconds <= 10.0
    _report(5, "global-optimality", ok,
            f"worst slack {100.0 * worst_rel_slack:.3f}% of R, "
            f"doubling shrinks: {shrink_ok}, "
            f"slowest instance {worst_seconds:.1f} s")


def test_criterion_6_pointwise_maximality(solved_matrix):
    worst = 0.0
    for (d, T, H, flux), sol in solved_matrix:
        spec = sol.spec
        for branch, profile, lam in (("front", sol.front, sol.lambda_plus),
                                     ("rear", sol.rear, sol.lambda_minus)):
            if lam is None:
                continue
            rep = check_maximality(spec, branch, profile, lam)
            assert rep.passed, (d, T, H, flux, branch, rep.worst_violation)
            worst = max(worst, rep.worst_violation / rep.scale)
    # a 10% slope perturbation (rebalanced to the same height) must fail
    spec = _spec_for(2, 2.0, 2.0, "pair")
    sol = solve2d(spec)
    bad = Profile(T=2.0, segments=(Linear(0.0, 1.0, 1.1),
                                   Linear(1.0, 2.0, 0.9)), beta=2.0)
    rep = check_maximality(spec, "front", bad, sol.lambda_plus)
    located = (not rep.passed and rep.witness_t is not None
               and rep.witness_u is not None
               and rep.worst_violation > 1e-8 * rep.scale)
    ok = worst <= 1e-8 and located
    _report(6, "pointwise-maximality", ok,
            f"worst scaled violation {worst:.2e}, perturbed profile "
            f"rejected with witness at t={rep.witness_t:.3f} "
            f"u={rep.witness_u:.3f}")


def test_criterion_7_scaling_law(solved_matrix):
    worst = 0.0
    for (d, T, H, flux), sol in solved_matrix:
        for k in (0.5, 3.0):
            scaled = solve(_spec_for(d, k * T, k * H, flux))
            expect = k ** (d - 1) * sol.R_total
            worst = max(worst, abs(scaled.R_total - expect) / abs(expect))
    ok = worst <= 1e-8
    _report(7, "scaling-law", ok, f"worst rel err {worst:.2e}")


def test_criterion_8_split_stationarity(solved_matrix):
    splits = 0
    worst_balance = 0.0
    worst_drop = 0.0
    for (d, T, H, flux), sol in solved_matrix:
        if d == 2 or sol.beta_minus <= 0.0:
            continue
        splits += 1
        spec = sol.spec
        worst_balance = max(worst_balance,
                            abs(spec.p_minus.dp(sol.U_minus)
                                - spec.p_plus.dp(sol.U_plus)))
        pc = pair_criticals(spec.p_plus, spec.p_minus, d)
        gtp = GTable(model=spec.p_plus, cv=pc.plus, d=d)
        gtm = GTable(model=spec.p_minus, cv=pc.minus, d=d)

        def total(beta_m):
            front = solve_height_for_U(gtp, H - beta_m, T)
            rear = solve_height_for_U(gtm, beta_m, T)
            return (resistance_branch(gtp, front.U, T)
                    + resistance_branch(gtm, rear.U, T))

        base = total(sol.beta_minus)
        for eps in (-1e-3, 1e-3):
            worst_drop = max(worst_drop, base - total(sol.beta_minus + eps))
    ok = splits > 0 and worst_balance <= 1e-9 and worst_drop <= 1e-9
    _report(8, "split-stationarity", ok,
            f"{splits} split instances, worst balance {worst_balance:.2e}, "
            f"worst perturbation gain {worst_drop:.2e}")


def _smooth_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        c = rng.random()
        if c < 0.45:
            return Num(round(rng.uniform(0.1, 3.0), 3))
        if c < 0.85:
            return Var()
        return Const(rng.choice(("pi", "e")))
    k = rng.random()
    if k < 0.55:
        return Bin(rng.choice("+-*/"), _smooth_expr(rng, depth - 1),
                   _smooth_expr(rng, depth - 1))
    if k < 0.7:
        return Neg(_smooth_expr(rng, depth - 1))
    if k < 0.85:
        e = rng.choice((2.0, 3.0, 0.5, -1.0, -2.0))
        node = Num(abs(e))
        return Bin("^", _smooth_expr(rng, depth - 1),
                   Neg(node) if e < 0.0 else node)
    return Call(rng.choice(("exp", "ln", "sqrt")),
                _smooth_expr(rng, depth - 1))


def test_criterion_9_differentiation():
    rng = random.Random(20260816)
    checked = 0
    worst = 0.0
    while checked < 1000:
        e = _smooth_expr(rng, 3)
        u = rng.uniform(0.05, 4.0)
        step = 1e-5 * max(1.0, abs(u))
        try:
            d = eval2(e, u)
            vp = eval2(e, u + step).value
            vm = eval2(e, u - step).value
        except DomainError:
            continue
        if max(abs(d.value), abs(vp), abs(vm)) > 1e6:
            continue  # FD needs tame magnitudes to say anything
        fd1 = (vp - vm) / (2.0 * step)
        scale = max(abs(d.d1), abs(fd1), 1.0)
        worst = max(worst, abs(d.d1 - fd1) / scale)
        checked += 1
    ok = checked == 1000 and worst <= 1e-6
    _report(9, "differentiation", ok,
            f"{checked} checks, worst rel err {worst:.2e}")
