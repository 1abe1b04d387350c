"""Independent optimality certificates.

Three checks that never reuse the solvers' case analysis:

* check_maximality: a solved branch must minimize
  h_t(u) = t^{d-2} p(u) + lambda u pointwise in u for almost every
  radius t; sampled over a (t, u) grid.
* brute_force: dynamic program over monotone step profiles on an exact
  height grid (no convexity assumed); its best value can only sit above
  the analytic optimum by discretization slack.
* resistance_quadrature: evaluates the resistance functional on
  arbitrary profiles (exact on straight spans, Simpson on arcs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .body import ParamArc, Profile, ProblemSpec
from .criticals import CriticalValues, critical_values, relaxed_p
from .errors import (InfeasibleGrid, InvalidParameter, QuadratureFailure,
                     check_counts)
from .pressure import PressureModel


def _branch_model(spec: ProblemSpec, branch: str) -> PressureModel:
    if branch == "front":
        return spec.p_plus
    if branch == "rear":
        return spec.p_minus
    raise InvalidParameter(f"branch must be 'front' or 'rear', got {branch!r}")


@dataclass(frozen=True)
class MaximalityReport:
    lam: float
    worst_violation: float
    witness_t: float
    witness_u: float
    scale: float
    threshold: float  # passed is worst_violation <= threshold
    passed: bool


def check_maximality(spec: ProblemSpec, branch: str, profile: Profile,
                     lam: float, n_t: int = 64,
                     n_u: int = 256) -> MaximalityReport:
    """Sampled Pontryagin check of one branch against its multiplier.

    For each sampled radius t in (0, T], the profile's slope must
    minimize h_t(u) = t^{d-2} p(u) + lam u over the slope grid: 0 and
    a geometric grid up to 4 * max(1, profile.max_slope()).  The
    reported violation is max_t [h_t(slope(t)) - min_u h_t(u)], and the
    pass threshold is 1e-8 * scale with scale = 1 + max |h_t| over the
    scan (h_t carries no natural unit of its own, so the grid maximum
    provides one).  A radius where h_t is not finite violates by +inf.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise InvalidParameter(f"multiplier must be positive, got {lam}")
    check_counts(n_t=n_t, n_u=n_u)
    if n_t < 2 or n_u < 8:
        raise InvalidParameter("need n_t >= 2 and n_u >= 8")
    model = _branch_model(spec, branch)
    T, d = spec.T, spec.d
    u_max = 4.0 * max(1.0, profile.max_slope())

    u_grid = np.concatenate(([0.0], np.geomspace(u_max * 1e-6, u_max,
                                                 n_u - 1)))
    p_vals = model.eval_many(u_grid)[0]
    t_grid = T * (np.arange(1, n_t + 1) / n_t)

    slopes = profile.sample(t_grid)[1]
    p_prof = model.eval_many(slopes)[0]

    # h_t over the slope grid, one row per t (Python's ** on each t:
    # numpy's power rounds some t differently); a row where h_t is not
    # finite cannot be compared, so it fails at its t and sets no scale
    w = np.array([t ** (d - 2) for t in t_grid.tolist()])
    with np.errstate(over="ignore", invalid="ignore"):
        h_grid = w[:, np.newaxis] * p_vals + lam * u_grid
        h_prof = w * p_prof + lam * slopes
        finite = np.isfinite(h_grid).all(axis=1) & np.isfinite(h_prof)
        top = np.max(np.abs(h_grid), axis=1)
        scale = 1.0 + float(np.max(top, where=finite, initial=0.0))
        k = np.argmin(h_grid, axis=1)  # the first u with the smallest h_t
        violation = np.where(finite, h_prof - h_grid[np.arange(n_t), k],
                             math.inf)
    i = int(np.argmax(violation))  # the first t with the largest violation
    worst = float(violation[i])
    wit_t, wit_u = float(t_grid[i]), float(u_grid[k[i]])
    threshold = 1e-8 * scale
    return MaximalityReport(lam=lam, worst_violation=worst,
                            witness_t=wit_t, witness_u=wit_u, scale=scale,
                            threshold=threshold, passed=worst <= threshold)


@dataclass(frozen=True)
class BruteForceResult:
    n_cells: int
    n_heights: int
    u_cap: float
    best_value: float
    best_profile: tuple  # slope per radial cell
    analytic_value: float
    gap: float  # best_value - analytic_value


def _analytic_branch_value(spec: ProblemSpec, model: PressureModel,
                           cv: CriticalValues | None, beta: float) -> float:
    """Optimal branch resistance, solved independently of the DP.

    cv is the law's critical values, None exactly when the law is zero.
    """
    T, d = spec.T, spec.d
    factor = spec.resistance_factor
    if model.is_zero:
        return 0.0
    if d == 2:
        return factor * T * relaxed_p(model, cv, beta / T)
    from .spatial import GTable, _invert_height, resistance_branch
    gt = GTable(model, cv, d)
    return factor * resistance_branch(gt, _invert_height(gt, beta / T), T)


def brute_force(spec: ProblemSpec, branch: str, beta: float,
                n_cells: int = 200, n_heights: int = 400) -> BruteForceResult:
    """Exact DP over monotone step profiles on the (cells x heights) grid.

    Profiles are nondecreasing with x(T) = beta hit exactly on the
    height grid; convexity is not enforced.  The value is the true
    minimum of the discretized class, so gap >= 0 up to roundoff and
    shrinks as the grid refines.  Slopes are capped at
    4 * max(1, beta/T, u0), wide enough for every slope the analytic
    solution can use: flat-cap corners sit at u0 and steep branches at
    ~beta/T.
    """
    if branch not in ("front", "rear"):
        raise InvalidParameter(f"branch must be 'front' or 'rear', got {branch!r}")
    check_counts(n_cells=n_cells, n_heights=n_heights)
    if not (1 <= n_cells <= 2000 and 1 <= n_heights <= 2000):
        raise InvalidParameter("grid dimensions must be in [1, 2000]")
    if beta < 0.0 or not math.isfinite(beta):
        raise InvalidParameter(f"beta must be nonnegative finite, got {beta}")
    model = _branch_model(spec, branch)
    T, d = spec.T, spec.d
    factor = spec.resistance_factor
    cv = None if model.is_zero else critical_values(model)
    analytic = _analytic_branch_value(spec, model, cv, beta)

    dt = T / n_cells
    edges = np.arange(n_cells + 1) * dt
    weights = edges[1:] ** (d - 1) - edges[:-1] ** (d - 1)

    if beta == 0.0:
        value = factor * model.p(0.0) * T ** (d - 1)
        return BruteForceResult(n_cells=n_cells, n_heights=n_heights,
                                u_cap=0.0,
                                best_value=value,
                                best_profile=(0.0,) * n_cells,
                                analytic_value=analytic,
                                gap=value - analytic)

    u0 = 0.0 if cv is None else cv.u0
    u_cap = 4.0 * max(1.0, beta / T, u0)
    dx = beta / n_heights
    try:
        m_max = min(n_heights, int(u_cap * dt / dx * (1.0 + 1e-12)))
    except (ZeroDivisionError, OverflowError):  # dx is 0 or tiny
        raise InfeasibleGrid(f"height step dx={dx!r} of beta={beta!r} "
                             "is out of range on this grid") from None
    if m_max < 1 or m_max * n_cells < n_heights:
        raise InfeasibleGrid(
            f"slope cap {u_cap} cannot reach beta={beta} on this grid")
    if not weights.all():  # 0 * inf, on an inadmissible step, is nan
        i = int(np.argmin(weights))
        raise InfeasibleGrid(
            f"weight {float(weights[i])!r} of cell {i} (its t^{d - 1} "
            f"increment) underflows on the {n_cells}x{n_heights} grid "
            f"of T={T!r}")

    steps = np.arange(m_max + 1)
    p_step = model.eval_many(steps * dx / dt)[0]

    K = n_heights + 1
    idx = np.subtract.outer(np.arange(K), np.arange(K))  # k' - k
    valid = (idx >= 0) & (idx <= m_max)
    p_mat = np.where(valid, p_step[np.clip(idx, 0, m_max)], np.inf)

    J = np.full(K, np.inf)
    J[0] = 0.0
    choices = np.empty((n_cells, K), dtype=np.int32)
    for i in range(n_cells):
        cand = J[np.newaxis, :] + weights[i] * p_mat
        choices[i] = np.argmin(cand, axis=1)
        J = cand[np.arange(K), choices[i]]
    best = float(J[n_heights])
    if not math.isfinite(best):
        raise InfeasibleGrid("no admissible step profile on this grid")

    slopes = []
    k = n_heights
    for i in range(n_cells - 1, -1, -1):
        k_prev = int(choices[i][k])
        slopes.append((k - k_prev) * dx / dt)
        k = k_prev
    slopes.reverse()

    best *= factor
    return BruteForceResult(n_cells=n_cells, n_heights=n_heights, u_cap=u_cap,
                            best_value=best, best_profile=tuple(slopes),
                            analytic_value=analytic, gap=best - analytic)


def _arc_quadrature(model: PressureModel, arc: ParamArc, d: int,
                    stride: int = 1) -> float:
    """Integral of p(u(t)) d(t^{d-1}) over the arc's stored samples.

    Quadratic through consecutive sample triples (non-uniform Simpson);
    u is exact at samples so the only error is the quadrature rule's.
    """
    pts = arc.samples[::stride]
    if pts[-1] != arc.samples[-1]:
        pts = tuple(pts) + (arc.samples[-1],)
    if len(pts) < 3:
        raise QuadratureFailure("arc needs at least 3 samples")
    ts = np.array([p[0] for p in pts])
    ps = model.eval_many([p[2] for p in pts])[0]
    # Python's ** on each t: numpy's power rounds some t differently
    fs = ps * (d - 1) * np.array([p[0] ** (d - 2) for p in pts])
    total = 0.0
    i = 0
    n = len(pts) - 1  # intervals
    while i < n:
        if i + 2 <= n:
            t0, t1, t2 = ts[i], ts[i + 1], ts[i + 2]
            f0, f1, f2 = fs[i], fs[i + 1], fs[i + 2]
            h0, h1 = t1 - t0, t2 - t1
            if h0 <= 0.0 or h1 <= 0.0:
                i += 1
                continue
            total += ((h0 + h1) / 6.0
                      * ((2.0 - h1 / h0) * f0
                         + (h0 + h1) ** 2 / (h0 * h1) * f1
                         + (2.0 - h0 / h1) * f2))
            i += 2
        else:
            # single leftover interval [t1, t2]: the quadratic through the
            # last triple, integrated in local steps (exact on quadratics
            # and free of the cancellation of absolute-abscissa powers)
            h0, h1 = ts[i] - ts[i - 1], ts[i + 1] - ts[i]
            f0, f1, f2 = fs[i - 1], fs[i], fs[i + 1]
            total += (h1 / 6.0
                      * (-h1 * h1 / (h0 * (h0 + h1)) * f0
                         + (3.0 + h1 / h0) * f1
                         + (2.0 * h1 + 3.0 * h0) / (h0 + h1) * f2))
            i += 1
    return total


def resistance_quadrature(spec: ProblemSpec, branch: str,
                          profile: Profile) -> float:
    """Resistance of one branch of an arbitrary admissible profile.

    Exact segment sums on straight spans.  On arcs, a coarse/fine
    Richardson estimate certifies 1e-9*(1+|value|); denser arc samples
    buy more accuracy.
    """
    model = _branch_model(spec, branch)
    if model.is_zero:
        return 0.0
    d = spec.d
    total = 0.0
    for seg in profile.segments:
        if isinstance(seg, ParamArc):
            fine = _arc_quadrature(model, seg, d, stride=1)
            coarse = _arc_quadrature(model, seg, d, stride=2)
            est = abs(fine - coarse) / 15.0
            if est > 1e-9 * (1.0 + abs(fine)):
                raise QuadratureFailure(
                    f"arc quadrature error estimate {est:g} too large; "
                    "sample the arc more densely")
            total += fine
        else:
            total += model.p(seg.slope) * (seg.t_to ** (d - 1)
                                           - seg.t_from ** (d - 1))
    return spec.resistance_factor * total
