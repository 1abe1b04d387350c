"""Spatial (d >= 3) solver: curved extremal branches.

A nonflat branch with terminal slope U > u0 is the parametric curve

    t(u) = (lam / |p'(u)|)^omega,   omega = 1/(d-2),
    x(u) = lam^omega * (u / |p'(u)|^omega - g(u)),

for u in [u0, U], preceded by a flat cap of radius t0 = (lam/B)^omega,
where lam = T^{d-2} |p'(U)| and

    g(u) = integral_0^u |relaxed p'|^{-omega} dv
         = u / B^omega                      for u <= u0,
           u0 / B^omega + int_{u0}^u |p'|^{-omega}  above.

The branch height is T * b(U) with b(U) = U - |p'(U)|^omega g(U)
(b(u0) = 0, and b' = omega |p'|^(omega-1) p'' g > 0 where p'' > 0),
and the branch resistance is T^{d-1} (p(U) + |p'(U)|^{1+omega} g(U)).

For a two-sided body: the rear stays flat while h = H/T <= h_star;
above h_star both branches share one multiplier, p_plus'(z_plus) =
p_minus'(z_minus), and the split solves the single equation
b_plus(z_plus(z_minus)) + b_minus(z_minus) = h in z_minus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .body import (FLAT_DISK, SPATIAL, BodySolution, Linear, ParamArc,
                   Profile, ProblemSpec, flat_profile, split_height)
from .criticals import CriticalValues, pair_criticals, slope_at_multiplier
from .errors import AssumptionViolated, InvalidParameter, NoConvergence
from .numerics import adaptive_simpson, bracket_root, grow_bracket_upper
from .pressure import PressureModel

_G_TOL = 1e-11


@dataclass(frozen=True)
class GTable:
    """Slope-cost integral g for one law; immutable, safe to share."""

    model: PressureModel
    cv: CriticalValues
    d: int

    def __post_init__(self):
        if not (isinstance(self.d, int) and self.d >= 3):
            raise InvalidParameter(f"GTable needs d >= 3, got {self.d!r}")

    @property
    def omega(self) -> float:
        return 1.0 / (self.d - 2)

    def _integrand(self, v: float) -> float:
        return abs(self.model.dp(v)) ** (-self.omega)

    def g(self, u: float) -> float:
        """g(u) to absolute accuracy ~1e-11 (closed form below u0)."""
        if u < 0.0:
            raise InvalidParameter(f"slope must be nonnegative, got {u}")
        base = self.cv.u0 / self.cv.B ** self.omega
        if u <= self.cv.u0:
            return u / self.cv.B ** self.omega
        return base + adaptive_simpson(self._integrand, self.cv.u0, u,
                                       tol=_G_TOL)

    def g_many(self, us) -> np.ndarray:
        """g on an ascending slope grid that starts at u0, one panel a step."""
        us = us.tolist()
        out = np.empty(len(us))
        out[0] = self.cv.u0 / self.cv.B ** self.omega
        for i in range(1, len(us)):
            out[i] = out[i - 1] + adaptive_simpson(
                self._integrand, us[i - 1], us[i], tol=1e-12)
        return out

    def b(self, U: float) -> float:
        """Normalized branch height carried by terminal slope U.

        Zero at and below u0 (a flat branch), strictly increasing above.
        """
        if U <= self.cv.u0:
            return 0.0
        return U - abs(self.model.dp(U)) ** self.omega * self.g(U)


@dataclass(frozen=True)
class SpatialExtremal:
    """One solved branch for a given body radius T."""

    T: float
    U: float
    lam: float  # T^{d-2} |p'(U)|; B T^{d-2} when flat
    t0: float
    beta: float
    samples: tuple  # of (u, t, x); single entry when flat

    @property
    def is_flat(self) -> bool:
        return self.beta == 0.0


def _check_curvature(gt: GTable, u_hi: float) -> None:
    """The branch needs p'' > 0 on the slopes [u0, u_hi] it may use;
    b' = omega |p'|^(omega-1) p'' g, so b rises exactly there."""
    us = np.linspace(gt.cv.u0, u_hi, 32)
    _, _, d2, err = gt.model.eval_prefix(us)
    fails = np.flatnonzero(d2 <= 0.0)
    if fails.size:
        u = float(us[fails[0]])
        raise AssumptionViolated(
            f"law curvature not positive at u={u:g}", witness=u)
    if err is not None:
        raise err


def _invert_height(gt: GTable, h: float) -> float:
    """Solve b(U) = h for U >= u0 (h >= 0)."""
    if h == 0.0:
        return gt.cv.u0

    def shifted(U: float) -> float:
        return gt.b(U) - h

    lo, hi = grow_bracket_upper(shifted, gt.cv.u0, max(gt.cv.u0, 1.0))
    _check_curvature(gt, hi)
    return lo if lo == hi else bracket_root(shifted, lo, hi)


def extremal_from_U(gt: GTable, U: float, T: float,
                    n_samples: int = 256) -> SpatialExtremal:
    """Branch data for terminal slope U; an arc gets n_samples >= 3."""
    if n_samples < 3:
        raise InvalidParameter(
            f"n_samples must be at least 3, got {n_samples!r}")
    cv = gt.cv
    d, omega = gt.d, gt.omega
    if U <= cv.u0:
        lam = cv.B * T ** (d - 2)
        return SpatialExtremal(T=T, U=cv.u0, lam=lam, t0=T, beta=0.0,
                               samples=((cv.u0, T, 0.0),))
    lam = T ** (d - 2) * abs(gt.model.dp(U))
    t0 = (lam / cv.B) ** omega
    lam_om = lam ** omega

    us = np.linspace(cv.u0, U, n_samples)
    gs = gt.g_many(us)
    _, dps, _, err = gt.model.eval_prefix(us[1:])
    pts = [(float(cv.u0), t0, 0.0)]
    for u, g, dp in zip(us[1:].tolist(), gs[1:].tolist(), dps.tolist()):
        ap = abs(dp) ** omega
        t = lam_om / ap
        x = lam_om * (u / ap - g)
        pts.append((u, t, x))
    if err is not None:
        raise err
    # the last sample is t(U) = T up to rounding; snap so segments tile
    u_last, _, x_last = pts[-1]
    pts[-1] = (u_last, T, x_last)
    return SpatialExtremal(T=T, U=U, lam=lam, t0=t0, beta=x_last,
                           samples=tuple(pts))


def solve_height_for_U(gt: GTable, h_branch: float, T: float = 1.0,
                       n_samples: int = 256) -> SpatialExtremal:
    """Branch carrying normalized height h_branch = beta/T on radius T."""
    if h_branch < 0.0 or not math.isfinite(h_branch):
        raise InvalidParameter(
            f"branch height must be nonnegative finite, got {h_branch}")
    if h_branch == 0.0:
        return extremal_from_U(gt, gt.cv.u0, T, n_samples)
    U = _invert_height(gt, h_branch)
    return extremal_from_U(gt, U, T, n_samples)


def resistance_branch(gt: GTable, ex: SpatialExtremal, T: float,
                      d: int) -> float:
    """Resistance of a solved branch (no unit-ball factor)."""
    if d != gt.d:
        raise InvalidParameter(f"dimension mismatch: {d} vs table {gt.d}")
    if ex.is_flat:
        return T ** (d - 1) * gt.model.p(0.0)
    ap = abs(gt.model.dp(ex.U))
    return T ** (d - 1) * (gt.model.p(ex.U)
                           + ap ** (1.0 + gt.omega) * gt.g(ex.U))


def _profile_from_extremal(ex: SpatialExtremal) -> Profile:
    if ex.is_flat:
        return flat_profile(ex.T)
    segments = []
    if ex.t0 > 0.0:
        segments.append(Linear(0.0, ex.t0, 0.0))
    segments.append(ParamArc(samples=tuple((t, x, u) for u, t, x in ex.samples)))
    return Profile(T=ex.T, segments=tuple(segments), beta=ex.beta)


def solve_spatial(spec: ProblemSpec, n_samples: int = 256) -> BodySolution:
    """Globally optimal body of revolution for d >= 3."""
    if spec.d < 3:
        raise InvalidParameter(f"solve_spatial needs d >= 3, got {spec.d}")
    pc = pair_criticals(spec.p_plus, spec.p_minus, spec.d)
    T, H, d = spec.T, spec.H, spec.d
    h = H / T
    factor = spec.resistance_factor
    rear_zero = spec.p_minus.is_zero
    gt_plus = GTable(spec.p_plus, pc.plus, d)

    if H == 0.0:
        lam_flat = pc.plus.B * T ** (d - 2)
        lam_m = None if rear_zero else pc.minus.B * T ** (d - 2)
        R_p = factor * T ** (d - 1) * spec.p_plus.p(0.0)
        R_m = 0.0 if rear_zero else factor * T ** (d - 1) * spec.p_minus.p(0.0)
        return BodySolution(spec=spec, case_label=FLAT_DISK,
                            front=flat_profile(T), rear=flat_profile(T),
                            beta_plus=0.0, beta_minus=0.0,
                            lambda_plus=lam_flat, lambda_minus=lam_m,
                            R_plus=R_p, R_minus=R_m, R_total=R_p + R_m)

    h_star = pc.h_star if pc.h_star is not None else math.inf
    if h <= h_star:
        # rear flat: the front carries the whole height
        try:
            front_ex = solve_height_for_U(gt_plus, h, T, n_samples)
        except NoConvergence as err:
            raise NoConvergence(f"front height solve failed: {err}",
                                bracket=err.bracket,
                                residual=err.residual) from err
        front = _profile_from_extremal(front_ex)
        rear = flat_profile(T)
        R_p = factor * resistance_branch(gt_plus, front_ex, T, d)
        R_m = 0.0 if rear_zero else factor * T ** (d - 1) * spec.p_minus.p(0.0)
        lam_m = None if rear_zero else pc.minus.B * T ** (d - 2)
        return BodySolution(spec=spec, case_label=SPATIAL,
                            front=front, rear=rear,
                            beta_plus=H, beta_minus=0.0,
                            lambda_plus=front_ex.lam, lambda_minus=lam_m,
                            R_plus=R_p, R_minus=R_m, R_total=R_p + R_m,
                            U_plus=front_ex.U,
                            U_minus=None)

    # curved rear: both branches share one multiplier, so z_plus follows
    # from z_minus without quadrature and the heights give one equation
    gt_minus = GTable(spec.p_minus, pc.minus, d)

    def front_slope(z_minus: float) -> float:
        try:
            return slope_at_multiplier(spec.p_plus, pc.plus,
                                       -spec.p_minus.dp(z_minus))
        except NoConvergence as err:
            raise NoConvergence(
                f"inner front slope solve failed at z_minus={z_minus:g}: {err}",
                bracket=err.bracket, residual=err.residual) from err

    def split_balance(z_minus: float) -> float:
        # rises from h_star - h < 0 at u0_minus to b_plus > 0 where b_minus = h
        return gt_plus.b(front_slope(z_minus)) + gt_minus.b(z_minus) - h

    lo = pc.minus.u0
    try:
        hi = _invert_height(gt_minus, h)
    except NoConvergence as err:
        raise NoConvergence(f"outer rear height solve failed: {err}",
                            bracket=err.bracket, residual=err.residual) from err
    f_lo, f_hi = split_balance(lo), split_balance(hi)
    if not (f_lo < 0.0 <= f_hi or f_lo == 0.0):
        raise AssumptionViolated(
            f"split balance has no sign change on [{lo:g}, {hi:g}]",
            witness=(f_lo, f_hi))
    z_minus = lo if f_lo == 0.0 else (
        hi if f_hi == 0.0 else bracket_root(split_balance, lo, hi))
    z_plus = front_slope(z_minus)
    _check_curvature(gt_plus, z_plus)

    rear_ex = extremal_from_U(gt_minus, z_minus, T, n_samples)
    front_ex = extremal_from_U(gt_plus, z_plus, T, n_samples)
    beta_m, beta_p = split_height(H, rear_ex.beta)
    R_p = factor * resistance_branch(gt_plus, front_ex, T, d)
    R_m = factor * resistance_branch(gt_minus, rear_ex, T, d)
    return BodySolution(spec=spec, case_label=SPATIAL,
                        front=_profile_from_extremal(front_ex),
                        rear=_profile_from_extremal(rear_ex),
                        beta_plus=beta_p, beta_minus=beta_m,
                        lambda_plus=front_ex.lam, lambda_minus=rear_ex.lam,
                        R_plus=R_p, R_minus=R_m, R_total=R_p + R_m,
                        U_plus=front_ex.U, U_minus=rear_ex.U)
