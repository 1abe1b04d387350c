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
extremal_from_U builds each branch, flat or not, as (profile, lam, U).

For a two-sided body: the rear stays flat while h = H/T <= h_star;
above h_star both branches share one multiplier, p_plus'(z_plus) =
p_minus'(z_minus), and the split solves the single equation
b_plus(z_plus(z_minus)) + b_minus(z_minus) = h in z_minus, on a bracket
grown from z_minus = u0_minus, where the balance is h_star - h < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .body import (FLAT_DISK, SPATIAL, BodySolution, Linear, ParamArc,
                   Profile, ProblemSpec, flat_profile, split_height)
from .criticals import CriticalValues, pair_criticals, slope_at_multiplier
from .errors import (AssumptionViolated, DomainError, InvalidParameter,
                     NoConvergence, check_counts)
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

    def _quad(self, a: float, b: float, tol: float) -> float:
        try:  # |p'| ** -omega is out of range where p' underflows
            return adaptive_simpson(self._integrand, a, b, tol=tol)
        except (ZeroDivisionError, OverflowError):
            raise DomainError(b, "|p'|^(-omega)",
                              f"p' underflows on [{a!r}, {b!r}]") from None

    def g(self, u: float) -> float:
        """g(u) to 1e-11, or ~1e-14 g where g > ~1e4 (closed form below u0)."""
        if u < 0.0:
            raise InvalidParameter(f"slope must be nonnegative, got {u}")
        if u <= self.cv.u0:
            return u / self.cv.B ** self.omega
        return (self.cv.u0 / self.cv.B ** self.omega
                + self._quad(self.cv.u0, u, _G_TOL))

    def g_many(self, us) -> np.ndarray:
        """g on an ascending slope grid that starts at u0, one panel a step."""
        us = us.tolist()
        out = np.empty(len(us))
        out[0] = self.cv.u0 / self.cv.B ** self.omega
        for i in range(1, len(us)):
            out[i] = out[i - 1] + self._quad(us[i - 1], us[i], 1e-12)
        return out

    def b(self, U: float) -> float:
        """Normalized branch height carried by terminal slope U: zero at
        and below u0 (a flat branch), strictly increasing above."""
        if U <= self.cv.u0:
            return 0.0
        return U - abs(self.model.dp(U)) ** self.omega * self.g(U)


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
                    n_samples: int = 256) -> tuple[Profile, float, float]:
    """(profile, multiplier, terminal slope) of the branch with terminal
    slope U on radius T: flat at and below u0, else a flat cap and an arc
    of n_samples >= 3 (t, x, u) samples."""
    check_counts(n_samples=n_samples)
    if n_samples < 3:
        raise InvalidParameter(
            f"n_samples must be at least 3, got {n_samples!r}")
    cv, omega = gt.cv, gt.omega
    if U <= cv.u0:
        return flat_profile(T), cv.B * T ** (gt.d - 2), cv.u0
    lam = T ** (gt.d - 2) * abs(gt.model.dp(U))
    t0 = (lam / cv.B) ** omega
    lam_om = lam ** omega
    us = np.linspace(cv.u0, U, n_samples)
    gs = gt.g_many(us)  # has met p' != 0 at each slope, so ap > 0 below
    _, dps, _ = gt.model.eval_many(us[1:])
    pts = [(t0, 0.0, float(cv.u0))]
    for u, g, dp in zip(us[1:].tolist(), gs[1:].tolist(), dps.tolist()):
        ap = abs(dp) ** omega
        pts.append((lam_om / ap, lam_om * (u / ap - g), u))
    # the last sample is t(U) = T up to rounding; snap so segments tile
    pts[-1] = (T,) + pts[-1][1:]
    cap = (Linear(0.0, t0, 0.0),) if t0 > 0.0 else ()
    return (Profile(T=T, segments=cap + (ParamArc(samples=tuple(pts)),),
                    beta=pts[-1][1]), lam, U)


def solve_height_for_U(gt: GTable, h_branch: float, T: float = 1.0,
                       n_samples: int = 256) -> tuple[Profile, float, float]:
    """Branch carrying normalized height h_branch = beta/T on radius T."""
    if h_branch < 0.0 or not math.isfinite(h_branch):
        raise InvalidParameter(
            f"branch height must be nonnegative finite, got {h_branch}")
    return extremal_from_U(gt, _invert_height(gt, h_branch), T, n_samples)


def resistance_branch(gt: GTable, U: float, T: float) -> float:
    """Resistance of the branch with terminal slope U (no unit-ball
    factor); flat at and below u0."""
    if U <= gt.cv.u0:
        return T ** (gt.d - 1) * gt.model.p(0.0)
    ap = abs(gt.model.dp(U))
    return T ** (gt.d - 1) * (gt.model.p(U)
                              + ap ** (1.0 + gt.omega) * gt.g(U))


def solve_spatial(spec: ProblemSpec, n_samples: int = 256) -> BodySolution:
    """Globally optimal body of revolution for d >= 3."""
    if spec.d < 3:
        raise InvalidParameter(f"solve_spatial needs d >= 3, got {spec.d}")
    pc = pair_criticals(spec.p_plus, spec.p_minus, spec.d)
    T, H, d = spec.T, spec.H, spec.d
    h = H / T
    gt_plus = GTable(spec.p_plus, pc.plus, d)
    gt_minus = GTable(spec.p_minus, pc.minus, d)
    z_minus = pc.minus.u0  # a flat rear (u0 is inf for a zero rear law)
    if h <= pc.h_star:
        # rear flat: the front carries the whole height
        try:
            z_plus = _invert_height(gt_plus, h)
        except NoConvergence as err:
            raise NoConvergence(f"front height solve failed: {err}",
                                bracket=err.bracket,
                                residual=err.residual) from err
    else:
        # curved rear: both branches share one multiplier, so z_plus
        # follows from z_minus without quadrature and the heights give
        # one equation
        def front_slope(z: float) -> float:
            try:
                return slope_at_multiplier(spec.p_plus, pc.plus,
                                           -spec.p_minus.dp(z))
            except NoConvergence as err:
                raise NoConvergence(
                    f"inner front slope solve failed at z_minus={z:g}: {err}",
                    bracket=err.bracket, residual=err.residual) from err

        def split_balance(z: float) -> float:
            # exactly h_star - h < 0 at u0_minus, where front_slope is
            # u_star; rises to b_plus > 0 where b_minus = h
            return gt_plus.b(front_slope(z)) + gt_minus.b(z) - h

        lo, hi = grow_bracket_upper(split_balance, pc.minus.u0,
                                    max(pc.minus.u0, 1.0))
        _check_curvature(gt_minus, hi)
        z_minus = lo if lo == hi else bracket_root(split_balance, lo, hi)
        z_plus = front_slope(z_minus)
        _check_curvature(gt_plus, z_plus)

    factor = spec.resistance_factor

    def branch(gt: GTable, z: float) -> tuple:  # zero rear: flat, p(0) = 0
        profile, lam, U = extremal_from_U(gt, z, T, n_samples)
        R = (factor * T ** (d - 1) * gt.model.p(0.0) if U <= gt.cv.u0
             else factor * resistance_branch(gt, U, T))
        return profile, lam, U, R

    try:
        front, rear = branch(gt_plus, z_plus), branch(gt_minus, z_minus)
    except OverflowError as err:  # ProblemSpec has checked T**(d-1)
        raise InvalidParameter(f"T={T!r}, d={d}: a branch extremal or "
                               "resistance overflows") from err
    return BodySolution.from_branches(
        spec, FLAT_DISK if H == 0.0 else SPATIAL,
        split_height(H, rear[0].beta)[::-1], front, rear)
