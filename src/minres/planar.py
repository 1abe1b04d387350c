"""Planar (d = 2) solver: optimal profiles are piecewise linear.

With aspect ratio h = H/T the minimizer takes one of four shapes
(FlatDisk when H = 0):

  1. 0 < h < u0_plus          front flat cap + slope-u0 span, rear flat
  2. u0_plus <= h <= u_star   front one straight span of slope h, rear flat
  3. u_star < h < u_star+u0m  front slope u_star, rear flat cap + slope-u0m
  4. h >= u_star + u0m        both straight; split solves
                              p_plus'(z) = p_minus'(h - z)

Fronts pay T*relaxed_plus(beta_plus/T), rears T*relaxed_minus(beta_minus/T).
The reported multiplier is the one that makes each slope the pointwise
minimizer of p(u) + lambda*u: B on a flat-capped branch, |p'(slope)| on
a single straight span of slope >= u0 (the two agree at slope u0).
"""

from __future__ import annotations

from .body import (DOUBLE_TRIANGLE, FLAT_DISK, FRONT_TRAPEZIUM, FRONT_TRIANGLE,
                   TRIANGLE_OVER_TRAPEZIUM, BodySolution, Linear, Profile,
                   ProblemSpec, flat_profile, split_height)
from .criticals import PairCriticals, pair_criticals, relaxed_p
from .errors import InvalidParameter
from .numerics import bracket_root


def classify2d(spec: ProblemSpec, pc: PairCriticals | None = None) -> str:
    """Case label for a planar problem; computes pair criticals if needed."""
    if spec.d != 2:
        raise InvalidParameter(f"planar classification needs d=2, got {spec.d}")
    if spec.H == 0.0:
        return FLAT_DISK
    if pc is None:
        pc = pair_criticals(spec.p_plus, spec.p_minus, 2)
    h = spec.H / spec.T
    # Thresholds carry ~1e-15 numerical error; at an exact boundary the
    # neighboring solutions coincide, so nudge comparisons toward the
    # inclusive side rather than strict floating-point order.
    tol = 1e-12
    if h < pc.plus.u0 * (1.0 - tol):
        return FRONT_TRAPEZIUM
    if h <= pc.u_star * (1.0 + tol):
        return FRONT_TRIANGLE
    if h < (pc.u_star + pc.minus.u0) * (1.0 - tol):
        return TRIANGLE_OVER_TRAPEZIUM
    return DOUBLE_TRIANGLE


def _cap_then_slope(T: float, beta: float, slope: float) -> Profile:
    """Flat cap followed by a straight span of the given slope."""
    t_knee = T - beta / slope
    if t_knee <= 0.0:
        return Profile(T=T, segments=(Linear(0.0, T, slope),), beta=beta)
    return Profile(T=T, segments=(Linear(0.0, t_knee, 0.0),
                                  Linear(t_knee, T, slope)), beta=beta)


def solve2d(spec: ProblemSpec) -> BodySolution:
    """Globally optimal planar body for the given spec."""
    if spec.d != 2:
        raise InvalidParameter(f"solve2d needs d=2, got {spec.d}")
    pc = pair_criticals(spec.p_plus, spec.p_minus, 2)
    label = classify2d(spec, pc)
    T, H = spec.T, spec.H
    h = H / T
    factor = spec.resistance_factor
    pp, pm = spec.p_plus, spec.p_minus
    rear_zero = pm.is_zero

    if label == FLAT_DISK:
        front = flat_profile(T)
        rear = flat_profile(T)
        beta_p = beta_m = 0.0
        lam_p = pc.plus.B
        lam_m = None if rear_zero else pc.minus.B
        U_p = U_m = None
    elif label == FRONT_TRAPEZIUM:
        front = _cap_then_slope(T, H, pc.plus.u0)
        rear = flat_profile(T)
        beta_p, beta_m = H, 0.0
        lam_p = pc.plus.B
        lam_m = None if rear_zero else pc.minus.B
        U_p, U_m = pc.plus.u0, None
    elif label == FRONT_TRIANGLE:
        front = Profile(T=T, segments=(Linear(0.0, T, h),), beta=H)
        rear = flat_profile(T)
        beta_p, beta_m = H, 0.0
        lam_p = abs(pp.dp(h))
        lam_m = None if rear_zero else pc.minus.B
        U_p, U_m = h, None
    elif label == TRIANGLE_OVER_TRAPEZIUM:
        # closed-form split: the front runs exactly at u_star
        beta_p, beta_m = split_height(H, T * pc.u_star)
        front = Profile(T=T, segments=(Linear(0.0, T, pc.u_star),), beta=beta_p)
        rear = _cap_then_slope(T, beta_m, pc.minus.u0)
        lam_p = abs(pp.dp(pc.u_star))  # = -p_minus'(u0_minus) ~ B_minus
        lam_m = pc.minus.B
        U_p, U_m = pc.u_star, pc.minus.u0
    else:  # DOUBLE_TRIANGLE
        lo, hi = pc.plus.u0, h - pc.minus.u0

        def split_balance(z: float) -> float:
            return pp.dp(z) - pm.dp(h - z)

        z = hi if split_balance(hi) <= 0.0 else bracket_root(split_balance, lo, hi)
        beta_p, beta_m = split_height(H, T * z)
        front = Profile(T=T, segments=(Linear(0.0, T, z),), beta=beta_p)
        rear = Profile(T=T, segments=(Linear(0.0, T, h - z),), beta=beta_m)
        lam_p = abs(pp.dp(z))
        lam_m = abs(pm.dp(h - z))
        U_p, U_m = z, h - z

    R_p = factor * T * relaxed_p(pp, pc.plus, beta_p / T)
    R_m = 0.0 if rear_zero else factor * T * relaxed_p(pm, pc.minus, beta_m / T)
    return BodySolution(spec=spec, case_label=label, front=front, rear=rear,
                        beta_plus=beta_p, beta_minus=beta_m,
                        lambda_plus=lam_p, lambda_minus=lam_m,
                        R_plus=R_p, R_minus=R_m, R_total=R_p + R_m,
                        U_plus=U_p, U_minus=U_m)

