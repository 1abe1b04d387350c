"""Planar (d = 2) solver: optimal profiles are piecewise linear.

With aspect ratio h = H/T the minimizer takes one of four shapes
(FlatDisk when H = 0); the label picks only the slopes and the split:

  1. 0 < h < u0_plus          front flat cap + slope-u0 span, rear flat
  2. u0_plus <= h <= u_star   front one straight span of slope h, rear flat
  3. u_star < h < u_star+u0m  front slope u_star, rear flat cap + slope-u0m
  4. h >= u_star + u0m        both straight; split solves
                              p_plus'(z) = p_minus'(h - z)

One rule builds every branch.  It pays T*relaxed_p(beta/T), and its
multiplier makes its slope the pointwise minimizer of p(u) + lambda*u:
B on a flat or capped branch, |p'(slope)| on a straight span of slope
>= u0 (the two agree at slope u0).
"""

from __future__ import annotations

from .body import (DOUBLE_TRIANGLE, FLAT_DISK, FRONT_TRAPEZIUM, FRONT_TRIANGLE,
                   TRIANGLE_OVER_TRAPEZIUM, BodySolution, Linear, Profile,
                   ProblemSpec, split_height)
from .criticals import (CriticalValues, PairCriticals, pair_criticals,
                        relaxed_p)
from .errors import InvalidParameter
from .numerics import bracket_root
from .pressure import PressureModel


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


def _branch(spec: ProblemSpec, model: PressureModel, cv: CriticalValues,
            beta: float, slope: float | None = None, capped: bool = False):
    """(profile, multiplier, terminal slope, resistance) of a branch: flat
    without a slope, else a span of that slope, after a flat cap if capped."""
    T = spec.T
    if slope is None:
        segments, lam = (Linear(0.0, T, 0.0),), cv.B
    else:
        t_knee = T - beta / slope if capped else 0.0
        segments = ((Linear(0.0, T, slope),) if t_knee <= 0.0 else
                    (Linear(0.0, t_knee, 0.0), Linear(t_knee, T, slope)))
        lam = cv.B if capped else abs(model.dp(slope))
    profile = Profile(T=T, segments=segments, beta=beta)
    R = (0.0 if model.is_zero else
         spec.resistance_factor * T * relaxed_p(model, cv, beta / T))
    return profile, lam, slope, R


def solve2d(spec: ProblemSpec) -> BodySolution:
    """Globally optimal planar body for the given spec."""
    if spec.d != 2:
        raise InvalidParameter(f"solve2d needs d=2, got {spec.d}")
    pc = pair_criticals(spec.p_plus, spec.p_minus, 2)
    label = classify2d(spec, pc)
    T, H = spec.T, spec.H
    h = H / T
    pp, pm = spec.p_plus, spec.p_minus

    # each branch is (slope, capped); no slope is a flat branch
    front = rear = ()
    heights = (0.0, 0.0) if label == FLAT_DISK else (H, 0.0)  # H may be -0.0
    if label == FRONT_TRAPEZIUM:
        front = (pc.plus.u0, True)
    elif label == FRONT_TRIANGLE:
        front = (h,)
    elif label == TRIANGLE_OVER_TRAPEZIUM:
        # closed-form split: the front runs exactly at u_star, where
        # |p_plus'| = |p_minus'(u0_minus)| ~ B_minus
        front, rear = (pc.u_star,), (pc.minus.u0, True)
        heights = split_height(H, T * pc.u_star)
    elif label == DOUBLE_TRIANGLE:
        lo, hi = pc.plus.u0, h - pc.minus.u0

        def split_balance(z: float) -> float:
            return pp.dp(z) - pm.dp(h - z)

        z = hi if split_balance(hi) <= 0.0 else bracket_root(split_balance, lo, hi)
        front, rear = (z,), (h - z,)
        heights = split_height(H, T * z)
    return BodySolution.from_branches(
        spec, label, heights,
        _branch(spec, pp, pc.plus, heights[0], *front),
        _branch(spec, pm, pc.minus, heights[1], *rear))
