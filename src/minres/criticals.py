"""Critical slopes of a pressure law and of a front/rear pair.

For a single law: u_bar is where p' turns from decreasing to
increasing, u0 maximizes the pressure drop per unit slope
(p(0) - p(u))/u, and B is that maximal drop rate (= -p'(u0)).  Any
optimal profile uses slopes 0 or >= u0 only, so the effective law is
the relaxed one: linear with slope -B up to u0, then p itself.

For a pair: u_star is the front slope at which the front's marginal
drop equals the rear's at its critical slope, p_plus'(u_star) =
p_minus'(u0_minus), which is -B_minus up to the stationarity residual
of u0_minus; above it the rear surface starts carrying height.  h_star
= b_plus(u_star) (d >= 3) is the aspect ratio at which that transition
happens: the d >= 3 split balance, evaluated at z_minus = u0_minus, is
exactly h_star - h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolated, InvalidParameter, NoConvergence, NotUnimodal
from .numerics import bracket_root, grow_bracket_upper
from .pressure import PressureModel, turning_point


@dataclass(frozen=True)
class CriticalValues:
    u_bar: float
    u0: float
    B: float


def _scan_peaks(model: PressureModel, p0: float):
    """Drop rate (p0 - p(u))/u on a doubling grid over (0, 1e6].

    Returns (grid, values, peaks).
    """
    grid = np.append(1e-6 * 2.0 ** np.arange(40), 1e6)
    vals = ((p0 - model.eval_many(grid)[0]) / grid).tolist()
    peaks = [i for i in range(1, len(vals) - 1)
             if vals[i - 1] < vals[i] >= vals[i + 1]]
    return grid.tolist(), vals, peaks


def critical_values(model: PressureModel) -> CriticalValues:
    """Locate (u_bar, u0, B); raises NotUnimodal on multi-peaked laws."""
    if model.is_zero:
        raise InvalidParameter("critical values undefined for the zero law")
    p0 = model.p(0.0)
    us, vals, peaks = _scan_peaks(model, p0)
    if not peaks:
        # maximum at the scan edge: law keeps improving toward 0 or 1e6
        raise NotUnimodal("no interior maximum of the drop rate",
                          witnesses=(us[0], us[-1]))
    fmax = max(vals[i] for i in peaks)
    if len(peaks) > 1:
        # a secondary peak is real if the valley between drops below it
        for a, b in zip(peaks, peaks[1:]):
            valley = min(vals[a:b + 1])
            if min(vals[a], vals[b]) - valley > 1e-9 * abs(fmax):
                raise NotUnimodal(
                    "multiple local maxima of the drop rate",
                    witnesses=(us[a], us[b]))
    k = max(peaks, key=lambda i: vals[i])
    lo, hi = us[k - 1], us[k + 1]

    # the drop rate r(u) = (p(0) - p(u))/u has r' = -s/u^2 with the
    # stationarity function s(u) = p(0) - p(u) + u p'(u), so s changes
    # sign on the peak's bracket, increasing through u0
    def stationarity(u: float) -> float:
        p, dp, _ = model.eval(u)
        return p0 - p + u * dp

    u0 = bracket_root(stationarity, lo, hi)
    B = (p0 - model.p(u0)) / u0

    residual = abs(-model.dp(u0) - B)
    if residual > 1e-9 * max(abs(B), 1e-12):
        raise NoConvergence("stationarity residual too large at u0",
                            bracket=(lo, hi), residual=residual)

    # u_bar: the curvature sign change below u0
    grid = np.geomspace(max(1e-9, u0 * 1e-6), u0, 128)
    d2 = model.eval_many(grid)[2]
    u_bar = turning_point(model, grid, d2)
    if u_bar is None:
        raise NotUnimodal("no curvature sign change below u0",
                          witnesses=(float(grid[0]), u0))
    if not u_bar < u0:
        raise NotUnimodal(f"turning point {u_bar} not below u0 {u0}")
    return CriticalValues(u_bar=u_bar, u0=u0, B=B)


def relaxed_p(model: PressureModel, cv: CriticalValues, u: float) -> float:
    """Convexified law: p(0) - B u below u0, p(u) at and above."""
    if u < 0.0:
        raise InvalidParameter(f"slope must be nonnegative, got {u}")
    if u <= cv.u0:
        return model.p(0.0) - cv.B * u
    return model.p(u)


def slope_at_multiplier(model: PressureModel, cv: CriticalValues,
                        mu: float) -> float:
    """The slope z >= u0 with p'(z) = -mu, for 0 < mu <= B; u0 itself
    when mu >= -p'(u0), which B exceeds by the stationarity residual."""
    def marginal(u: float) -> float:
        return model.dp(u) + mu

    if marginal(cv.u0) >= 0.0:
        return cv.u0
    lo, hi = grow_bracket_upper(marginal, cv.u0, max(cv.u0, 1.0))
    return bracket_root(marginal, lo, hi) if lo != hi else lo


_ZERO_SENTINEL = CriticalValues(u_bar=0.0, u0=math.inf, B=0.0)


@dataclass(frozen=True)
class PairCriticals:
    plus: CriticalValues
    minus: CriticalValues
    u_star: float  # p_plus'(u_star) = p_minus'(u0_minus); +inf for a zero rear
    h_star: float | None  # b_plus(u_star), the curved-rear threshold; d >= 3 only


def pair_criticals(p_plus: PressureModel, p_minus: PressureModel,
                   d: int) -> PairCriticals:
    """Criticals of a front/rear pair plus the shared thresholds.

    Enforces the standing assumptions: B_plus > B_minus and
    p_plus' < p_minus' for u > 0 (sampled).  The zero rear law gets the
    sentinel (u_bar=0, u0=inf, B=0), which makes its relaxed law
    identically zero and pushes u_star (and h_star) to infinity.
    """
    if not (isinstance(d, int) and d >= 2):
        raise InvalidParameter(f"dimension must be an integer >= 2, got {d}")
    if p_plus.is_zero:
        raise InvalidParameter("front pressure law must not be zero")
    plus = critical_values(p_plus)
    minus = _ZERO_SENTINEL if p_minus.is_zero else critical_values(p_minus)

    if not plus.B > minus.B:
        raise AssumptionViolated(
            f"front drop rate {plus.B} must exceed rear drop rate {minus.B}")
    if not p_minus.is_zero:
        # strictness holds only away from 0 (both derivatives vanish there)
        us = np.geomspace(1e-6, 1e4, 128)
        _, dpp, _, err_plus = p_plus.eval_prefix(us)
        # the rear law is evaluated where the front law was, so the
        # earliest failing slope wins, whichever law or check it hits
        _, dpm, _, err_minus = p_minus.eval_prefix(us[:dpp.size])
        dpp = dpp[:dpm.size]
        tol = 1e-14 * np.maximum(np.maximum(1.0, np.abs(dpp)), np.abs(dpm))
        fails = np.flatnonzero(dpp >= dpm - tol)
        if fails.size:
            i = fails[0]
            u = float(us[i])
            raise AssumptionViolated(
                f"p_plus'({u:g})={dpp[i]:g} not below "
                f"p_minus'({u:g})={dpm[i]:g}", witness=u)
        for err in (err_minus, err_plus):
            if err is not None:
                raise err

    u_star = (math.inf if minus.B == 0.0 else slope_at_multiplier(
        p_plus, plus, -p_minus.dp(minus.u0)))

    h_star: float | None = None
    if d >= 3:
        if math.isinf(u_star):
            h_star = math.inf
        else:
            from .spatial import GTable  # deferred: spatial depends on this module
            h_star = GTable(p_plus, plus, d).b(u_star)
    return PairCriticals(plus=plus, minus=minus, u_star=u_star, h_star=h_star)
