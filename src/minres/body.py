"""Problem description and the geometric data model for solutions.

A body of revolution with radius T and height H is described by two
monotone profiles on the radial interval [0, T]: the front surface
measured down from the top and the rear surface measured up from the
base.  Each profile is a tiling of straight spans (slope 0 on a flat
cap) and sampled arcs, walked as one row sequence by Profile.knots();
x(0) = 0 and x(T) = beta is the height that surface carries, with
beta_front + beta_rear = H.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter
from .pressure import PressureModel

# case labels reported by the solvers
FLAT_DISK = "FlatDisk"
FRONT_TRAPEZIUM = "FrontTrapezium"
FRONT_TRIANGLE = "FrontTriangle"
TRIANGLE_OVER_TRAPEZIUM = "TriangleOverTrapezium"
DOUBLE_TRIANGLE = "DoubleTriangle"
SPATIAL = "Spatial"


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@dataclass(frozen=True)
class ProblemSpec:
    d: int
    T: float
    H: float
    p_plus: PressureModel
    p_minus: PressureModel
    include_ball_volume: bool = False

    def __post_init__(self):
        if not (isinstance(self.d, int) and self.d >= 2):
            raise InvalidParameter(
                f"dimension must be an integer >= 2, got {self.d!r}")
        if not (isinstance(self.T, (int, float)) and math.isfinite(self.T)
                and self.T > 0.0):
            raise InvalidParameter(f"T must be positive finite, got {self.T!r}")
        try:  # every resistance carries T**(d-1): it must be a normal float
            fault = ("underflows" if self.T ** (self.d - 1)
                     < sys.float_info.min else None)
        except OverflowError:
            fault = "overflows"
        if fault:
            raise InvalidParameter(f"T={self.T!r} is out of range: "
                                   f"T**{self.d - 1} {fault}")
        if not (isinstance(self.H, (int, float)) and math.isfinite(self.H)
                and self.H >= 0.0):
            raise InvalidParameter(
                f"H must be nonnegative finite, got {self.H!r}")
        if self.p_plus.is_zero:
            raise InvalidParameter("front pressure law must not be zero")

    @property
    def resistance_factor(self) -> float:
        """Multiplier applied to all reported resistances."""
        return unit_ball_volume(self.d - 1) if self.include_ball_volume else 1.0


@dataclass(frozen=True)
class Linear:
    t_from: float
    t_to: float
    slope: float


@dataclass(frozen=True)
class ParamArc:
    """Sampled strictly convex span: (t, x, u) triples, t ascending.

    x values are absolute profile heights and u is the exact slope at
    each sample, so quadrature on an arc needs no re-derivation.
    """

    samples: tuple  # of (t, x, u)

    @property
    def t_from(self) -> float:
        return self.samples[0][0]

    @property
    def t_to(self) -> float:
        return self.samples[-1][0]


_TILE_TOL = 1e-9


@dataclass(frozen=True)
class Profile:
    """Monotone profile x(t) on [0, T]: tiled segments, read by knots()."""

    T: float
    segments: tuple
    beta: float
    _starts: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.segments:
            raise InvalidParameter("profile needs at least one segment")
        rows = [_rows(seg) for seg in self.segments]
        if not all(map(math.isfinite, itertools.chain(
                (self.T, self.beta), *itertools.chain(*rows)))):
            raise InvalidParameter("profile holds a non-finite T, beta, "
                                   "segment end, slope or arc sample")
        cursor = 0.0
        x = 0.0
        starts = []
        for seg, seg_rows in zip(self.segments, rows):
            if abs(seg.t_from - cursor) > _TILE_TOL * max(1.0, self.T):
                raise InvalidParameter(
                    f"segments do not tile [0, T]: gap at t={seg.t_from}")
            if seg.t_to < seg.t_from:
                raise InvalidParameter("segment runs backwards")
            starts.append(x)
            x += seg_rows[-1][1] - seg_rows[0][1]
            cursor = seg.t_to
        if abs(cursor - self.T) > _TILE_TOL * max(1.0, self.T):
            raise InvalidParameter(
                f"segments end at t={cursor}, expected T={self.T}")
        if abs(x - self.beta) > 1e-6 * max(1.0, abs(self.beta)):
            raise InvalidParameter(
                f"segment rises sum to {x}, expected beta={self.beta}")
        object.__setattr__(self, "_starts", tuple(starts))

    def sample(self, ts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, slope, unambiguous) at every t of the 1-D grid ts.

        Slopes are right-continuous (at T: the final slope).
        unambiguous is False at interior kinks, where the one-sided
        slopes differ; there slope is the right-hand one.  Raises
        InvalidParameter at the first t outside [0, T].
        """
        grid = np.asarray(ts, dtype=float)
        inside = ((grid >= -_TILE_TOL)
                  & (grid <= self.T * (1.0 + _TILE_TOL) + _TILE_TOL))
        if not inside.all():
            t = ts[int(np.argmin(inside))]
            raise InvalidParameter(f"t={t} outside [0, {self.T}]")
        segs = self.segments
        # searchsorted right on segment ends gives right-continuity at kinks
        ends = np.array([seg.t_to for seg in segs])
        idx = np.minimum(np.searchsorted(ends, grid, side="right"),
                         len(segs) - 1)
        t_from = np.array([seg.t_from for seg in segs])[idx]
        u = np.array([seg.slope if isinstance(seg, Linear) else math.nan
                      for seg in segs])[idx]
        x = np.array(self._starts)[idx] + u * (grid - t_from)
        for i, seg in enumerate(segs):
            if isinstance(seg, ParamArc):
                on = idx == i
                if on.any():
                    x[on], u[on] = _arc_interp(seg, grid[on])
        # a kink is a segment start whose one-sided slopes differ
        kinks = np.array([False] + [
            _kink(_rows(prev)[-1][2], _rows(seg)[0][2])
            for prev, seg in zip(segs, segs[1:])])
        eps = _TILE_TOL * max(1.0, self.T)
        unambiguous = ~(kinks[idx] & (np.abs(grid - t_from) <= eps))
        return x, u, unambiguous

    def x_at(self, t: float) -> float:
        return self.sample((t,))[0].item()

    def slope_at(self, t: float) -> float:
        """Right-continuous slope (at T: the final slope)."""
        return self.sample((t,))[1].item()

    def slope_if_unambiguous(self, t: float) -> float | None:
        """As slope_at, but None at interior kinks (one-sided slopes differ)."""
        _, u, unambiguous = self.sample((t,))
        return u.item() if unambiguous[0] else None

    def knots(self):
        """(t, u) at each span's two ends and arc's samples, in order."""
        return ((t, u) for seg in self.segments for t, _, u in _rows(seg))

    def max_slope(self) -> float:
        return max(0.0, *(u for _, u in self.knots()))

    def is_convex(self) -> bool:
        """Whether slopes are nondecreasing (to 1e-9) along the profile."""
        us = (u for _, u in self.knots())
        return all(b >= a - 1e-9 for a, b in itertools.pairwise(us))


def _rows(seg: Linear | ParamArc) -> tuple:
    """(t, x, u) rows of one segment: a span's two ends, with x measured
    from its start, or an arc's samples."""
    if isinstance(seg, Linear):
        return ((seg.t_from, 0.0, seg.slope),
                (seg.t_to, seg.slope * (seg.t_to - seg.t_from), seg.slope))
    return seg.samples


def _kink(left: float, right: float) -> bool:
    return abs(left - right) > 1e-9 * max(1.0, abs(left), abs(right))


def _arc_interp(arc: ParamArc, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, u) on the arc at each t, linear between samples, clamped to
    the end samples outside them."""
    pts = np.array(arc.samples)
    ts = pts[:, 0]
    j = np.clip(np.searchsorted(ts, t, side="right"), 1, len(ts) - 1)
    t0, t1 = ts[j - 1], ts[j]
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (t - t0) / (t1 - t0)
    out = []
    for col in (1, 2):
        v0, v1 = pts[j - 1, col], pts[j, col]
        v = np.where(t1 == t0, v1, v0 + w * (v1 - v0))
        out.append(np.where(t <= ts[0], pts[0, col],
                            np.where(t >= ts[-1], pts[-1, col], v)))
    return out[0], out[1]


def split_height(H: float, first: float) -> tuple[float, float]:
    """(first, H - first), with first moved so the two sum to exactly H.

    H - first can round so that the sum misses H by an ulp.  That only
    happens when first < H/2; the rest is then at least H/2, so taking
    first back as H - rest is exact and the sum is exactly H.
    """
    rest = H - first
    if first + rest != H:
        first = H - rest
    return first, rest


def flat_profile(T: float) -> Profile:
    return Profile(T=T, segments=(Linear(0.0, T, 0.0),), beta=0.0)


@dataclass(frozen=True)
class BodySolution:
    """A solved body: both profiles, their heights and multipliers.

    beta_plus + beta_minus == H exactly; multipliers and resistances
    are finite.  For d >= 3 the heights the profiles reach, front.beta
    and rear.beta, are the ends of their sampled arcs.  The rear's is
    beta_minus, up to the one-ulp move of split_height.  The front's
    differs from beta_plus by T times what the root solves leave of the
    height balance b_plus(U_plus) + b_minus(U_minus) = H/T, and g enters
    each branch height as |p'(U)|^omega g(U) with g computed to delta_g:
    1e-11, or ~1e-14 g where g > ~1e4 and rounding dominates.  With a
    flat rear, U_plus solves b_plus(U) = H/T to the bracket width
    delta = 1e-12 + 4 eps U_plus.  So, with omega = 1/(d-2),
    b' = omega |p'|^(omega-1) p'' g and eps = 2^-52:

        |front.beta - beta_plus| <= T (b_plus'(U_plus) delta
            + delta_g (|p_plus'(U_plus)|^omega + |p_minus'(U_minus)|^omega))
            + 2 eps H,

    where the p_minus term is dropped when the rear is flat.  A split's
    last root is U_minus, on the balance itself; on both split rows of
    the acceptance matrix it leaves at most 2.5e-15 against this bound.
    """

    spec: ProblemSpec
    case_label: str
    front: Profile
    rear: Profile
    beta_plus: float
    beta_minus: float
    lambda_plus: float | None
    lambda_minus: float | None
    R_plus: float
    R_minus: float
    R_total: float
    U_plus: float | None = None
    U_minus: float | None = None

    @classmethod
    def from_branches(cls, spec: ProblemSpec, case_label: str, heights: tuple,
                      front: tuple, rear: tuple) -> "BodySolution":
        """The body whose branches carry heights (beta_plus, beta_minus)
        and are (profile, multiplier, terminal slope, resistance): a zero
        rear law has no multiplier, a branch with no height no slope."""
        (f_prof, lam_p, U_p, R_p), (r_prof, lam_m, U_m, R_m) = front, rear
        beta_p, beta_m = heights
        return cls(spec=spec, case_label=case_label, front=f_prof,
                   rear=r_prof, beta_plus=beta_p, beta_minus=beta_m,
                   lambda_plus=lam_p,
                   lambda_minus=None if spec.p_minus.is_zero else lam_m,
                   R_plus=R_p, R_minus=R_m, R_total=R_p + R_m,
                   U_plus=None if beta_p == 0.0 else U_p,
                   U_minus=None if beta_m == 0.0 else U_m)

    def __post_init__(self):
        if self.beta_plus + self.beta_minus != self.spec.H:
            raise InvalidParameter(
                f"branch heights {self.beta_plus!r} + {self.beta_minus!r} "
                f"do not sum to H={self.spec.H!r}")
        for name in ("lambda_plus", "lambda_minus", "R_plus", "R_minus",
                     "R_total"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InvalidParameter(f"{name}={value!r} is not finite")
