"""Problem description and the geometric data model for solutions.

A body of revolution with radius T and height H is described by two
monotone profiles on the radial interval [0, T]: the front surface
measured down from the top and the rear surface measured up from the
base.  Each profile is a tiling of straight spans (slope 0 on a flat
cap) and sampled arcs, kept as one table of (t, x, u) rows: a span's
two ends and an arc's samples.  x(0) = 0 and x(T) = beta is the height
that surface carries, with beta_front + beta_rear = H.
"""

from __future__ import annotations

import functools
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

    def __post_init__(self):
        if len(self.samples) < 2 or set(map(len, self.samples)) != {3}:
            raise InvalidParameter("an arc needs two or more (t, x, u) samples")

    @property
    def t_from(self) -> float:
        return self.samples[0][0]

    @property
    def t_to(self) -> float:
        return self.samples[-1][0]


_TILE_TOL = 1e-9


@dataclass(frozen=True)
class Profile:
    """Monotone profile x(t) on [0, T]: tiled segments, kept as one
    table of (t, x, u) rows that every reader reads."""

    T: float
    segments: tuple
    beta: float
    _table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.segments:
            raise InvalidParameter("profile needs at least one segment")
        rows, x, tol = [], 0.0, _TILE_TOL * max(1.0, self.T)
        for seg in self.segments:
            # the profile starts at 0 to tol; interior joints meet exactly
            if seg.t_from != rows[-1][0] if rows else abs(seg.t_from) > tol:
                raise InvalidParameter(
                    f"segments do not tile [0, T]: gap at t={seg.t_from}")
            if isinstance(seg, Linear):
                if seg.t_to < seg.t_from:
                    raise InvalidParameter("segment runs backwards")
                x0, x = x, x + seg.slope * (seg.t_to - seg.t_from)
                rows += ((seg.t_from, x0, seg.slope), (seg.t_to, x, seg.slope))
            else:  # arc heights are absolute; x carries only the rise
                rows += seg.samples
                x += seg.samples[-1][1] - seg.samples[0][1]
        ts, _, _ = table = tuple(zip(*rows))
        # a finite sum has only finite terms, so the scan rarely runs
        if not (math.isfinite(sum(map(sum, table), self.T + self.beta))
                or all(map(math.isfinite, itertools.chain(
                    (self.T, self.beta), *table)))):
            raise InvalidParameter("profile holds a non-finite T, beta, "
                                   "segment end, slope or arc sample")
        # only arc radii can run back (spans run forward), by rounding
        if list(ts) != sorted(ts) and any(
                b < a - tol for a, b in itertools.pairwise(ts)):
            raise InvalidParameter("arc radii run backwards")
        if abs(ts[-1] - self.T) > tol:
            raise InvalidParameter(
                f"segments end at t={ts[-1]}, expected T={self.T}")
        if abs(x - self.beta) > 1e-6 * max(1.0, abs(self.beta)):
            raise InvalidParameter(
                f"segment rises sum to {x}, expected beta={self.beta}")
        object.__setattr__(self, "_table", table)

    @functools.cached_property
    def _columns(self) -> tuple:
        """Arrays t, (x, u) and per row its segment's first and last row,
        whether that segment is a span and whether it starts at a kink."""
        t, _, u = rows = np.array(self._table, dtype=float)
        spans = [isinstance(seg, Linear) for seg in self.segments]
        sizes = [2 if span else len(seg.samples)
                 for span, seg in zip(spans, self.segments)]
        firsts = np.cumsum(sizes) - sizes
        kinks = [k > 0 and abs(u[k - 1] - u[k])
                 > 1e-9 * max(1.0, abs(u[k - 1]), abs(u[k])) for k in firsts]
        return (t, rows[1:], *(np.repeat(c, sizes) for c in
                               (firsts, firsts + sizes - 1, spans, kinks)))

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
        t, xu, first, last, span, kink = self._columns
        # the row pair around each t, searched on running maxima as arc radii
        # may run back by rounding; side="right" makes slopes right-continuous
        j = np.searchsorted(np.maximum.accumulate(t), grid, side="right")
        i = np.clip(j, 1, len(t) - 1) - 1
        f, e, t0, v0, v1 = first[i], last[i], t[i], xu[:, i], xu[:, i + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            w = (grid - t0) / (t[i + 1] - t0)
            # an arc is linear between rows and held at its end rows;
            # a span runs on past them
            arc = np.where(grid <= t[f], xu[:, f],
                           np.where(grid >= t[e], xu[:, e], v0 + w * (v1 - v0)))
            x = np.where(span[i], v0[0] + v0[1] * (grid - t0), arc[0])
        return (x, np.where(span[i], v0[1], arc[1]), ~(kink[i] & (
            np.abs(grid - t[f]) <= _TILE_TOL * max(1.0, self.T))))

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
        return zip(self._table[0], self._table[2])

    def max_slope(self) -> float:
        return max(0.0, *self._table[2])

    def is_convex(self) -> bool:
        """Whether slopes are nondecreasing (to 1e-9) along the profile."""
        return all(b >= a - 1e-9 for a, b in itertools.pairwise(self._table[2]))


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
