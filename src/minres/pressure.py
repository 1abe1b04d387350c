"""Pressure laws p(u) and their validation.

A law maps the profile slope u >= 0 to the normal pressure felt by the
body surface.  Three kinds are supported: the builtin rational family
scale/(1+u^2)+offset, a user expression in u, and the identically zero
law (used for a rear surface that feels no flux).  Validation checks
the structural conditions the solvers rely on:

  (i)   p, p', p'' finite on the sampled range,
  (ii)  p(u) flattens toward a limit at large u,
  (iii) p'(0) = 0 and p'(u) -> 0 at large u,
  (iv)  p' strictly decreases then increases (one sign change of p'').

Violations are data, not exceptions; solvers hard-fail separately on
the conditions their own algorithms need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import exprlang
from .errors import DomainError, InvalidParameter
from .exprlang import Expr
from .numerics import bracket_root


@dataclass(frozen=True)
class PressureModel:
    kind: str  # "newton" | "expr" | "zero"
    scale: float = 1.0
    offset: float = 0.0
    expr: Expr | None = None
    # expr compiled once for eval2; derived from expr, so left out of
    # ==, hash and repr
    law: object = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind == "expr":
            object.__setattr__(self, "law", exprlang.compile2(self.expr))

    def __reduce__(self):
        # closures do not pickle; the copy compiles expr again
        return PressureModel, (self.kind, self.scale, self.offset, self.expr)

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    def p(self, u: float) -> float:
        if self.kind == "newton":
            return self.scale / (1.0 + u * u) + self.offset
        if self.kind == "zero":
            return 0.0
        return exprlang.eval2(self.law, u).value

    def dp(self, u: float) -> float:
        if self.kind == "newton":
            s = 1.0 + u * u
            return -2.0 * self.scale * u / (s * s)
        if self.kind == "zero":
            return 0.0
        return exprlang.eval2(self.law, u).d1

    def d2p(self, u: float) -> float:
        if self.kind == "newton":
            s = 1.0 + u * u
            return self.scale * (6.0 * u * u - 2.0) / (s * s * s)
        if self.kind == "zero":
            return 0.0
        return exprlang.eval2(self.law, u).d2

    def eval(self, u: float) -> tuple[float, float, float]:
        """(p, p', p'') in one pass."""
        if self.kind == "expr":
            d = exprlang.eval2(self.law, u)
            return d.value, d.d1, d.d2
        return self.p(u), self.dp(u), self.d2p(u)

    def eval_prefix(self, us) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                       DomainError | None]:
        """(p, p', p'') over the longest prefix of the slope grid us that
        evaluates, and the DomainError raised at the next slope (None
        when all of us does).

        One pass for the whole grid, bit-identical to eval at each
        slope.  A caller that checks each slope as it goes checks the
        prefix and then raises the error, so the earliest failure in
        grid order wins, as in a loop of eval calls.
        """
        us = np.asarray(us, dtype=float)
        if self.kind == "expr":
            d, err = exprlang.eval_prefix(self.law, us)
            return d.value, d.d1, d.d2, err
        if self.kind == "zero":
            return (np.zeros(us.size), np.zeros(us.size), np.zeros(us.size),
                    None)
        # the operation order of p, dp and d2p; huge slopes overflow to
        # inf and 0 as in scalar float arithmetic, without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            s = 1.0 + us * us
            return (self.scale / s + self.offset,
                    -2.0 * self.scale * us / (s * s),
                    self.scale * (6.0 * us * us - 2.0) / (s * s * s), None)

    def eval_many(self, us) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(p, p', p'') at every slope of the grid us in one pass.

        Raises the DomainError of the first slope that fails.
        """
        p, dp, d2p, err = self.eval_prefix(us)
        if err is not None:
            raise err
        return p, dp, d2p

    def describe(self) -> str:
        """Canonical one-line source form, echoed in reports."""
        if self.kind == "newton":
            return f"newton:{self.scale:g},{self.offset:g}"
        if self.kind == "zero":
            return "zero"
        return exprlang.format_expr(self.expr)


def make_builtin(scale: float = 1.0, offset: float = 0.0) -> PressureModel:
    scale = float(scale)
    offset = float(offset)
    if not (math.isfinite(scale) and math.isfinite(offset)):
        raise InvalidParameter("scale and offset must be finite")
    if scale <= 0.0:
        raise InvalidParameter(f"scale must be positive, got {scale}")
    return PressureModel(kind="newton", scale=scale, offset=offset)


def make_zero() -> PressureModel:
    return PressureModel(kind="zero")


def make_expr(source: str | Expr) -> PressureModel:
    node = exprlang.parse(source) if isinstance(source, str) else source
    return PressureModel(kind="expr", expr=node)


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    limit_at_infinity: float | None  # None when p is undefined somewhere
    u_bar_estimate: float | None
    violations: tuple  # of (condition, witness_u, description)


def validate(model: PressureModel) -> ValidationReport:
    """Advisory structural check of a pressure law.

    Samples 256 slopes on [1e-8, 1e6] and compares against a relative
    tolerance of 1e-6.  The zero law is exempt by construction.  A slope
    where the law is undefined fails (i), and the checks stop there.
    """
    if model.is_zero:
        return ValidationReport(True, 0.0, None, ())
    violations = []
    try:
        limit, u_bar = _check_conditions(model, violations)
    except DomainError as err:
        violations.append(("i", err.u, str(err)))
        limit = u_bar = None
    return ValidationReport(not violations, limit, u_bar, tuple(violations))


def _check_conditions(model: PressureModel, violations: list):
    """Appends the violations of (i)-(iv); returns (limit, u_bar)."""
    u_max, n_samples, tol = 1e6, 256, 1e-6
    grid = np.geomspace(1e-8, u_max, n_samples)
    p0, dp0, _ = model.eval(0.0)
    scale = max(1.0, abs(p0))

    vals, d1s, d2s = model.eval_many(grid)

    bad = np.flatnonzero(~(np.isfinite(vals) & np.isfinite(d1s)
                           & np.isfinite(d2s)))
    if bad.size:
        violations.append(("i", float(grid[bad[0]]),
                           "non-finite p, p' or p''"))

    p_max, dp_max = float(vals[-1]), float(d1s[-1])  # the grid ends at u_max
    tail = abs(p_max - model.p(u_max / 2.0))
    if tail > 100.0 * tol * scale:
        violations.append(("ii", u_max,
                           f"no limit at infinity: |p({u_max:g})-p({u_max / 2:g})|={tail:g}"))

    if abs(dp0) > tol * scale:
        violations.append(("iii", 0.0, f"p'(0)={dp0:g} not ~0"))
    if abs(dp_max) > tol * scale:
        violations.append(("iii", u_max, f"p'({u_max:g})={dp_max:g} not ~0"))

    # condition (iv): p'' sign pattern -...-+...+ with a 1e-9 dead-band
    signs = np.where(d2s > 1e-9, 1, np.where(d2s < -1e-9, -1, 0))
    nz = signs[signs != 0]
    u_bar_estimate = None
    if nz.size == 0 or nz[0] != -1 or nz[-1] != 1:
        witness = float(grid[np.flatnonzero(signs != 0)[0]]) if nz.size else 0.0
        violations.append(("iv", witness,
                           "p' is not decreasing-then-increasing"))
    else:
        flips = np.flatnonzero(np.diff(nz) != 0)
        if flips.size != 1:
            idx = np.flatnonzero(signs != 0)
            witness = float(grid[idx[flips[1] + 1]])
            violations.append(("iv", witness,
                               "multiple curvature sign changes"))
        # refine the -/+ crossing for the turning-point estimate
        neg_idx = np.flatnonzero(signs == -1)
        pos_idx = np.flatnonzero(signs == 1)
        if neg_idx.size and pos_idx.size and neg_idx[0] < pos_idx[-1]:
            lo = float(grid[neg_idx[-1]])
            hi_candidates = pos_idx[pos_idx > neg_idx[-1]]
            if hi_candidates.size:
                hi = float(grid[hi_candidates[0]])
                u_bar_estimate = bracket_root(lambda v: model.d2p(v), lo, hi)

    return p_max, u_bar_estimate
