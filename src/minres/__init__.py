"""Globally optimal profiles of convex bodies of revolution.

Given a body radius T, height H, dimension d >= 2, and pressure laws
felt by the front and rear surfaces, `solve` returns the profile pair
minimizing total resistance over all convex bodies of revolution,
together with the Pontryagin multipliers that certify global
optimality.  The `oracle` module provides independent certification
(sampled maximality check and a brute-force dynamic program).
"""

from .body import (BodySolution, Linear, ParamArc, Profile, ProblemSpec,
                   flat_profile, unit_ball_volume)
from .classical import ClassicalSolution, newton3, newton4
from .criticals import (CriticalValues, PairCriticals, critical_values,
                        pair_criticals, relaxed_p)
from .errors import (AssumptionViolated, DomainError, ExprSyntaxError,
                     InfeasibleGrid, InvalidParameter, MinresError,
                     NoConvergence, NotUnimodal, QuadratureFailure,
                     UnknownIdentifier, check_counts)
from .exprlang import eval2, format_expr, parse
from .oracle import (BruteForceResult, MaximalityReport, brute_force,
                     check_maximality, resistance_quadrature)
from .planar import classify2d, solve2d
from .pressure import (PressureModel, ValidationReport, make_builtin,
                       make_expr, make_zero, validate)
from .spatial import solve_spatial

__version__ = "0.1.0"


def solve(spec: ProblemSpec, n_samples: int = 256) -> BodySolution:
    """Optimal body for any d >= 2; dispatches planar vs spatial.

    n_samples (at least 3) is the sample count of each curved arc.
    """
    check_counts(n_samples=n_samples)
    if n_samples < 3:
        raise InvalidParameter(
            f"n_samples must be at least 3, got {n_samples!r}")
    if spec.d == 2:
        return solve2d(spec)
    return solve_spatial(spec, n_samples=n_samples)


__all__ = [
    "AssumptionViolated", "BodySolution", "BruteForceResult",
    "ClassicalSolution", "CriticalValues", "DomainError", "ExprSyntaxError",
    "InfeasibleGrid", "InvalidParameter", "Linear", "MaximalityReport",
    "MinresError", "NoConvergence", "NotUnimodal", "PairCriticals",
    "ParamArc", "PressureModel", "ProblemSpec", "Profile",
    "QuadratureFailure", "UnknownIdentifier", "ValidationReport",
    "brute_force", "check_maximality", "classify2d", "critical_values",
    "eval2", "flat_profile", "format_expr", "make_builtin", "make_expr",
    "make_zero", "newton3", "newton4", "pair_criticals", "parse",
    "relaxed_p", "resistance_quadrature", "solve", "solve2d",
    "solve_spatial", "unit_ball_volume", "validate",
]
