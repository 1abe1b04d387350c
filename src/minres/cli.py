"""Command line interface: solve, verify, classify.

Exit codes: 0 success, 2 parse/validation errors, 3 solver
non-convergence, 4 certificate failure.  All errors go to stderr as a
single JSON line.  Identical invocations write byte-identical CSV and
JSON (timing is reported only under --timing for that reason).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import __version__, solve
from .body import ProblemSpec, Linear, Profile
from .criticals import pair_criticals
from .errors import (InfeasibleGrid, InvalidParameter, MinresError,
                     NoConvergence, QuadratureFailure)
from .oracle import brute_force, check_maximality
from .planar import classify2d
from .pressure import PressureModel, make_builtin, make_expr, make_zero, validate
from .render import profile_csv, profile_svg

_EXIT_OK = 0
_EXIT_INPUT = 2
_EXIT_SOLVER = 3
_EXIT_CERT = 4


class _CliError(Exception):
    def __init__(self, payload: dict, code: int):
        super().__init__(payload.get("message", ""))
        self.payload = payload
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse that reports its own errors as JSON on stderr."""

    def error(self, message):
        raise _CliError({"error": "UsageError", "message": message},
                        _EXIT_INPUT)


def _parse_pressure(text: str, role: str) -> PressureModel:
    if text == "zero":
        if role == "front":
            raise InvalidParameter("front pressure law must not be zero")
        return make_zero()
    if text.startswith("newton:"):
        parts = text[len("newton:"):].split(",")
        if len(parts) != 2:
            raise InvalidParameter(
                f"builtin law syntax is newton:scale,offset, got {text!r}")
        try:
            scale, offset = float(parts[0]), float(parts[1])
        except ValueError:
            raise InvalidParameter(
                f"builtin law needs numeric scale,offset, got {text!r}") from None
        return make_builtin(scale, offset)
    return make_expr(text)


def _parse_grid(text: str, flag: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise InvalidParameter(f"{flag} must look like 200x400, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise InvalidParameter(
            f"{flag} must be two integers, got {text!r}") from None


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--p-plus", required=True)
    p.add_argument("--p-minus", required=True)
    p.add_argument("--ball-volume", action="store_true")
    p.add_argument("--samples", type=int, default=256)


def _build_spec(args) -> ProblemSpec:
    return ProblemSpec(d=args.dim, T=args.T, H=args.H,
                       p_plus=_parse_pressure(args.p_plus, "front"),
                       p_minus=_parse_pressure(args.p_minus, "rear"),
                       include_ball_volume=args.ball_volume)


def _opt(x):
    """x for JSON, with non-finite floats as null, also inside tuples."""
    if isinstance(x, (tuple, list)):
        return [_opt(v) for v in x]
    return None if (isinstance(x, float) and not math.isfinite(x)) else x


def _validation_summary(model: PressureModel) -> dict:
    rep = validate(model)
    return {
        "passed": rep.passed,
        "limit_at_infinity": rep.limit_at_infinity,
        "u_bar_estimate": rep.u_bar_estimate,
        "violations": [
            {"condition": c, "witness_u": u, "description": msg}
            for c, u, msg in rep.violations
        ],
    }


def _base_report(spec: ProblemSpec, solution, oracle_block, timing_ms) -> dict:
    return {
        "schema": "1",
        "tool": {"name": "minres", "version": __version__},
        "problem": {
            "dim": spec.d,
            "T": spec.T,
            "H": spec.H,
            "p_plus": spec.p_plus.describe(),
            "p_minus": spec.p_minus.describe(),
            "ball_volume": spec.include_ball_volume,
        },
        "case": solution.case_label,
        "beta_plus": solution.beta_plus,
        "beta_minus": solution.beta_minus,
        "U_plus": _opt(solution.U_plus),
        "U_minus": _opt(solution.U_minus),
        "lambda_plus": solution.lambda_plus,
        "lambda_minus": solution.lambda_minus,
        "R_plus": solution.R_plus,
        "R_minus": solution.R_minus,
        "R_total": solution.R_total,
        "validation": {
            "p_plus": _validation_summary(spec.p_plus),
            "p_minus": _validation_summary(spec.p_minus),
        },
        "oracle": oracle_block,
        "timing_ms": timing_ms,
    }


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def cmd_solve(args) -> int:
    started = time.perf_counter()
    spec = _build_spec(args)
    solution = solve(spec, n_samples=args.samples)
    if args.out_profile:
        _write(args.out_profile, profile_csv(solution, args.samples))
    if args.out_svg:
        _write(args.out_svg, profile_svg(solution, args.samples))
    timing = ((time.perf_counter() - started) * 1000.0
              if args.timing else None)
    if args.out_report:
        report = _base_report(spec, solution, None, timing)
        _write(args.out_report, json.dumps(report) + "\n")
    print(f"{solution.case_label} R_total={solution.R_total!r}")
    return _EXIT_OK


def _profile_from_csv(path: str, T: float, column: str) -> Profile:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        try:
            t_i = header.index("t")
            x_i = header.index(column)
        except ValueError:
            raise InvalidParameter(
                f"CSV needs columns t and {column}") from None
        pts = []
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            try:
                t, x = float(cells[t_i]), float(cells[x_i])
            except (ValueError, IndexError):
                t = x = math.nan
            if not (math.isfinite(t) and math.isfinite(x)):
                raise InvalidParameter(
                    f"CSV line {line_no} needs finite numeric t and {column} "
                    f"cells, got {line!r}")
            pts.append((t, x))
    if len(pts) < 2:
        raise InvalidParameter(f"CSV column {column} needs at least 2 rows")
    pts.sort()
    segments = []
    for (t0, x0), (t1, x1) in zip(pts, pts[1:]):
        if t1 <= t0:
            continue
        slope = (x1 - x0) / (t1 - t0)
        if slope < -1e-9:
            raise InvalidParameter(
                f"profile in {column} is not monotone at t={t0:g}")
        segments.append(Linear(t0, t1, max(slope, 0.0)))
    if abs(pts[-1][0] - T) > 1e-9 * max(1.0, T) or pts[0][0] > 1e-9 * T:
        raise InvalidParameter(
            f"CSV profile must span [0, {T:g}], got "
            f"[{pts[0][0]:g}, {pts[-1][0]:g}]")
    return Profile(T=T, segments=tuple(segments), beta=pts[-1][1] - pts[0][1])


def cmd_verify(args) -> int:
    started = time.perf_counter()
    spec = _build_spec(args)
    solution = solve(spec, n_samples=args.samples)
    n_cells, n_heights = _parse_grid(args.grid, "--grid")
    n_t, n_u = _parse_grid(args.maximality_samples, "--maximality-samples")

    front, rear = solution.front, solution.rear
    if args.check_profile:
        front = _profile_from_csv(args.check_profile, spec.T, "x_front")
        rear = _profile_from_csv(args.check_profile, spec.T, "x_rear")

    oracle_block: dict = {"maximality": {}, "brute_force": {}}
    all_passed = True
    witness = None

    for branch, profile, lam in (("front", front, solution.lambda_plus),
                                 ("rear", rear, solution.lambda_minus)):
        if lam is None:
            oracle_block["maximality"][branch] = None
            continue
        rep = check_maximality(spec, branch, profile, lam,
                               n_t=n_t, n_u=n_u)
        oracle_block["maximality"][branch] = {
            "lambda": rep.lam,
            "worst_violation": rep.worst_violation,
            "threshold": rep.threshold,
            "margin": rep.worst_violation / rep.threshold,
            "witness_t": rep.witness_t,
            "witness_u": rep.witness_u,
            "passed": rep.passed,
        }
        if not rep.passed:
            all_passed = False
            witness = witness or {"branch": branch, "t": rep.witness_t,
                                  "u": rep.witness_u}

    gap_tol = 0.01 * max(abs(solution.R_total), 1e-9)
    for branch, beta in (("front", solution.beta_plus),
                         ("rear", solution.beta_minus)):
        model = spec.p_plus if branch == "front" else spec.p_minus
        if model.is_zero:
            oracle_block["brute_force"][branch] = None
            continue
        res = brute_force(spec, branch, beta, n_cells=n_cells,
                          n_heights=n_heights)
        ok = -1e-9 * max(1.0, abs(res.analytic_value)) <= res.gap <= gap_tol
        oracle_block["brute_force"][branch] = {
            "grid": [res.n_cells, res.n_heights],
            "best_value": res.best_value,
            "analytic_value": res.analytic_value,
            "gap": res.gap,
            "gap_tol": gap_tol,
            "margin": res.gap / gap_tol,
            "passed": ok,
        }
        if not ok:
            all_passed = False

    oracle_block["passed"] = all_passed
    timing = ((time.perf_counter() - started) * 1000.0
              if args.timing else None)
    if args.out_report:
        report = _base_report(spec, solution, oracle_block, timing)
        _write(args.out_report, json.dumps(report) + "\n")
    if all_passed:
        print("certificates passed")
        return _EXIT_OK
    payload = {"error": "CertificateFailure",
               "message": "optimality certificates failed"}
    if witness is not None:
        payload["witness"] = witness
    print(json.dumps(payload), file=sys.stderr)
    return _EXIT_CERT


def cmd_classify(args) -> int:
    if args.dim != 2:
        raise InvalidParameter(f"classify needs --dim 2, got {args.dim}")
    spec = _build_spec(args)
    pc = pair_criticals(spec.p_plus, spec.p_minus, 2)
    label = classify2d(spec, pc)
    h = spec.H / spec.T
    thresholds = (pc.plus.u0, pc.u_star, pc.u_star + pc.minus.u0)
    rendered = ", ".join(f"{v:.3f}" for v in thresholds)
    print(f"{label} h={h:.3f} thresholds=[{rendered}]")
    return _EXIT_OK


def main(argv=None) -> int:
    parser = _Parser(prog="minres", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"minres {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance")
    _add_problem_flags(p_solve)
    p_solve.add_argument("--out-profile")
    p_solve.add_argument("--out-svg")
    p_solve.add_argument("--out-report")
    p_solve.add_argument("--timing", action="store_true")
    p_solve.set_defaults(fn=cmd_solve)

    p_verify = sub.add_parser("verify", help="solve and certify one instance")
    _add_problem_flags(p_verify)
    p_verify.add_argument("--grid", default="200x400")
    p_verify.add_argument("--maximality-samples", default="64x256")
    p_verify.add_argument("--check-profile")
    p_verify.add_argument("--out-report")
    p_verify.add_argument("--timing", action="store_true")
    p_verify.set_defaults(fn=cmd_verify)

    p_classify = sub.add_parser("classify", help="planar case label")
    _add_problem_flags(p_classify)
    p_classify.set_defaults(fn=cmd_classify)

    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _CliError as err:
        print(json.dumps(err.payload), file=sys.stderr)
        return err.code
    except MinresError as err:
        payload = {"error": type(err).__name__, "message": str(err)}
        for key in ("offset", "u", "where", "bracket", "residual", "witness",
                    "witnesses"):
            value = getattr(err, key, None)
            if value is not None:
                payload[key] = _opt(value)
        print(json.dumps(payload), file=sys.stderr)
        if isinstance(err, (NoConvergence, QuadratureFailure, InfeasibleGrid)):
            return _EXIT_SOLVER
        return _EXIT_INPUT
    except OSError as err:
        print(json.dumps({"error": "OSError", "message": str(err)}),
              file=sys.stderr)
        return _EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
