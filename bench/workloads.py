"""The three seeded workloads of the minres benchmark.

Each workload turns a seed into a pool of instances laid out as cycles:
a cycle is a fixed sequence of instance classes, and every seed fills
it with fresh draws.  The timed loop runs whole cycles, so every run
has the same class mix whatever the seed.  Draws that set an op's cost
(height ratio, sample count, spelling) are stratified or fixed per
slot, so different seeds give the same spread of costs.

A workload provides:

* ``schedule(seed)``: the pool, a list of cycles of `Instance`;
* ``reference(inst)``: what the op's output is checked against;
* ``op(inst)``: one timed operation;
* ``inprocess_op(inst)``: the same operation inside this process,
  used by the traced run;
* ``signature(result)``: bit-exact summary, equal for equal outputs;
* ``check(inst, ref, result)``: output check, None when it passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import minres
import minres.cli
import minres.render

MAXIMALITY_GRID = (64, 256)  # minres verify --maximality-samples default
BRUTE_FORCE_GRID = (200, 400)  # minres verify --grid default


@dataclass(frozen=True)
class Instance:
    cls: str
    label: str  # short human description, unique within a pool
    spec: minres.ProblemSpec
    argv: tuple = ()  # CLI arguments, cli_export only
    n_samples: int = 256
    ref_spec: minres.ProblemSpec | None = None  # builtin spelling, solve_pair


def _stratum(rng: random.Random, lo: float, hi: float, k: int, n: int) -> float:
    """Seeded point in the first quarter of stratum k of n in [lo, hi)."""
    return lo + (hi - lo) / n * (k + 0.25 * rng.random())


def _bits(x):
    return x.hex() if isinstance(x, float) else x


def _solution_signature(sol) -> tuple:
    return tuple(_bits(v) for v in (
        sol.case_label, sol.R_total, sol.R_plus, sol.R_minus, sol.beta_plus,
        sol.beta_minus, sol.lambda_plus, sol.lambda_minus, sol.U_plus,
        sol.U_minus))


def _interleave(pattern: tuple, per_class: dict) -> list:
    """One cycle: the instances of per_class laid out in pattern order."""
    queues = {cls: list(items) for cls, items in per_class.items()}
    return [queues[cls].pop(0) for cls in pattern]


def _height_sum_error(sol) -> str | None:
    """beta_plus + beta_minus must give H up to the rounding of that sum."""
    H = sol.spec.H
    total = sol.beta_plus + sol.beta_minus
    if abs(total - H) > 2.0 ** -52 * H:
        return f"beta_plus + beta_minus = {total!r}, H = {H!r}"
    return None


def _maximality_errors(spec, sol) -> list:
    errors = []
    for branch, profile, lam in (("front", sol.front, sol.lambda_plus),
                                 ("rear", sol.rear, sol.lambda_minus)):
        if lam is None:
            continue
        rep = minres.check_maximality(spec, branch, profile, lam,
                                      n_t=MAXIMALITY_GRID[0],
                                      n_u=MAXIMALITY_GRID[1])
        if not rep.passed:
            errors.append(f"maximality failed on {branch}: worst violation "
                          f"{rep.worst_violation!r} at t={rep.witness_t!r}")
    return errors


class Workload:
    classes: tuple = ()  # cheapest first
    absent_layers: tuple = ()  # traced call counts that must stay 0
    children = False  # whether op runs in a child process

    def inprocess_op(self, inst):
        return self.op(inst)


# --------------------------------------------------------------------------
# solve_pair


# Algebraically equal spellings of s/(1+u^2)+o.  The ^-1 spelling has
# the larger AST and costs about 1.4x the other two, so it would form a
# latency band of its own; the flat class, which holds neither
# percentile, uses it.
_POW = "{s}*(1+u^2)^-1{o}"
_SHORT = ("{s}/(1+u^2){o}", "{s}/(u*u+1){o}")


def _newton_text(spelling: str, scale: float, offset: float) -> str:
    o = f"+{offset!r}" if offset >= 0.0 else f"-{-offset!r}"
    return spelling.format(s=repr(scale), o=o)


class SolvePair(Workload):
    """One op is one `minres.solve(spec)` at the default n_samples=256.

    Expression-law pairs from the Newton family s/(1+u^2)+o.  Classes:
    d2 (planar), flat (d>=3 below h_star, rear flat) and split (d=3
    above h_star, the front/rear split).  A cycle holds 5 d2, 1 flat
    and 3 split ops: p50 falls in the top tenth of the d2 class, far
    below the flat ops in time, and the tail in the top quarter of the
    split class.
    """

    classes = ("d2", "flat", "split")
    pattern = ("d2", "split", "d2", "flat", "d2", "split", "d2", "split", "d2")
    n_cycles = 3
    absent_layers = ("oracle.check_maximality", "oracle.brute_force",
                     "render.profile_csv", "render.profile_svg")

    def schedule(self, seed: int) -> list:
        rng = random.Random(f"solve_pair:{seed}")

        def make(cls, d, ratio, spelling):
            """Instance at h = ratio, or ratio * h_star when d >= 3."""
            s_plus = round(rng.uniform(0.8, 1.6), 3)
            s_minus = round(s_plus * rng.uniform(0.5, 0.55), 3)
            o_plus = round(rng.uniform(0.0, 1.0), 3)
            o_minus = round(rng.uniform(-1.0, 0.0), 3)
            T = round(rng.uniform(0.5, 2.0), 3)
            ref_plus = minres.make_builtin(s_plus, o_plus)
            ref_minus = minres.make_builtin(s_minus, o_minus)
            if d >= 3:
                ratio *= minres.pair_criticals(ref_plus, ref_minus, d).h_star
            H = round(T * ratio, 4)
            plus = _newton_text(spelling, s_plus, o_plus)
            minus = _newton_text(spelling, s_minus, o_minus)
            spec = minres.ProblemSpec(d=d, T=T, H=H,
                                      p_plus=minres.make_expr(plus),
                                      p_minus=minres.make_expr(minus))
            ref_spec = minres.ProblemSpec(d=d, T=T, H=H, p_plus=ref_plus,
                                          p_minus=ref_minus)
            label = f"{cls} d={d} T={T!r} H={H!r} {plus} | {minus}"
            return Instance(cls=cls, label=label, spec=spec, ref_spec=ref_spec)

        pool = []
        for c in range(self.n_cycles):
            per_class = {
                # h across all four planar cases of this family
                "d2": [make("d2", 2, _stratum(rng, 0.25, 4.0, k, 5),
                            rng.choice(_SHORT)) for k in range(5)],
                "flat": [make("flat", 3 + c % 2, rng.uniform(0.3, 0.9), _POW)],
                "split": [make("split", 3, _stratum(rng, 1.15, 1.35, k, 3),
                               rng.choice(_SHORT)) for k in range(3)],
            }
            pool.append(_interleave(self.pattern, per_class))
        return pool

    def reference(self, inst: Instance):
        """R_total of the same instance with the builtin law newton:s,o."""
        return minres.solve(inst.ref_spec).R_total

    def op(self, inst: Instance):
        return minres.solve(inst.spec)

    def signature(self, sol) -> tuple:
        return _solution_signature(sol)

    def check(self, inst: Instance, ref_R: float, sol) -> str | None:
        errors = []
        if abs(sol.R_total - ref_R) > 1e-9 * abs(ref_R):
            errors.append(f"R_total {sol.R_total!r} differs from the builtin "
                          f"spelling's {ref_R!r}")
        err = _height_sum_error(sol)
        if err:
            errors.append(err)
        if inst.cls == "split" and not sol.beta_minus > 0.0:
            errors.append("split instance solved with a flat rear")
        if inst.cls == "flat" and sol.beta_minus != 0.0:
            errors.append("flat-rear instance solved with a curved rear")
        errors += _maximality_errors(inst.spec, sol)
        return "; ".join(errors) or None


# --------------------------------------------------------------------------
# certify


# (d, T, H, flux, rear carries height): one height below and one above
# each cell's case threshold, as in the acceptance matrix
_MATRIX = (
    (2, 2.0, 1.0, "parallel", False),
    (2, 2.0, 3.0, "parallel", False),
    (2, 2.0, 1.0, "pair", False),
    (2, 2.0, 6.0, "pair", True),
    (3, 1.0, 0.4, "parallel", False),
    (3, 1.0, 0.55, "parallel", False),
    (3, 1.0, 0.4, "pair", False),
    (3, 1.0, 0.8, "pair", True),
    (4, 1.0, 0.25, "parallel", False),
    (4, 1.0, 0.45, "parallel", False),
    (4, 1.0, 0.2, "pair", False),
    (4, 1.0, 0.5, "pair", True),
)


def _builtin_laws(flux: str):
    if flux == "pair":  # equal to the acceptance pair 1/(1+u^2)+0.5 over
        return minres.make_builtin(1.0, 0.5), minres.make_builtin(0.5, -0.5)
    return minres.make_builtin(1.0, 0.0), minres.make_zero()


class Certify(Workload):
    """One op is the library calls `minres verify` makes, at its defaults.

    solve, then check_maximality at 64x256 on each branch with a
    multiplier, then brute_force at 200x400 on each branch whose law is
    not zero.  Classes: one_dp (one branch carries height, so one DP
    runs) and two_dp (the rear carries height too).  Nine one_dp ops
    per cycle put p50 inside one_dp; three two_dp ops put the tail
    inside two_dp.
    """

    classes = ("one_dp", "two_dp")
    n_cycles = 2
    absent_layers = ("exprlang.eval2",)

    def schedule(self, seed: int) -> list:
        rng = random.Random(f"certify:{seed}")
        pool = []
        for _ in range(self.n_cycles):
            cycle = []
            for d, T, H0, flux, curved_rear in _MATRIX:
                H = round(H0 * rng.uniform(0.9, 1.1), 4)
                plus, minus = _builtin_laws(flux)
                spec = minres.ProblemSpec(d=d, T=T, H=H, p_plus=plus,
                                          p_minus=minus)
                cls = "two_dp" if curved_rear else "one_dp"
                cycle.append(Instance(cls=cls, spec=spec,
                                      label=f"{cls} d={d} H={H!r} {flux}"))
            pool.append(cycle)
        return pool

    def reference(self, inst: Instance):
        return None  # the certificates are the check

    def op(self, inst: Instance):
        spec = inst.spec
        sol = minres.solve(spec)
        reports = [
            (branch, minres.check_maximality(spec, branch, profile, lam,
                                             n_t=MAXIMALITY_GRID[0],
                                             n_u=MAXIMALITY_GRID[1]))
            for branch, profile, lam in (("front", sol.front, sol.lambda_plus),
                                         ("rear", sol.rear, sol.lambda_minus))
            if lam is not None]
        dps = [
            (branch, minres.brute_force(spec, branch, beta,
                                        n_cells=BRUTE_FORCE_GRID[0],
                                        n_heights=BRUTE_FORCE_GRID[1]))
            for branch, beta, model in (("front", sol.beta_plus, spec.p_plus),
                                        ("rear", sol.beta_minus, spec.p_minus))
            if not model.is_zero]
        return sol, reports, dps

    def signature(self, result) -> tuple:
        sol, reports, dps = result
        return (_solution_signature(sol),
                tuple(_bits(r.worst_violation) for _, r in reports),
                tuple((_bits(r.best_value), _bits(r.gap)) for _, r in dps))

    def check(self, inst: Instance, ref, result) -> str | None:
        sol, reports, dps = result
        errors = [f"maximality failed on {branch}"
                  for branch, rep in reports if not rep.passed]
        gap_tol = 0.01 * max(abs(sol.R_total), 1e-9)  # as in minres verify
        for branch, res in dps:
            lo = -1e-9 * max(1.0, abs(res.analytic_value))
            if not lo <= res.gap <= gap_tol:
                errors.append(f"brute-force gap {res.gap!r} on {branch} "
                              f"outside [{lo!r}, {gap_tol!r}]")
        curved_rear = sol.beta_minus > 0.0
        if curved_rear != (inst.cls == "two_dp"):
            errors.append(f"rear height {sol.beta_minus!r} does not match "
                          f"class {inst.cls}")
        return "; ".join(errors) or None


# --------------------------------------------------------------------------
# cli_export


class CliExport(Workload):
    """One op is one `python -m minres.cli solve ... --out-*` process.

    Timed from spawn to exit.  Classes: planar (d=2, no arcs, --samples
    8192) and arc (d>=3, arc profiles).  Export cost grows with the
    square of the arc sample count times the number of arcs, so each
    kind of arc body gets the sample range (within 1024-2047) at which
    its export costs about the same: the arc class is one cost band.  A
    cycle holds three planar ops, one two-arc body (pair law above
    h_star) and one one-arc body (parallel flux), each in d=3 or d=4 as
    the seed draws: p50 falls in the top of the planar class and the
    tail inside the arc class.
    """

    classes = ("planar", "arc")
    pattern = ("planar", "arc", "planar", "arc", "planar")
    absent_layers = ("exprlang.eval2",)
    children = True
    # (acceptance-matrix height, --samples range) by (flux, d)
    _arcs = {("pair", 3): (0.8, (1344, 1408)), ("pair", 4): (0.5, (1344, 1408)),
             ("parallel", 3): (0.55, (1920, 1984)),
             ("parallel", 4): (0.45, (1856, 1920))}

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=src + (os.pathsep + path if path else ""))

    def schedule(self, seed: int) -> list:
        rng = random.Random(f"cli_export:{seed}")

        def make(cls, name, d, flux, h, n_samples):
            T = round(rng.uniform(1.0, 3.0) if d == 2
                      else rng.uniform(0.5, 2.0), 3)
            H = round(T * h, 4)
            plus, minus = (("newton:1,0.5", "newton:0.5,-0.5") if flux == "pair"
                           else ("newton:1,0", "zero"))
            stem = os.path.join(self.workdir, name)
            argv = ("solve", "--dim", str(d), "--T", repr(T), "--H", repr(H),
                    "--p-plus", plus, "--p-minus", minus,
                    "--samples", str(n_samples),
                    "--out-profile", stem + ".csv", "--out-svg", stem + ".svg",
                    "--out-report", stem + ".json")
            p_plus, p_minus = _builtin_laws(flux)
            spec = minres.ProblemSpec(d=d, T=T, H=H, p_plus=p_plus,
                                      p_minus=p_minus)
            label = f"{cls} d={d} H={H!r} {flux} --samples {n_samples}"
            return Instance(cls=cls, label=label, spec=spec, argv=argv,
                            n_samples=n_samples)

        planar = [make("planar", f"planar{k}", 2,
                       rng.choice(("pair", "parallel")),
                       _stratum(rng, 0.25, 4.0, k, 3), 8192) for k in range(3)]
        arc = []
        for flux in ("pair", "parallel"):
            d = rng.choice((3, 4))
            h, samples = self._arcs[flux, d]
            arc.append(make("arc", f"arc-{flux}", d, flux,
                            h * rng.uniform(0.95, 1.05), rng.randrange(*samples)))
        return [_interleave(self.pattern, {"planar": planar, "arc": arc})]

    def reference(self, inst: Instance):
        """Stdout line, CSV and SVG of the same solve done in-process."""
        sol = minres.solve(inst.spec, n_samples=inst.n_samples)
        return (f"{sol.case_label} R_total={sol.R_total!r}\n",
                minres.render.profile_csv(sol, inst.n_samples).encode(),
                minres.render.profile_svg(sol, inst.n_samples).encode(),
                sol.R_total)

    def op(self, inst: Instance):
        proc = subprocess.run([sys.executable, "-m", "minres.cli", *inst.argv],
                              cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=150)
        return proc.returncode, proc.stdout, proc.stderr

    def inprocess_op(self, inst: Instance):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = minres.cli.main(list(inst.argv))
        return code, out.getvalue(), err.getvalue()

    def signature(self, result) -> tuple:
        return result[:2]

    def check(self, inst: Instance, ref, result) -> str | None:
        code, stdout, stderr = result
        line, csv, svg, R_total = ref
        if code != 0:
            return f"exit code {code}: {stderr.strip()}"
        errors = []
        if stdout != line:
            errors.append(f"stdout {stdout!r}, expected {line!r}")
        paths = dict(zip(inst.argv[-6::2], inst.argv[-5::2]))
        for flag, expected in (("--out-profile", csv), ("--out-svg", svg)):
            with open(paths[flag], "rb") as fh:
                if fh.read() != expected:
                    errors.append(f"{flag} differs from render in-process")
        with open(paths["--out-report"], encoding="utf-8") as fh:
            if json.load(fh)["R_total"] != R_total:
                errors.append("report R_total differs from the in-process solve")
        return "; ".join(errors) or None

    def startup_ms(self) -> float:
        """Wall time of a bare `python -m minres.cli --version`, in ms."""
        start = perf_counter()
        subprocess.run([sys.executable, "-m", "minres.cli", "--version"],
                       cwd=self.root, env=self.env, capture_output=True,
                       check=True, timeout=60)
        return (perf_counter() - start) * 1000.0
