"""The benchmark's tracer still fits the package.

bench/tracer.py wraps minres functions and methods by name and puts the
originals back on exit.  A renamed or removed name breaks
`bench/run.py --trace 1`, whose tests are not collected here, so this
test traces one d = 2 and one d = 3 solve with it.
"""

import importlib.util
import pathlib
import sys

from minres import solve
from minres.body import ProblemSpec
from minres.pressure import make_expr, make_zero

_TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracer):
    """Every name a minres module or a traced class binds, and its value."""
    owners = [m for name, m in sorted(sys.modules.items())
              if name == "minres" or name.startswith("minres.")]
    owners += [cls for cls, *_ in tracer._METHOD_SPANS + tracer._METHOD_COUNTERS]
    return {(repr(owner), key): value for owner in owners
            for key, value in vars(owner).items()}


def test_tracer_traces_solves_and_restores_every_name():
    tracer = _load_tracer()
    before = _bindings(tracer)
    p_plus, p_minus = make_expr("1/(1+u^2)+0.5"), make_expr("0.5/(1+u^2)-0.5")
    with tracer.Tracer() as tr:
        wrapped = [key for key, value in _bindings(tracer).items()
                   if before.get(key) is not value]
        solve(ProblemSpec(d=2, T=2.0, H=4.0, p_plus=p_plus, p_minus=p_minus))
        solve(ProblemSpec(d=3, T=1.0, H=0.8, p_plus=p_plus,
                          p_minus=make_zero()))
    after = _bindings(tracer)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    assert wrapped
    counts = tr.counts()
    for name in ("criticals.pair_criticals", "planar.solve2d",
                 "spatial.solve_spatial", "spatial.GTable.g",
                 "numerics.adaptive_simpson", "exprlang.eval2",
                 "pressure.law"):
        assert counts.get(name, 0) > 0, name
    assert tr.layer_metrics(0.0)["pressure.law_evals"][0] == counts[
        "pressure.law"]
