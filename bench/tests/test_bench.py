"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import minres  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def workload_factory(tmp_path):
    def make(name):
        return run.make_workload(name, ROOT, str(tmp_path))
    return make


def _one_per_class(wl, seed=11):
    instances = [inst for cycle in wl.schedule(seed) for inst in cycle]
    return [next(i for i in instances if i.cls == cls) for cls in wl.classes]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counts_repeat_and_outputs_match_untraced(name,
                                                         workload_factory):
    wl = workload_factory(name)
    instances = _one_per_class(wl)
    _, plain = run.one_pass(wl.inprocess_op, instances)
    first, _, traced = run.traced_pass(wl, instances)
    second, _, _ = run.traced_pass(wl, instances)
    assert first.counts() == second.counts()
    assert [wl.signature(r) for r in traced] == \
        [wl.signature(r) for r in plain]
    for layer in wl.absent_layers:
        assert first.calls[layer] == 0, layer


def test_tracer_restores_every_wrapped_name():
    before = (minres.spatial.adaptive_simpson, minres.exprlang.eval2,
              minres.cli.profile_csv, minres.spatial.GTable.g,
              minres.pressure.PressureModel.dp)
    with Tracer():
        assert minres.spatial.adaptive_simpson is not before[0]
    after = (minres.spatial.adaptive_simpson, minres.exprlang.eval2,
             minres.cli.profile_csv, minres.spatial.GTable.g,
             minres.pressure.PressureModel.dp)
    assert after == before


def test_split_counts_match_the_recorded_anchors():
    """Counts of a d=3 expression-law split at H=0.8 on this package."""
    spec = minres.ProblemSpec(d=3, T=1.0, H=0.8,
                              p_plus=minres.make_expr("1/(1+u^2)+0.5"),
                              p_minus=minres.make_expr("0.5/(1+u^2)-0.5"))
    with Tracer() as tracer:
        tracer.op_span("op", minres.solve, spec)
    c = tracer.calls
    assert c["exprlang.eval2"] == c["pressure.law"] == 30854
    assert (c["numerics.bracket_root"], c["numerics.bracket_root.f"]) == \
        (16, 114)
    assert (c["numerics.adaptive_simpson"],
            c["numerics.adaptive_simpson.f"]) == (677, 29349)
    assert c["spatial.GTable.g"] == 167
    # self times partition the op's wall time
    (op_span,) = [s for s in tracer.spans if s[1] == "op"]
    assert sum(tracer.self_ns.values()) == op_span[3] - op_span[2]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_other_seed_changes_instances_not_classes(name, workload_factory):
    wl = workload_factory(name)
    a, b = wl.schedule(1), wl.schedule(2)
    assert [[i.cls for i in c] for c in a] == [[i.cls for i in c] for c in b]
    assert [i.label for c in a for i in c] != [i.label for c in b for i in c]
    assert [i.label for c in a for i in c] == \
        [i.label for c in wl.schedule(1) for i in c]


def _run_bench(cwd, trace, seconds="1"):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload",
         "certify", "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)[key]
    proc = _run_bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out",
                                                  ".work-*", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
