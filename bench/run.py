"""minres benchmark: one closed-loop client, three seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload solve_pair --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics over --seconds of whole
cycles.  --trace 1 runs one fixed pass over the seed's pool untraced
and then traced, and reports per-layer counts and self times; its
work does not depend on --seconds, so its counts repeat exactly.
Human-readable lines come first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The exit code is
1 when an output check or a layer-isolation assertion fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_ROUNDS = 3
TAIL_ABOVE = 10  # the tail is the highest percentile with 10 samples above
WORKLOADS = ("solve_pair", "certify", "cli_export")


def import_minres(root: str) -> float:
    """Import minres from <root>/src; returns the import wall time."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "minres", "__init__.py")):
        raise SystemExit(f"no minres sources under {src}; run from the "
                         "repository root")
    sys.path.insert(0, src)
    start = perf_counter()
    import minres  # noqa: F401
    return perf_counter() - start


def make_workload(name: str, root: str, workdir: str):
    import workloads  # imports minres, so only after import_minres
    if name == "solve_pair":
        return workloads.SolvePair()
    if name == "certify":
        return workloads.Certify()
    return workloads.CliExport(root, workdir)


class Prepared:
    """A workload's pool for one seed: instances, cycles of indices, refs."""

    def __init__(self, wl, seed: int):
        pool = wl.schedule(seed)
        self.instances = [inst for cycle in pool for inst in cycle]
        self.cycles, i = [], 0
        for cycle in pool:
            self.cycles.append(list(range(i, i + len(cycle))))
            i += len(cycle)
        self.refs = [wl.reference(inst) for inst in self.instances]
        for cls in wl.classes:  # warm-up, untimed
            wl.op(next(inst for inst in self.instances if inst.cls == cls))


class Checker:
    """Checks the first result of each instance; later ones must equal it."""

    def __init__(self, wl, prepared: Prepared):
        self.wl, self.prep = wl, prepared
        self.first = {}  # instance index -> (signature, result)
        self.verdict = {}  # instance index -> error text or None
        self.errors = []

    def record(self, i: int, result):
        """Signature of a result (None for an exception)."""
        if isinstance(result, Exception):
            return None
        sig = self.wl.signature(result)
        self.first.setdefault(i, (sig, result))
        return sig

    def run_checks(self):
        for i, (_, result) in self.first.items():
            try:
                self.verdict[i] = self.wl.check(self.prep.instances[i],
                                                self.prep.refs[i], result)
            except Exception as err:  # a check that raises is a failure
                self.verdict[i] = f"check raised {err!r}"

    def failed(self, i: int, sig, error: Exception | None = None) -> bool:
        label = self.prep.instances[i].label
        if error is not None:
            self.errors.append(f"{label}: raised {error!r}")
        elif self.verdict[i]:
            self.errors.append(f"{label}: {self.verdict[i]}")
        elif sig != self.first[i][0]:
            self.errors.append(f"{label}: output differs from the first run")
        else:
            return False
        return True

    def report(self):
        for line in self.errors[:10]:
            print("FAILED " + line, file=sys.stderr)


def timed(op, inst):
    start = perf_counter()
    try:
        result = op(inst)
    except Exception as err:  # an op that raises counts as failed
        result = err
    return (perf_counter() - start) * 1000.0, result


def class_position(ordered: list, rank: int) -> str:
    """Class at rank of the sorted [(ms, cls)], and how far inside it is."""
    cls = ordered[rank][1]
    lo = hi = rank
    while lo > 0 and ordered[lo - 1][1] == cls:
        lo -= 1
    while hi < len(ordered) - 1 and ordered[hi + 1][1] == cls:
        hi += 1
    margin = min(rank - lo, hi - rank)
    where = "inside" if margin > 0 else "ON THE EDGE OF"
    return f"class {cls}, {where} it ({margin} ranks to the class edge)"


def peak_rss_mb(wl) -> float:
    """Peak RSS of the process doing the work: the children, if any."""
    who = resource.RUSAGE_CHILDREN if wl.children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def print_classes(wl, prep: Prepared, latencies: dict | None = None):
    """One line per class: instances, and ops with their latency range."""
    print("classes, cheapest first:")
    for cls in wl.classes:
        n = sum(x.cls == cls for x in prep.instances)
        line = f"  {cls}: {n} instances"
        ms = sorted(latencies.get(cls, ())) if latencies else ()
        if ms:
            line += (f", {len(ms)} ops, latency min/median/max {ms[0]:.1f}/"
                     f"{statistics.median(ms):.1f}/{ms[-1]:.1f} ms")
        print(line)


def run_timed(wl, prep: Prepared, name: str, seed: int, seconds: float,
              setup_s: float):
    """End-to-end metrics over `seconds` of whole cycles."""
    checker = Checker(wl, prep)
    runs = []  # (instance index, ms, signature, exception)
    start = perf_counter()
    n_cycles = 0
    while n_cycles == 0 or perf_counter() - start < seconds:
        for i in prep.cycles[n_cycles % len(prep.cycles)]:
            ms, result = timed(wl.op, prep.instances[i])
            error = result if isinstance(result, Exception) else None
            runs.append((i, ms, checker.record(i, result), error))
        n_cycles += 1
    elapsed = perf_counter() - start

    checker.run_checks()
    failed = sum(checker.failed(i, sig, err) for i, _, sig, err in runs)
    attempted = len(runs)
    ordered = sorted((ms, prep.instances[i].cls) for i, ms, _, _ in runs)
    tail_rank = max(attempted - 1 - TAIL_ABOVE, 0)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (attempted / elapsed, "op/s"),
        "latency_ms.p50": (statistics.median(ms for ms, _ in ordered), "ms"),
        "latency_ms.tail": (ordered[tail_rank][0], "ms"),
        "peak_rss_mb": (peak_rss_mb(wl), "MB"),
    }
    notes = {
        "latency_ms.p50": f"n={attempted}; "
                          + class_position(ordered, attempted // 2),
        "latency_ms.tail": f"p{100.0 * (tail_rank + 1) / attempted:.1f}, "
                           f"{attempted - 1 - tail_rank} of n={attempted} "
                           "above; " + class_position(ordered, tail_rank),
    }

    print(f"workload {name}, seed {seed}: closed loop, 1 client, "
          f"{n_cycles} cycles of {len(prep.cycles[0])} ops in {elapsed:.2f} s")
    latencies = {}
    for ms, cls in ordered:
        latencies.setdefault(cls, []).append(ms)
    print_classes(wl, prep, latencies)
    for key, (value, unit) in metrics.items():
        print(f"  {key:<16} {value:12.4f} {unit:<5} {notes.get(key, '')}")
    print(f"  {'error_rate':<16} {failed / attempted:12.4f} ratio "
          f"{failed} of {attempted} ops failed")
    checker.report()
    return attempted, failed, metrics, True


def one_pass(op, instances) -> tuple:
    """(wall seconds, results) of op over instances, in order."""
    start = perf_counter()
    results = [op(inst) for inst in instances]
    return perf_counter() - start, results


def traced_pass(wl, instances) -> tuple:
    """(tracer, wall seconds, results) of one traced in-process pass."""
    from tracer import Tracer
    with Tracer() as tracer:
        seconds, results = one_pass(
            lambda inst: tracer.op_span("op." + inst.cls, wl.inprocess_op,
                                        inst), instances)
    return tracer, seconds, results


def run_traced(wl, prep: Prepared, name: str, seed: int):
    """Per-layer metrics from one pass over the pool, untraced then traced."""
    checker = Checker(wl, prep)
    n = len(prep.instances)
    plain_s, plain = one_pass(wl.inprocess_op, prep.instances)
    tracer, traced_s, traced = traced_pass(wl, prep.instances)

    sigs = [checker.record(i, result) for i, result in enumerate(plain)]
    checker.run_checks()
    failed = 0
    for i, result in enumerate(traced):
        bad = checker.failed(i, sigs[i])
        if not bad and wl.signature(result) != sigs[i]:
            checker.errors.append(f"{prep.instances[i].label}: traced output "
                                  "differs from untraced")
            bad = True
        failed += bad

    startup_ms = 0.0
    if wl.children:
        startup_ms = statistics.median(wl.startup_ms() for _ in range(3))
    metrics = tracer.layer_metrics(startup_ms)
    violations = [f"{layer}: {tracer.calls[layer]} calls, expected 0"
                  for layer in wl.absent_layers if tracer.calls[layer]]

    print(f"workload {name}, seed {seed}, traced: one pass of {n} ops, "
          f"{len(tracer.spans)} spans")
    print_classes(wl, prep)
    for key, (value, unit) in metrics.items():
        print(f"  {key:<36} {value:14.4f} {unit}")
    mode = " (both in-process)" if wl.children else ""
    print(f"tracing overhead{mode}: untraced {n / plain_s:.3f} op/s, traced "
          f"{n / traced_s:.3f} op/s, traced/untraced time "
          f"{traced_s / plain_s:.3f}")
    for line in violations:
        print("ISOLATION VIOLATED " + line, file=sys.stderr)
    checker.report()

    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir, f"spans-{name}-seed{seed}.jsonl"))
    return n, failed, metrics, not violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="minres benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    import_s = import_minres(root)
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        wl = make_workload(args.workload, root, workdir)
        times = []
        for _ in range(SETUP_ROUNDS):
            start = perf_counter()
            prep = Prepared(wl, args.seed)
            times.append(perf_counter() - start)
        setup_s = import_s + statistics.median(times)
        print(f"setup_s = import {import_s:.3f} s + median of {SETUP_ROUNDS} "
              "rounds of generate + references + warm-up ("
              + ", ".join(f"{t:.3f}" for t in times) + " s)")
        if args.trace:
            attempted, failed, metrics, isolated = run_traced(
                wl, prep, args.workload, args.seed)
        else:
            attempted, failed, metrics, isolated = run_timed(
                wl, prep, args.workload, args.seed, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = failed == 0 and isolated
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
