"""Per-layer tracing of minres from outside the package.

`Tracer` replaces the layer-boundary functions of `minres` with timing
wrappers while it is active and puts the originals back on exit, so the
package itself carries no tracing code.  A function is replaced under
every name a `minres` module binds it to, because callers such as
`minres.spatial` import `adaptive_simpson` by name and look it up in
their own namespace.

Two kinds of wrapper share one call stack:

* spans, at layer boundaries: each records (id, name, start_ns, end_ns,
  parent id, op id) in memory;
* counters, for hot leaf calls (law evaluations, `eval2`, profile
  lookups and the callbacks handed to root finders and integrators): a
  d=3 split makes about 31k of them, so they only add to a call count
  and an accumulated self time.

Every frame adds its duration to its parent's child time, so a frame's
self time is its duration minus the time covered by its children, for
spans and counters alike.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter_ns

import minres
import minres.body
import minres.cli
import minres.criticals
import minres.exprlang
import minres.numerics
import minres.oracle
import minres.planar
import minres.pressure
import minres.render
import minres.spatial

_NUMERICS = ("bracket_root", "grow_bracket_upper", "golden_section_max",
             "adaptive_simpson")

# (module, function, span name) for module-level layer entry points
_SPANS = (
    (minres.criticals, "critical_values", "criticals.critical_values"),
    (minres.criticals, "pair_criticals", "criticals.pair_criticals"),
    (minres.spatial, "solve_spatial", "spatial.solve_spatial"),
    (minres.spatial, "solve_height_for_U", "spatial.solve_height_for_U"),
    (minres.spatial, "extremal_from_U", "spatial.extremal_from_U"),
    (minres.planar, "solve2d", "planar.solve2d"),
    (minres.pressure, "validate", "pressure.validate"),
    (minres.oracle, "check_maximality", "oracle.check_maximality"),
    (minres.cli, "main", "cli.main"),
)

# (class, method, span name)
_METHOD_SPANS = (
    (minres.spatial.GTable, "g", "spatial.GTable.g"),
    (minres.spatial.GTable, "g_many", "spatial.GTable.g_many"),
)

# (class, methods, counter name); nested calls within one group count once
_METHOD_COUNTERS = (
    (minres.pressure.PressureModel, ("p", "dp", "d2p", "eval"), "pressure.law"),
    (minres.body.Profile, ("x_at", "slope_at", "slope_if_unambiguous"),
     "body.profile_lookup"),
)


def _dp_states(spec, branch, beta, n_cells=200, n_heights=400, u_cap=None):
    """DP cells a brute_force call fills, from its arguments (0 when flat)."""
    return n_cells * (n_heights + 1) if beta > 0.0 else 0


def _minres_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "minres"
                                  or name.startswith("minres."))]


class Tracer:
    """Context manager that traces minres calls while it is active."""

    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.extra = Counter()  # dp_states, render bytes
        self.spans = []
        self.op = -1  # id of the current op, counted from 0
        self._stack = []  # frames: [name, child_ns, span_id]
        self._next_id = 0
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def _run(self, name, fn, args, kwargs, span):
        stack = self._stack
        if span:
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][2] if stack else -1
        else:
            sid = stack[-1][2] if stack else -1
        frame = [name, 0, sid]
        stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            dur = end - start
            self.calls[name] += 1
            self.self_ns[name] += dur - frame[1]
            if stack:
                stack[-1][1] += dur
            if span:
                self.spans.append((sid, name, start, end, parent, self.op))

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            return self._run(name, fn, args, kwargs, True)
        return wrapper

    def _counter(self, name, fn):
        def wrapper(*args, **kwargs):
            if self._stack and self._stack[-1][0] == name:
                return fn(*args, **kwargs)
            return self._run(name, fn, args, kwargs, False)
        return wrapper

    def _numerics(self, name, fn):
        """Span around a solver whose first argument is its callback."""
        f_name = name + ".f"

        def wrapper(f, *args, **kwargs):
            counted = self._counter(f_name, f)
            return self._run(name, fn, (counted,) + args, kwargs, True)
        return wrapper

    def _brute_force(self, fn):
        def wrapper(*args, **kwargs):
            self.extra["oracle.brute_force.dp_states"] += _dp_states(
                *args, **kwargs)
            return self._run("oracle.brute_force", fn, args, kwargs, True)
        return wrapper

    def _render(self, name, fn):
        def wrapper(*args, **kwargs):
            text = self._run(name, fn, args, kwargs, True)
            self.extra["render.bytes"] += len(text.encode("utf-8"))
            return text
        return wrapper

    # -- installation -----------------------------------------------------

    def _replace_function(self, original, wrapper):
        for module in _minres_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, wrapper)

    def _replace_method(self, cls, attr, wrapper):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def __enter__(self):
        for module, attr, name in _SPANS:
            fn = getattr(module, attr)
            self._replace_function(fn, self._span(name, fn))
        for attr in _NUMERICS:
            fn = getattr(minres.numerics, attr)
            self._replace_function(fn, self._numerics("numerics." + attr, fn))
        fn = minres.oracle.brute_force
        self._replace_function(fn, self._brute_force(fn))
        for attr in ("profile_csv", "profile_svg"):
            fn = getattr(minres.render, attr)
            self._replace_function(fn, self._render("render." + attr, fn))
        fn = minres.exprlang.eval2
        self._replace_function(fn, self._counter("exprlang.eval2", fn))
        for cls, attr, name in _METHOD_SPANS:
            self._replace_method(cls, attr, self._span(name, cls.__dict__[attr]))
        for cls, attrs, name in _METHOD_COUNTERS:
            for attr in attrs:
                self._replace_method(cls, attr,
                                     self._counter(name, cls.__dict__[attr]))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)
        return False

    def op_span(self, name, fn, *args):
        """Run one benchmark op as the root span of its call tree."""
        self.op += 1
        return self._run(name, fn, args, {}, True)

    # -- results ----------------------------------------------------------

    def layer_metrics(self, startup_ms: float) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        c, s, x = self.calls, self.self_ns, self.extra

        def ms(name):
            return s[name] / 1e6

        dp_states = x["oracle.brute_force.dp_states"]
        bf_ns = s["oracle.brute_force"]
        return {
            "exprlang.eval2.calls": (c["exprlang.eval2"], "count"),
            "exprlang.eval2.self_ms": (ms("exprlang.eval2"), "ms"),
            "pressure.law_evals": (c["pressure.law"], "count"),
            "pressure.validate.self_ms": (ms("pressure.validate"), "ms"),
            "criticals.critical_values.calls":
                (c["criticals.critical_values"], "count"),
            "criticals.critical_values.self_ms":
                (ms("criticals.critical_values"), "ms"),
            "criticals.pair_criticals.self_ms":
                (ms("criticals.pair_criticals"), "ms"),
            "numerics.bracket_root.calls": (c["numerics.bracket_root"], "count"),
            "numerics.bracket_root.f_evals":
                (c["numerics.bracket_root.f"], "count"),
            "numerics.grow_bracket_upper.f_evals":
                (c["numerics.grow_bracket_upper.f"], "count"),
            "numerics.golden_section_max.f_evals":
                (c["numerics.golden_section_max.f"], "count"),
            "numerics.adaptive_simpson.calls":
                (c["numerics.adaptive_simpson"], "count"),
            "numerics.adaptive_simpson.f_evals":
                (c["numerics.adaptive_simpson.f"], "count"),
            "numerics.self_ms":
                (sum(ms("numerics." + a) for a in _NUMERICS), "ms"),
            "spatial.solve_spatial.self_ms": (ms("spatial.solve_spatial"), "ms"),
            "spatial.GTable.g.calls": (c["spatial.GTable.g"], "count"),
            "spatial.GTable.g.self_ms": (ms("spatial.GTable.g"), "ms"),
            "spatial.GTable.g_many.calls": (c["spatial.GTable.g_many"], "count"),
            "spatial.solve_height_for_U.self_ms":
                (ms("spatial.solve_height_for_U"), "ms"),
            "spatial.extremal_from_U.self_ms":
                (ms("spatial.extremal_from_U"), "ms"),
            "planar.solve2d.self_ms": (ms("planar.solve2d"), "ms"),
            "body.profile_lookups": (c["body.profile_lookup"], "count"),
            "body.profile_lookup.self_ms": (ms("body.profile_lookup"), "ms"),
            "oracle.check_maximality.calls":
                (c["oracle.check_maximality"], "count"),
            "oracle.check_maximality.self_ms":
                (ms("oracle.check_maximality"), "ms"),
            "oracle.brute_force.calls": (c["oracle.brute_force"], "count"),
            "oracle.brute_force.self_ms": (bf_ns / 1e6, "ms"),
            "oracle.brute_force.dp_states": (dp_states, "count"),
            "oracle.brute_force.ns_per_dp_state":
                (bf_ns / dp_states if dp_states else 0.0, "ns"),
            "render.profile_csv.self_ms": (ms("render.profile_csv"), "ms"),
            "render.profile_svg.self_ms": (ms("render.profile_svg"), "ms"),
            "render.bytes": (x["render.bytes"], "B"),
            "cli.startup_ms": (startup_ms, "ms"),
            "cli.main.self_ms": (ms("cli.main"), "ms"),
        }

    def counts(self) -> dict:
        """Every call count and extra count; deterministic for fixed inputs."""
        return dict(sorted({**self.calls, **self.extra}.items()))

    def write_spans(self, path: str) -> None:
        """Spans as JSON lines: [id, name, start_ns, end_ns, parent, op]."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")
