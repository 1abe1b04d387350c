"""Profile CSV and silhouette SVG writers (deterministic output).

CSV columns: t, x_front, x_rear, u_front, u_rear.  Slope cells are
empty exactly at interior kinks, where the one-sided slopes differ.
Floats are written with repr (shortest round-trip), so identical
solutions produce byte-identical files.

The SVG shows the assembled body silhouette at a fixed 800x600
viewport: front surface drawn down from height H, rear surface up from
0, mirrored across the rotation axis.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from . import __version__
from .body import BodySolution


def _merged_grid(solution: BodySolution, n_uniform: int) -> list[float]:
    T = solution.spec.T
    ts = set()
    for k in range(n_uniform + 1):
        ts.add(T * k / n_uniform)
    for profile in (solution.front, solution.rear):
        for t, _ in profile.knots():
            ts.add(min(max(t, 0.0), T))
    return sorted(ts)


def _slope_cells(u: np.ndarray, unambiguous: np.ndarray) -> list[str]:
    return [repr(v) if ok else ""
            for v, ok in zip(u.tolist(), unambiguous.tolist())]


def profile_csv(solution: BodySolution, n_uniform: int = 256) -> str:
    ts = _merged_grid(solution, n_uniform)
    xf, uf, okf = solution.front.sample(ts)
    xr, ur, okr = solution.rear.sample(ts)
    rows = ["t,x_front,x_rear,u_front,u_rear"]
    rows.extend(f"{t!r},{a!r},{b!r},{c},{d}" for t, a, b, c, d in zip(
        ts, xf.tolist(), xr.tolist(), _slope_cells(uf, okf),
        _slope_cells(ur, okr)))
    return "\n".join(rows) + "\n"


_W, _H = 800, 600
_MARGIN = 60.0


def profile_svg(solution: BodySolution, n_uniform: int = 256) -> str:
    spec = solution.spec
    T, H = spec.T, spec.H
    grid = _merged_grid(solution, n_uniform)

    span_h = max(H, 0.25 * T)  # keep a flat disk visible
    sx = (_W - 2 * _MARGIN) / (2 * T)
    sy = (_H - 2 * _MARGIN) / span_h
    s = min(sx, sy)
    cx = _W / 2.0
    y0 = _H - _MARGIN  # pixel row of body height 0

    def px(r: float) -> float:
        return cx + s * r

    def py(z: float) -> float:
        return y0 - s * z

    # closed outline: front surface left-to-right, rear surface back
    ts = np.array(grid)
    right, left = px(ts).tolist(), px(-ts).tolist()
    front = py(H - solution.front.sample(grid)[0]).tolist()
    rear = py(solution.rear.sample(grid)[0]).tolist()
    point = "{:.2f},{:.2f}".format
    path = " ".join(chain(
        map(point, reversed(left), reversed(front)),  # left half of the front
        map(point, right, front),  # right half of the front
        map(point, reversed(right), reversed(rear)),  # right half of the rear
        map(point, left, rear)))  # left half of the rear

    ticks = []
    for r, label in ((-T, f"-{T:g}"), (0.0, "0"), (T, f"{T:g}")):
        x = px(r)
        ticks.append(f'<line x1="{x:.2f}" y1="{y0:.2f}" x2="{x:.2f}" '
                     f'y2="{y0 + 6:.2f}" stroke="#444"/>')
        ticks.append(f'<text x="{x:.2f}" y="{y0 + 20:.2f}" font-size="12" '
                     f'text-anchor="middle" fill="#444">{label}</text>')
    for z, label in ((0.0, "0"), (H, f"{H:g}")) if H > 0 else ((0.0, "0"),):
        y = py(z)
        ticks.append(f'<line x1="{_MARGIN - 6:.2f}" y1="{y:.2f}" '
                     f'x2="{_MARGIN:.2f}" y2="{y:.2f}" stroke="#444"/>')
        ticks.append(f'<text x="{_MARGIN - 10:.2f}" y="{y + 4:.2f}" '
                     f'font-size="12" text-anchor="end" '
                     f'fill="#444">{label}</text>')

    return f"""<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">
<desc>minres {__version__}</desc>
<rect width="{_W}" height="{_H}" fill="white"/>
<line x1="{_MARGIN:.2f}" y1="{y0:.2f}" x2="{_W - _MARGIN:.2f}" y2="{y0:.2f}" stroke="#444" stroke-width="1"/>
<line x1="{cx:.2f}" y1="{_MARGIN:.2f}" x2="{cx:.2f}" y2="{y0:.2f}" stroke="#bbb" stroke-width="1" stroke-dasharray="4 4"/>
<polygon points="{path}" fill="#9ecae1" fill-opacity="0.6" stroke="#1f77b4" stroke-width="1.5"/>
{''.join(ticks)}
<text x="{_MARGIN:.2f}" y="{_MARGIN - 20:.2f}" font-size="16" fill="#222">{solution.case_label}  d={spec.d}  T={T:g}  H={H:g}</text>
</svg>
"""
