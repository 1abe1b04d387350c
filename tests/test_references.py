"""Profile lookups checked against a plain reference implementation.

Profile lookups bisect segment ends and arc abscissae; the reference
scans the segments and samples linearly.
"""

from minres import solve
from minres.body import Linear, ParamArc
from test_acceptance import _spec_for


def _rise(seg):
    if isinstance(seg, Linear):
        return seg.slope * (seg.t_to - seg.t_from)
    return seg.samples[-1][1] - seg.samples[0][1]


def _scan(profile, t):
    """(segment index, height at its start) by a linear scan."""
    x0 = 0.0
    last = len(profile.segments) - 1
    for i, seg in enumerate(profile.segments):
        if t < seg.t_to or i == last:
            return i, x0
        x0 += _rise(seg)


def _scan_arc(arc, t, col):
    pts = arc.samples
    if t <= pts[0][0]:
        return pts[0][col]
    if t >= pts[-1][0]:
        return pts[-1][col]
    j = next(j for j, s in enumerate(pts) if s[0] > t)
    t0, t1 = pts[j - 1][0], pts[j][0]
    v0, v1 = pts[j - 1][col], pts[j][col]
    if t1 == t0:
        return v1
    return v0 + (t - t0) / (t1 - t0) * (v1 - v0)


def ref_x_at(profile, t):
    i, x0 = _scan(profile, t)
    seg = profile.segments[i]
    if isinstance(seg, Linear):
        return x0 + seg.slope * (t - seg.t_from)
    return _scan_arc(seg, t, 1)


def _slope(seg, t):
    if isinstance(seg, Linear):
        return seg.slope
    return _scan_arc(seg, t, 2)


def ref_slope_at(profile, t):
    i, _ = _scan(profile, t)
    return _slope(profile.segments[i], t)


def ref_slope_if_unambiguous(profile, t):
    i, _ = _scan(profile, t)
    seg = profile.segments[i]
    if i > 0 and abs(t - seg.t_from) <= 1e-9 * max(1.0, profile.T):
        prev = profile.segments[i - 1]
        left = _slope(prev, prev.t_to)
        right = _slope(seg, seg.t_from)
        if abs(left - right) > 1e-9 * max(1.0, abs(left), abs(right)):
            return None
    return _slope(seg, t)


def _probe_points(profile):
    """Kinks, every arc sample and the midpoints between them, and T."""
    ts = {0.0, profile.T}
    ts.update(profile.T * k / 64 for k in range(65))
    for seg in profile.segments:
        ts.update((seg.t_from, seg.t_to))
        if isinstance(seg, ParamArc):
            arc_ts = [s[0] for s in seg.samples]
            ts.update(arc_ts)
            ts.update(0.5 * (a + b) for a, b in zip(arc_ts, arc_ts[1:]))
    return sorted(ts)


def _assert_lookups_match(profile):
    for t in _probe_points(profile):
        assert profile.x_at(t) == ref_x_at(profile, t), t
        assert profile.slope_at(t) == ref_slope_at(profile, t), t
        assert (profile.slope_if_unambiguous(t)
                == ref_slope_if_unambiguous(profile, t)), t


def test_lookups_match_scan_on_planar_cap_then_slope():
    sol = solve(_spec_for(2, 2.0, 1.0, "pair"))
    front = sol.front
    assert [type(s) for s in front.segments] == [Linear, Linear]
    assert front.segments[0].slope == 0.0
    knee = front.segments[0].t_to
    assert front.slope_if_unambiguous(knee) is None
    _assert_lookups_match(front)
    _assert_lookups_match(sol.rear)


def test_lookups_match_scan_on_two_arc_split():
    sol = solve(_spec_for(3, 1.0, 0.8, "pair"))
    for profile in (sol.front, sol.rear):
        assert [type(s) for s in profile.segments] == [Linear, ParamArc]
        assert profile.segments[0].slope == 0.0
        _assert_lookups_match(profile)
