"""Profile's row view: knots(), max_slope() and is_convex().

knots() reads a straight span as its two ends and an arc as its
samples.  The unit cases pin it on hand-built profiles; the property
checks max_slope, is_convex and the export grid on random solved
bodies against per-segment-kind walks kept here as the reference.
"""

import math

from hypothesis import given, settings, strategies as st

from minres import solve
from minres.body import Linear, ParamArc, Profile, flat_profile
from minres.render import _merged_grid
from test_properties import (_pair_spec, aspects, dims, offsets, radii,
                             rear_scales, scales)


def test_concave_profile_is_not_convex():
    bent = Profile(T=2.0, segments=(Linear(0.0, 1.0, 1.1),
                                    Linear(1.0, 2.0, 0.9)), beta=2.0)
    assert list(bent.knots()) == [(0.0, 1.1), (1.0, 1.1), (1.0, 0.9),
                                  (2.0, 0.9)]
    assert bent.max_slope() == 1.1
    assert not bent.is_convex()


def test_flat_profile_has_zero_max_slope():
    flat = flat_profile(3.0)
    assert list(flat.knots()) == [(0.0, 0.0), (3.0, 0.0)]
    assert flat.max_slope() == 0.0
    assert flat.is_convex()


def test_cap_and_arc_knots_are_segment_ends_and_samples():
    arc = ParamArc(samples=((0.5, 0.0, 0.0), (0.75, 0.1, 0.5),
                            (1.0, 0.3, 1.0)))
    body = Profile(T=1.0, segments=(Linear(0.0, 0.5, 0.0), arc), beta=0.3)
    assert list(body.knots()) == [(0.0, 0.0), (0.5, 0.0), (0.5, 0.0),
                                  (0.75, 0.5), (1.0, 1.0)]
    assert body.max_slope() == 1.0
    assert body.is_convex()


# the per-segment-kind walks that knots() replaced, as reference

def _reference_max_slope(profile):
    worst = 0.0
    for seg in profile.segments:
        if isinstance(seg, Linear):
            worst = max(worst, seg.slope)
        else:
            worst = max(worst, max(s[2] for s in seg.samples))
    return worst


def _reference_is_convex(profile):
    prev = -math.inf
    for seg in profile.segments:
        slopes = ([u for _, _, u in seg.samples]
                  if isinstance(seg, ParamArc) else [seg.slope])
        for u in slopes:
            if u < prev - 1e-9:
                return False
            prev = u
    return True


def _profile_breakpoints(profile):
    ts = []
    for seg in profile.segments:
        ts.append(seg.t_from)
        if isinstance(seg, ParamArc):
            ts.extend(s[0] for s in seg.samples)
        ts.append(seg.t_to)
    return ts


def _reference_merged_grid(solution, n_uniform):
    T = solution.spec.T
    ts = set()
    for k in range(n_uniform + 1):
        ts.add(T * k / n_uniform)
    for profile in (solution.front, solution.rear):
        for t in _profile_breakpoints(profile):
            ts.add(min(max(t, 0.0), T))
    return sorted(ts)


@settings(max_examples=60, deadline=None)
@given(d=dims, s=scales, o=offsets, T=radii, h=aspects, k=rear_scales,
       o2=offsets, n_samples=st.sampled_from((3, 17, 256)),
       n_uniform=st.sampled_from((7, 256)))
def test_row_view_matches_the_segment_walks(d, s, o, T, h, k, o2, n_samples,
                                            n_uniform):
    sol = solve(_pair_spec(d, s, o, T, h, k, o2), n_samples=n_samples)
    for profile in (sol.front, sol.rear):
        assert profile.max_slope() == _reference_max_slope(profile)
        assert profile.is_convex() == _reference_is_convex(profile)
    assert (_merged_grid(sol, n_uniform)
            == _reference_merged_grid(sol, n_uniform))
