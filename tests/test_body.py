"""Profile's row table: knots(), max_slope(), is_convex() and the
profiles it refuses to build.

The table holds a straight span as its two ends and an arc as its
samples.  The unit cases pin it on hand-built profiles; the property
checks max_slope, is_convex and the export grid on random solved
bodies against per-segment-kind walks kept here as the reference.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from minres import solve
from minres.body import Linear, ParamArc, ProblemSpec, Profile, flat_profile
from minres.errors import InvalidParameter
from minres.pressure import make_builtin, make_zero
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


def test_arc_radii_that_run_backwards_are_rejected():
    arc = ParamArc(((0.5, 0.0, 1.0), (0.9, 0.1, 1.2), (0.7, 0.3, 1.5),
                    (1.0, 0.7, 2.0)))
    with pytest.raises(InvalidParameter, match="run backwards"):
        Profile(T=1.0, segments=(Linear(0.0, 0.5, 0.0), arc), beta=0.7)
    with pytest.raises(InvalidParameter, match="segment runs backwards"):
        Profile(T=1.0, segments=(Linear(0.0, 0.5, 0.0), Linear(0.5, 0.4, 1.0),
                                 Linear(0.4, 1.0, 1.0)), beta=0.5)


def test_a_solver_arc_with_one_radius_moved_back_is_rejected():
    """Built, it would reach the quadrature and fail there as if the
    arc were sampled too coarsely."""
    front = solve(ProblemSpec(d=3, T=1.0, H=0.55, p_plus=make_builtin(1.0, 0.0),
                              p_minus=make_zero())).front
    cap, arc = front.segments
    samples = list(arc.samples)
    samples[100] = (samples[98][0],) + samples[100][1:]
    with pytest.raises(InvalidParameter, match="run backwards"):
        Profile(T=front.T, segments=(cap, ParamArc(tuple(samples))),
                beta=front.beta)


@pytest.mark.parametrize("shift", [5e-10, -5e-10, 1e-16])
def test_interior_joints_must_meet_exactly(shift):
    """Before, a 5e-10 gap was accepted and x_at(0.5) read -5e-10."""
    with pytest.raises(InvalidParameter, match="do not tile"):
        Profile(T=1.0, segments=(Linear(0.0, 0.5, 0.0),
                                 Linear(0.5 + shift, 1.0, 1.0)), beta=0.5)


def test_profile_ends_keep_their_tolerance():
    """CSV profiles may start and end within 1e-9 max(1, T) of 0 and T."""
    body = Profile(T=1.0, segments=(Linear(5e-10, 0.5, 0.0),
                                    Linear(0.5, 1.0 - 5e-10, 1.0)), beta=0.5)
    assert body.x_at(0.0) == 0.0
    assert body.x_at(1.0) == 0.5
    with pytest.raises(InvalidParameter, match="gap at t="):
        Profile(T=1.0, segments=(Linear(2e-9, 1.0, 0.0),), beta=0.0)
    with pytest.raises(InvalidParameter, match="segments end at t="):
        Profile(T=1.0, segments=(Linear(0.0, 1.0 - 2e-9, 0.0),), beta=0.0)


@pytest.mark.parametrize("samples", [
    (), ((0.0, 0.0, 1.0),), ((0.0, 0.0, 1.0), (1.0, 1.0)),
    ((0.0, 0.0, 1.0), (1.0, 1.0, 1.0, 1.0))])
def test_malformed_arc_is_rejected(samples):
    with pytest.raises(InvalidParameter,
                       match="two or more \\(t, x, u\\) samples"):
        ParamArc(samples)


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
