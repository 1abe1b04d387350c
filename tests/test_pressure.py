"""Pressure models: construction, evaluation, admissibility validation."""

import pickle
import random

import numpy as np
import pytest

import minres.exprlang as exprlang
from minres.errors import DomainError, InvalidParameter
from minres.pressure import (PressureModel, make_builtin, make_expr,
                             make_zero, validate)


def test_builtin_matches_expr_law():
    """Closed-form builtin and dual-evaluated expression agree."""
    b = make_builtin(1.0, 0.5)
    e = make_expr("1/(1+u^2)+0.5")
    for u in (0.0, 0.3, 1.0, 2.7, 10.0, 100.0):
        assert b.p(u) == pytest.approx(e.p(u), abs=1e-12)
        assert b.dp(u) == pytest.approx(e.dp(u), abs=1e-12)
        assert b.d2p(u) == pytest.approx(e.d2p(u), abs=1e-12)


def test_builtin_scaled():
    b = make_builtin(0.5, -0.5)
    assert b.p(0.0) == 0.0
    assert b.p(1.0) == pytest.approx(-0.25, abs=1e-15)
    assert b.dp(1.0) == pytest.approx(-0.25, abs=1e-15)


def test_eval_triple_consistent():
    m = make_expr("1/(1+u^2)")
    v, d1, d2 = m.eval(1.0)
    assert (v, d1, d2) == (m.p(1.0), m.dp(1.0), m.d2p(1.0))
    assert v == pytest.approx(0.5, abs=1e-15)
    assert d1 == pytest.approx(-0.5, abs=1e-15)
    assert d2 == pytest.approx(0.5, abs=1e-15)


def test_zero_model():
    z = make_zero()
    assert z.is_zero
    assert z.p(3.0) == 0.0 and z.dp(3.0) == 0.0 and z.d2p(3.0) == 0.0
    assert z.describe() == "zero"


def test_describe_round_trips():
    assert make_builtin(1.0, 0.5).describe() == "newton:1,0.5"
    assert make_builtin(2.5, 0.0).describe() == "newton:2.5,0"
    desc = make_expr("1/(1+u^2)+0.5").describe()
    again = make_expr(desc)
    assert again.p(1.3) == pytest.approx(make_builtin(1.0, 0.5).p(1.3),
                                         abs=1e-14)


def test_invalid_builtin():
    with pytest.raises(InvalidParameter):
        make_builtin(0.0, 0.0)
    with pytest.raises(InvalidParameter):
        make_builtin(-1.0, 0.0)
    with pytest.raises(InvalidParameter):
        make_builtin(float("inf"), 0.0)


def test_validate_newton_family():
    for model in (make_builtin(1.0, 0.0),
                  make_builtin(1.0, 0.5),
                  make_expr("1/(1+u^2)+0.5"),
                  make_expr("0.5/(1+u^2)-0.5")):
        rep = validate(model)
        assert rep.passed, rep.violations
        assert rep.u_bar_estimate == pytest.approx(3.0 ** -0.5, rel=1e-6)


def test_validate_reports_limit():
    rep = validate(make_expr("1/(1+u^2)+0.5"))
    assert rep.limit_at_infinity == pytest.approx(0.5, abs=1e-6)


def test_validate_rejects_linear_growth():
    rep = validate(make_expr("u"))
    assert not rep.passed
    conds = {c for c, _, _ in rep.violations}
    assert "ii" in conds or "iii" in conds


def test_validate_rejects_wrong_curvature():
    # p'' > 0 everywhere: no concave-then-convex transition
    rep = validate(make_expr("exp(-u)"))
    assert not rep.passed
    assert any(c == "iv" for c, _, _ in rep.violations)


def test_validate_reports_an_undefined_slope_as_data():
    """Condition (i) at the first sampled slope where sqrt(1-u) is
    undefined, instead of the DomainError the law raises there."""
    model = make_expr("1/(1+u^2)+sqrt(1-u)")
    with pytest.raises(DomainError) as undefined:
        model.eval_many(np.geomspace(1e-8, 1e6, 256))
    rep = validate(model)
    assert not rep.passed
    assert rep.violations == (("i", undefined.value.u,
                               str(undefined.value)),)
    assert 1.0 < undefined.value.u < 1.1
    assert rep.limit_at_infinity is None and rep.u_bar_estimate is None


def test_validate_zero_passes():
    rep = validate(make_zero())
    assert rep.passed and rep.violations == ()


def test_random_scales_keep_shape():
    rng = random.Random(4242)
    for _ in range(10):
        scale = rng.uniform(0.2, 4.0)
        offset = rng.uniform(-1.0, 1.0)
        rep = validate(make_builtin(scale, offset))
        assert rep.passed
        assert rep.u_bar_estimate == pytest.approx(3.0 ** -0.5, rel=1e-5)


def test_monotone_shape_of_derivative():
    """p' falls until u_bar then rises back toward 0 (conditions iii, iv)."""
    m = make_builtin(1.0, 0.0)
    ubar = 3.0 ** -0.5
    grid_lo = [0.01 * k for k in range(1, 50)]
    for a, b in zip(grid_lo, grid_lo[1:]):
        if b < ubar:
            assert m.dp(b) < m.dp(a)
    grid_hi = [ubar + 0.1 * k for k in range(1, 40)]
    for a, b in zip(grid_hi, grid_hi[1:]):
        assert m.dp(b) > m.dp(a)


def test_models_pickle():
    for model in (make_expr("1/(1+u^2)+0.5"), make_builtin(2.0, 0.5),
                  make_zero()):
        copy = pickle.loads(pickle.dumps(model))
        assert copy == model and copy.describe() == model.describe()
        assert copy.eval(0.7) == model.eval(0.7)


def test_model_is_frozen():
    m = make_builtin(1.0, 0.0)
    with pytest.raises(AttributeError):
        m.scale = 2.0


def test_each_scalar_evaluation_is_one_eval2_call(monkeypatch):
    """Scalar law evaluations go through exprlang.eval2 once each, so a
    counter on that one name sees every one of them."""
    calls = []
    real = exprlang.eval2

    def counting(e, u):
        calls.append(u)
        return real(e, u)

    monkeypatch.setattr(exprlang, "eval2", counting)
    for model, per_call in ((make_expr("1/(1+u^2)"), 1),
                            (make_builtin(1.0, 0.5), 0), (make_zero(), 0)):
        for method in (model.p, model.dp, model.d2p, model.eval):
            calls.clear()
            method(0.5)
            assert len(calls) == per_call, (model.describe(), method)
