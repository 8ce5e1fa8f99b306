from __future__ import annotations

import math
import random

import numpy as np
import pytest

from dimspectra import (
    ConfigError,
    EmptyWindow,
    bowen_sn,
    cylinder_mass_bracket,
    declared_model,
    exact_model,
    local_dimension,
    locally_constant,
    sample_points,
    shared_table,
    window_mask,
)
from dimspectra.maps import Branch

LOG2 = math.log(2.0)


def closed_form_f(alpha: float) -> float:
    # Legendre spectrum of the (1/4, 3/4) Bernoulli measure on the doubling map
    t = (alpha * LOG2 - math.log(4.0 / 3.0)) / math.log(3.0)
    return (-t * math.log(t) - (1.0 - t) * math.log(1.0 - t)) / LOG2


@pytest.fixture(scope="module")
def bernoulli_model(doubling, bernoulli_phi):
    return exact_model(doubling, bernoulli_phi)


@pytest.fixture(scope="module")
def uniform_model(doubling, uniform_phi):
    return exact_model(doubling, uniform_phi)


def test_exact_model_requirements(doubling, golden, uniform_phi):
    with pytest.raises(ConfigError):
        exact_model(doubling, locally_constant({(0,): math.log(0.5), (1,): math.log(0.75)}))
    with pytest.raises(ConfigError):
        exact_model(golden, uniform_phi)
    deep = locally_constant(
        {(a, b): -2 * LOG2 for a in (0, 1) for b in (0, 1)}, depth=2
    )
    with pytest.raises(ConfigError):
        exact_model(doubling, deep)


def test_declared_model_envelope(doubling, bernoulli_phi):
    with pytest.raises(ConfigError):
        declared_model(doubling, bernoulli_phi, -1.0, 1.0)
    with pytest.raises(ConfigError):
        declared_model(doubling, bernoulli_phi, 1.0, 0.0)
    model = declared_model(doubling, bernoulli_phi, 0.5, 2.0)
    assert model.k(4) == pytest.approx(0.5 / 16.0)


def test_cylinder_mass_exact(bernoulli_model, doubling):
    lo, hi = cylinder_mass_bracket(bernoulli_model, doubling, (0, 1, 1))
    assert lo == pytest.approx(9.0 / 64.0, abs=1e-15)
    assert hi == pytest.approx(9.0 / 64.0, abs=1e-15)


def test_cylinder_mass_declared_envelope(doubling, bernoulli_phi):
    model = declared_model(doubling, bernoulli_phi, 1.0, 1.0)
    lo, hi = cylinder_mass_bracket(model, doubling, (0, 1, 1))
    # depth-1 brackets are degenerate, so the spread is exactly e^(2 n k_n)
    assert hi / lo == pytest.approx(math.exp(2.0), abs=1e-12)
    assert lo <= 9.0 / 64.0 <= hi


def test_level_masses_sum_to_one(doubling, bernoulli_phi):
    table = shared_table(doubling, bernoulli_phi)
    for n in range(1, 9):
        arr = table.level(n)
        mid = 0.5 * (np.exp(arr.phi_lo) + np.exp(arr.phi_hi))
        assert float(mid.sum()) == pytest.approx(1.0, abs=1e-12)


def test_local_dimension_uniform(uniform_model, doubling):
    ld = local_dimension(uniform_model, doubling, (0, 1, 0, 0, 1, 0, 1, 1))
    assert ld.levels == tuple(range(4, 9))
    assert np.allclose(ld.ratio_lo, 1.0)
    assert np.allclose(ld.ratio_hi, 1.0)
    assert ld.cesaro == pytest.approx(1.0, abs=1e-12)
    assert ld.mass_dim_bracket == pytest.approx((1.0, 1.0), abs=1e-12)
    assert not ld.flagged


def test_local_dimension_boundary_flag(bernoulli_model, doubling):
    # the 0^12 prefix: local dimension 2, but the point hugs the lower edge
    ld = local_dimension(bernoulli_model, doubling, (0,) * 12)
    assert ld.cesaro == pytest.approx(2.0, abs=1e-12)
    assert ld.mass_dim_bracket == pytest.approx((2.0, 2.0), abs=1e-12)
    assert ld.boundary_min == pytest.approx(2.0 ** -7, abs=1e-15)
    assert ld.flagged
    relaxed = local_dimension(
        bernoulli_model, doubling, (0,) * 12, flag_threshold=0.001
    )
    assert not relaxed.flagged


def test_local_dimension_alternating(bernoulli_model, doubling):
    ld = local_dimension(bernoulli_model, doubling, (0, 1) * 6)
    target = math.log(16.0 / 3.0) / (2.0 * LOG2)
    for level, lo, hi in zip(ld.levels, ld.ratio_lo, ld.ratio_hi):
        if level % 2 == 0:
            assert lo == pytest.approx(target, abs=1e-12)
            assert hi == pytest.approx(target, abs=1e-12)
    assert 1.1 < ld.cesaro < 1.3


def test_local_dimension_short_word(bernoulli_model, doubling):
    with pytest.raises(ValueError):
        local_dimension(bernoulli_model, doubling, (0, 1, 0))


def test_local_dimension_builds_each_prefix_once(bernoulli_model, doubling, monkeypatch):
    calls = 0
    inverse = Branch.inverse

    def counting(self, y, **kwargs):
        nonlocal calls
        calls += 1
        return inverse(self, y, **kwargs)

    monkeypatch.setattr(Branch, "inverse", counting)
    rng = random.Random(40)
    word = tuple(rng.randrange(2) for _ in range(40))
    ld = local_dimension(bernoulli_model, doubling, word)
    # Building each prefix once costs at most n - 1 prepended symbols of two
    # inverse calls for the prefix of length n (shared suffixes cost less);
    # building every prefix twice, as before, costs more than that bound.
    assert ld.levels == tuple(range(20, 41))
    assert 0 < calls <= sum(2 * (n - 1) for n in ld.levels)


def test_sample_points_deterministic(bernoulli_model, doubling):
    a = sample_points(bernoulli_model, doubling, 400, 12, seed=7)
    b = sample_points(bernoulli_model, doubling, 400, 12, seed=7)
    c = sample_points(bernoulli_model, doubling, 400, 12, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (400, 12)


def test_sample_points_frequency(bernoulli_model, doubling):
    pts = sample_points(bernoulli_model, doubling, 1500, 16, seed=11)
    assert pts.mean() == pytest.approx(0.75, abs=0.015)


def test_sample_points_respect_subshift(golden, uniform_phi):
    # declared model works on subshifts; samples must avoid the 11 block
    model = declared_model(golden, uniform_phi, 0.2, 1.0)
    pts = sample_points(model, golden, 200, 10, seed=3)
    for row in pts:
        assert golden.admissible(tuple(int(x) for x in row))


def _windowed_root(model, m, n, alpha, eps):
    """(bowen_sn root, window size), or (nan, 0) for an empty window."""
    try:
        s = bowen_sn(m, model.phi, n, alpha, eps)
    except EmptyWindow:
        return math.nan, 0
    return s, int(np.sum(window_mask(m, model.phi, n, alpha, eps)))


def test_coarse_spectrum_window_shadow(bernoulli_model, doubling):
    alphas = [0.3, 0.8113, 1.0, 1.5, 2.5]
    shadow = [_windowed_root(bernoulli_model, doubling, 10, alpha, 0.08) for alpha in alphas]
    assert math.isnan(shadow[0][0]) and shadow[0][1] == 0
    assert math.isnan(shadow[4][0]) and shadow[4][1] == 0
    for alpha, (s, count) in zip(alphas[1:4], shadow[1:4]):
        assert count > 0
        # finite-level roots approach f from below; never overshoot by 0.1
        assert s <= closed_form_f(alpha) + 0.1


def test_coarse_spectrum_uniform_degenerate(uniform_model, doubling):
    shadow = [_windowed_root(uniform_model, doubling, 10, alpha, 0.01) for alpha in (0.8, 1.0, 1.2)]
    assert math.isnan(shadow[0][0])
    assert math.isnan(shadow[2][0])
    assert shadow[1][0] == pytest.approx(1.0, abs=1e-10)
    assert shadow[1][1] == 1024
