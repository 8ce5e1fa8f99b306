from __future__ import annotations

import math

import pytest

from dimspectra import (
    NotConverged,
    bowen_root,
    locally_constant,
    normalize_potential,
    pressure,
    pressure_bracket,
)
from dimspectra.pressure import gluing_length

LOG2 = math.log(2.0)
GOLDEN_ENTROPY = math.log((1.0 + math.sqrt(5.0)) / 2.0)


def test_gluing_length(doubling, golden):
    assert gluing_length(doubling) == 0
    assert gluing_length(golden) == 1


def test_full_shift_log_sum_closed_form(doubling, two_slopes, bernoulli_phi):
    # depth-1 locally constant on a full shift: P = log sum of weights
    p = pressure(doubling, bernoulli_phi)
    assert p.value == pytest.approx(0.0, abs=1e-12)
    assert p.lower == pytest.approx(0.0, abs=1e-12)
    assert p.upper == pytest.approx(0.0, abs=1e-12)
    assert p.level <= 2

    phi = locally_constant({(0,): math.log(0.7), (1,): math.log(0.2)})
    p2 = pressure(two_slopes, phi)
    assert p2.value == pytest.approx(math.log(0.9), abs=1e-12)


def test_golden_mean_entropy(golden, zero_phi):
    p = pressure(golden, zero_phi, tol=1e-9)
    assert p.value == pytest.approx(GOLDEN_ENTROPY, abs=1e-9)
    assert p.lower <= GOLDEN_ENTROPY <= p.upper
    assert p.level <= 24


def test_pressure_bracket_contains_truth(golden, zero_phi):
    widths = []
    for n in (2, 4, 6, 8):
        br = pressure_bracket(golden, zero_phi, n)
        assert br.lower <= GOLDEN_ENTROPY <= br.upper
        widths.append(br.upper - br.lower)
    assert widths == sorted(widths, reverse=True)


def test_not_converged_carries_enclosure(golden, zero_phi):
    with pytest.raises(NotConverged) as err:
        pressure(golden, zero_phi, tol=1e-13, max_level=4)
    lo, hi = err.value.enclosure
    assert lo <= GOLDEN_ENTROPY <= hi


def test_normalize_potential(golden, zero_phi):
    norm = normalize_potential(golden, zero_phi, require_negative=False)
    assert norm.pressure_shift == pytest.approx(GOLDEN_ENTROPY, abs=1e-10)
    assert pressure(golden, norm).value == pytest.approx(0.0, abs=1e-9)


def test_normalize_negative_result(doubling):
    phi = locally_constant({(0,): math.log(3.0), (1,): math.log(3.0)})
    norm = normalize_potential(doubling, phi)
    lo, hi = norm.bounds(doubling)
    assert hi < 0.0
    assert pressure(doubling, norm).value == pytest.approx(0.0, abs=1e-10)


def test_bowen_root_two_slopes(two_slopes):
    # (1/2)^s + (1/4)^s = 1 has the golden-ratio solution in x = 2^-s
    truth = GOLDEN_ENTROPY / LOG2
    root = bowen_root(two_slopes)
    assert root.value == pytest.approx(truth, abs=1e-9)
    assert root.lower - 1e-9 <= truth <= root.upper + 1e-9
    assert not root.parabolic


def test_bowen_root_golden_mean(golden):
    # One gluing symbol (k = 1) keeps the lower curve below the upper one,
    # so the bracket stays open and the ratio root carries the value.
    truth = GOLDEN_ENTROPY / LOG2
    root = bowen_root(golden)
    assert root.lower <= truth <= root.upper
    assert root.lower < root.upper
    assert abs(root.value - truth) <= 1e-6
    assert not root.parabolic


def test_bowen_root_doubling(doubling):
    root = bowen_root(doubling)
    assert root.value == pytest.approx(1.0, abs=1e-12)
    assert root.lower == pytest.approx(1.0, abs=1e-12)
    assert root.upper == pytest.approx(1.0, abs=1e-12)


def test_bowen_root_parabolic(farey, mp):
    for m in (farey, mp):
        root = bowen_root(m)
        assert root.parabolic
        assert root.upper == math.inf
        assert root.value == pytest.approx(1.0, abs=1e-6)


def test_pressure_thread_invariance(golden, zero_phi):
    a = pressure(golden, zero_phi, tol=1e-9, threads=1)
    b = pressure(golden, zero_phi, tol=1e-9, threads=4)
    assert b.value == pytest.approx(a.value, abs=1e-13)
    assert b.level == a.level
