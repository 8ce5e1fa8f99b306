from __future__ import annotations

import math

import numpy as np
import pytest

from dimspectra.numerics import (
    _CHUNK,
    AitkenAccelerator,
    NeumaierSum,
    bisect_root,
    expand_to_sign_change,
    format_float,
    golden_section_min,
    log_sum_exp,
)


def test_neumaier_compensates_cancellation():
    acc = NeumaierSum()
    for v in (1.0, 1e100, 1.0, -1e100):
        acc.add(v)
    assert acc.value == 2.0


def test_log_sum_exp_matches_numpy():
    vals = np.random.default_rng(0).normal(size=10001)
    ref = float(np.logaddexp.reduce(np.sort(vals)))
    assert log_sum_exp(vals) == pytest.approx(ref, abs=1e-12)


def test_log_sum_exp_thread_count_invariant():
    vals = np.random.default_rng(3).normal(scale=5.0, size=4097)
    one = log_sum_exp(vals, 1)
    assert log_sum_exp(vals, 4) == pytest.approx(one, abs=1e-13)
    assert log_sum_exp(vals, 16) == pytest.approx(one, abs=1e-13)


def _chunked_log_sum_exp(values: np.ndarray) -> float:
    """Reference: per-chunk partial sums composed by a Neumaier sum."""
    m = float(np.max(values))
    acc = NeumaierSum()
    for i in range(0, values.size, _CHUNK):
        acc.add(float(np.sum(np.exp(values[i : i + _CHUNK] - m))))
    return m + math.log(acc.value)


@pytest.mark.parametrize("size", [1, 4, _CHUNK, _CHUNK + 1])
def test_log_sum_exp_equals_chunked_composition(size):
    vals = np.random.default_rng(size).normal(scale=20.0, size=size)
    ref = _chunked_log_sum_exp(vals)
    assert log_sum_exp(vals, 1) == ref
    assert log_sum_exp(vals, 2) == ref


@pytest.mark.parametrize("size", [4, _CHUNK + 1])
def test_log_sum_exp_non_finite(size):
    for bad in (math.nan, math.inf):
        vals = np.zeros(size)
        vals[size // 2] = bad
        with pytest.raises(ValueError):
            log_sum_exp(vals)
    assert log_sum_exp(np.full(size, -math.inf)) == -math.inf


def test_log_sum_exp_empty_and_pair():
    assert log_sum_exp(np.array([])) == -math.inf


def test_log_sum_exp_no_overflow():
    vals = np.array([1000.0, 1000.0])
    assert log_sum_exp(vals) == pytest.approx(1000.0 + math.log(2.0))


def test_aitken_kills_geometric_error():
    # s_n = 1 + 2^-n: the accelerated value hits the limit on the third push.
    acc = AitkenAccelerator()
    acc.push(1.5)
    acc.push(1.25)
    assert acc.push(1.125) == pytest.approx(1.0, abs=1e-12)


def test_bisect_root_linear_exact():
    assert bisect_root(lambda s: 1.0 - s, 0.0, 8.0, xtol=1e-12) == pytest.approx(
        1.0, abs=1e-11
    )


def test_expand_to_sign_change_failure():
    with pytest.raises(ValueError):
        expand_to_sign_change(lambda s: 1.0, 0.0, 1.0, max_expand=3)


def test_golden_section_min_parabola():
    x, fx = golden_section_min(lambda x: (x - 1.3) ** 2, -4.0, 4.0, xtol=1e-9)
    assert x == pytest.approx(1.3, abs=1e-6)
    assert fx == pytest.approx(0.0, abs=1e-12)


def test_format_float_round_trips():
    for x in (0.1, math.pi, 1.0 / 3.0, 1e300, -7.25, 0.0):
        assert float(format_float(x)) == x
    assert format_float(math.inf) == "inf"
