from __future__ import annotations

import functools
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from dimspectra import (
    ConstraintInfeasible,
    DegenerateCylinder,
    LevelTooLarge,
    finite_measures,
    EmptyWindow,
    InadmissibleSupport,
    NoConnector,
    NotConverged,
    block_measure,
    block_objective,
    bowen_sn,
    connector_length,
    doubling_map,
    geometric,
    linear_full_branch_map,
    locally_constant,
    optimize_block_weights,
    window_mask,
    word_rows,
)
from dimspectra.numerics import log_sum_exp
from root_oracle import _bisect, _drive, _expand, _four_end_ratio
from dimspectra.pressure import _moran_root
from dimspectra.symbolic import SMALL_WORDS, Potential, level_counts, shared_table, words_at_level

LOG2 = math.log(2.0)
THREE_SYMBOL_PHI = {(0,): math.log(0.2), (1,): math.log(0.3), (2,): math.log(0.5)}
ALPHA_PEAK = math.log(16.0 / 3.0) / (2.0 * LOG2)
ALPHA_FIX = 0.8112781244591328


def binary_entropy(t: float) -> float:
    return -t * math.log(t) - (1.0 - t) * math.log(1.0 - t)


def _lex_weights(m, n, weights):
    """Weights keyed by word, as the array in lexicographic word order."""
    words = list(words_at_level(m, n))
    q = np.zeros(len(words))
    for word, value in weights.items():
        q[words.index(word)] = value
    return q


def test_connector_full_shift(doubling):
    con = connector_length(shared_table(doubling), 3)
    assert con.k == 0
    assert con.excluded == 0
    assert bool(con.eligible.all())
    assert con.words[(1, 1)] == ()


def test_connector_golden_mean(golden):
    # gluing ...1 to 1... needs one symbol: 1-0-1
    con = connector_length(shared_table(golden), 2)
    assert con.k == 1
    assert con.words[(1, 1)] == (0,)
    assert con.words[(1, 0)] == (0,)
    assert golden.admissible((0, 1) + con.words[(1, 1)] + (1, 0))


def test_connector_excludes_neutral_word(mp):
    # the all-parabolic word has no positive expansion bracket
    con = connector_length(shared_table(mp), 4)
    assert con.k == 0
    assert con.excluded == 1
    assert not con.eligible[0]  # lexicographically first word is 0000


def test_block_measure_uniform_golden(golden, uniform_phi):
    bm = block_measure(golden, uniform_phi, 2, [1 / 3, 1 / 3, 1 / 3])
    assert bm.entropy == pytest.approx(math.log(3.0), abs=1e-12)
    assert bm.connector_k == 1
    # Abramov: the spread measure has period n + k = 3
    assert bm.spread_entropy == pytest.approx(math.log(3.0) / 3.0, abs=1e-12)
    assert bm.lyapunov_bracket == pytest.approx((LOG2, LOG2), abs=1e-13)
    assert bm.alpha_bracket == pytest.approx((1.0, 1.0), abs=1e-13)
    dim = math.log(3.0) / (3.0 * LOG2)
    assert bm.spread_dim_bracket[0] == pytest.approx(dim, abs=1e-9)
    # crude uniform bound: k*L/(n+k) + rho with L = log 2 here
    assert bm.lemma_bar == pytest.approx(LOG2 / 3.0 + bm.rho, abs=1e-12)


def test_block_measure_rejections(doubling, golden, mp, bernoulli_phi, uniform_phi):
    with pytest.raises(ConstraintInfeasible):
        block_measure(doubling, bernoulli_phi, 2, [0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ConstraintInfeasible):
        block_measure(doubling, bernoulli_phi, 2, [-0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ConstraintInfeasible):  # golden has 3 words at level 2
        block_measure(golden, uniform_phi, 2, [0.25, 0.25, 0.25, 0.25])
    # weight on the neutral-orbit word: gluing it is not expanding
    with pytest.raises(InadmissibleSupport):
        block_measure(mp, uniform_phi, 4, _lex_weights(mp, 4, {(0, 0, 0, 0): 1.0}))


def test_disjoint_mixture_entropy_identity(doubling, bernoulli_phi):
    p = {(0, 0): 0.5, (0, 1): 0.5}
    q = {(1, 0): 0.25, (1, 1): 0.75}
    lam = 0.3
    mix = {w: lam * v for w, v in p.items()}
    mix.update({w: (1 - lam) * v for w, v in q.items()})
    bp, bq, bmix = (
        block_measure(doubling, bernoulli_phi, 2, _lex_weights(doubling, 2, w))
        for w in (p, q, mix)
    )
    expected = lam * bp.entropy + (1 - lam) * bq.entropy + binary_entropy(lam)
    assert bmix.entropy == pytest.approx(expected, abs=1e-12)
    assert bmix.entropy >= lam * bp.entropy + (1 - lam) * bq.entropy


def test_optimizer_recovers_uniform_peak(doubling, bernoulli_phi):
    bm = optimize_block_weights(doubling, bernoulli_phi, 6, ALPHA_PEAK)
    assert block_objective(bm) == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(bm.weights - 1.0 / 64.0)) < 1e-10


def test_optimizer_recovers_bernoulli_product(doubling, bernoulli_phi):
    bm = optimize_block_weights(doubling, bernoulli_phi, 6, ALPHA_FIX)
    assert block_objective(bm) == pytest.approx(
        binary_entropy(0.25) / LOG2, abs=1e-10
    )
    words = list(words_at_level(doubling, 6))
    i = words.index((0, 1, 1, 0, 1, 0))
    assert bm.weights[i] == pytest.approx(0.25**3 * 0.75**3, abs=1e-12)


def test_block_weights_read_one_table(bernoulli_phi):
    # the connector reads psi from the potential's table: no second,
    # potential-free table is built beside it
    m = doubling_map()
    optimize_block_weights(m, bernoulli_phi, 6, ALPHA_FIX)
    assert list(m._table_cache) == [bernoulli_phi]


def test_optimizer_infeasible_alpha(doubling, bernoulli_phi):
    # ratios on the full 2-shift stay within [alpha_min, 2]
    with pytest.raises(ConstraintInfeasible):
        optimize_block_weights(doubling, bernoulli_phi, 6, 3.0)


def _moran_weights(m, n):
    """Block measure with q_w = diam(w)^(s_n) over the eligible level-n
    words, s_n the Moran root of the whole level, and s_n."""
    table = shared_table(m, None)
    s_n = _moran_root(table, n)
    lo, hi = table.ends(n)
    q = np.where(connector_length(table, n).eligible, (hi - lo) ** s_n, 0.0)
    return block_measure(m, None, n, q / q.sum()), s_n


def test_moran_weights_doubling(doubling):
    bm, s_n = _moran_weights(doubling, 4)
    assert s_n == pytest.approx(1.0, abs=1e-10)
    assert np.isclose(bm.weights.sum(), 1.0)


def test_moran_weights_cantor_bias_shrinks(two_slopes):
    # terminal span widths bias the level root by O(1/n)
    truth = math.log((1.0 + math.sqrt(5.0)) / 2.0) / LOG2
    _, s3 = _moran_weights(two_slopes, 3)
    bm6, s6 = _moran_weights(two_slopes, 6)
    assert abs(s3 - truth) < 0.1
    assert abs(s6 - truth) < abs(s3 - truth)
    lo, hi = bm6.spread_dim_bracket
    assert abs(0.5 * (lo + hi) - truth) < 1e-2


def test_window_mask_and_uniform_root(doubling, uniform_phi):
    mask = window_mask(doubling, uniform_phi, 8, 1.0, 0.05)
    assert int(mask.sum()) == 256
    assert bowen_sn(doubling, uniform_phi, 8, 1.0, 0.05) == pytest.approx(
        1.0, abs=1e-10
    )


FAREY_DEPTH2 = {
    (0, 0): math.log(0.3), (0, 1): math.log(0.7), (1, 0): math.log(0.6), (1, 1): math.log(0.4)
}


def test_window_mask_keeps_every_word_whose_bracket_meets_the_window(farey):
    # Farey's depth-2 brackets are wide, and its neutral words have a zero
    # psi end: each row's four-end ratio range meets (0.699, 0.701) for
    # 108 level-8 words, word 00010101's ([0.65017, 1.01351]) among them.
    phi = locally_constant(FAREY_DEPTH2)
    arr = shared_table(farey, phi).level(8)
    alpha, eps = 0.7, 0.001
    want = []
    for row in range(arr.count):
        lo, hi = _four_end_ratio(
            -float(arr.phi_hi[row]), -float(arr.phi_lo[row]),
            float(arr.psi_lo[row]), float(arr.psi_hi[row]),
        )
        want.append(lo < alpha + eps and hi > alpha - eps)
    assert sum(want) == 108
    assert window_mask(farey, phi, 8, alpha, eps).tolist() == want


def test_window_mask_keeps_a_neutral_word_whose_ratios_fall_to_minus_inf(farey):
    # phi > 0 on symbol 0: word 0000 has psi bracket [0, 3.22] and
    # -S_4 phi = -4.39, so its ratios fall to -inf towards the neutral
    # point.  The zero psi end once read 0.0, the bracket [-1.365, 0.0],
    # and the window around -1e6 dropped the word.
    phi = locally_constant({(0,): math.log(3.0), (1,): math.log(0.2)})
    arr = shared_table(farey, phi).level(4)
    assert arr.psi_lo[0] == 0.0 and arr.phi_lo[0] > 0.0
    mask = window_mask(farey, phi, 4, -1e6, 1.0)
    assert mask[0]
    assert mask.tolist() == [
        _four_end_ratio(-float(arr.phi_hi[r]), -float(arr.phi_lo[r]),
                        float(arr.psi_lo[r]), float(arr.psi_hi[r]))[0] < -1e6 + 1.0
        for r in range(arr.count)
    ]


def test_bowen_sn_single_word_window(doubling, bernoulli_phi):
    # only the all-zeros word attains ratio 2
    assert bowen_sn(doubling, bernoulli_phi, 6, 2.0, 1e-6) == 0.0


def test_bowen_sn_empty_window(doubling, bernoulli_phi):
    with pytest.raises(EmptyWindow):
        bowen_sn(doubling, bernoulli_phi, 6, 5.0, 0.01)


def test_bowen_sn_monotone_in_eps(doubling, bernoulli_phi):
    s_narrow = bowen_sn(doubling, bernoulli_phi, 8, ALPHA_FIX, 0.02)
    s_wide = bowen_sn(doubling, bernoulli_phi, 8, ALPHA_FIX, 0.06)
    assert s_narrow <= s_wide + 1e-12
    # frozen count: the 0.05 window at level 8 catches the 28 two-zero words
    assert s_narrow == pytest.approx(math.log(28.0) / (8.0 * LOG2), abs=1e-10)


def test_window_weights_are_suboptimal(doubling, bernoulli_phi):
    # q_w = diam(w)^(s_n) on the alpha window, s_n its bowen_sn root: the
    # optimizer's objective is at least this preset's.
    s_n = bowen_sn(doubling, bernoulli_phi, 8, ALPHA_FIX, 0.05)
    mask = window_mask(doubling, bernoulli_phi, 8, ALPHA_FIX, 0.05)
    lo, hi = shared_table(doubling, bernoulli_phi).ends(8)
    q = np.where(mask, (hi - lo) ** s_n, 0.0)
    ww = block_measure(doubling, bernoulli_phi, 8, q / q.sum())
    opt = optimize_block_weights(doubling, bernoulli_phi, 8, ALPHA_FIX)
    assert block_objective(ww) <= block_objective(opt) + 1e-9


def _midpoint_sums(m, phi, n):
    """Eligible words' psi and phi sums at bracket midpoints, and the mask."""
    table = shared_table(m, phi)
    arr = table.level(n)
    mask = connector_length(table, n).eligible
    psi = (0.5 * (arr.psi_lo + arr.psi_hi))[mask]
    phv = (0.5 * (arr.phi_lo + arr.phi_hi))[mask]
    return psi, phv, mask


def _nested_bisection_weights(m, phi, n, alpha):
    """Block weights by the nested bisection optimize_block_weights once ran
    (the test oracle for its 2x2 Newton): b is bisected on the constraint
    mean, and each constraint value bisects the normalizing a."""
    psi, phv, mask = _midpoint_sums(m, phi, n)

    def normalizing_a(b):
        def total(a):
            return log_sum_exp(a * psi + b * phv)

        t0 = total(0.0)
        if t0 == 0.0:
            return 0.0
        lo, hi, _, _ = _drive(_expand(0.0, -1.0 if t0 > 0.0 else 1.0, max_expand=60), total)
        return _drive(_bisect(lo, hi, xtol=1e-13, max_iter=200), total)

    def constraint(b):
        logq = normalizing_a(b) * psi + b * phv
        q = np.exp(logq - log_sum_exp(logq))
        return float(q @ (phv + alpha * psi))

    g0 = constraint(0.0)
    if g0 == 0.0:
        b_star = 0.0
    else:
        lo, hi, _, _ = _drive(_expand(0.0, 1.0 if g0 < 0.0 else -1.0, max_expand=60), constraint)
        b_star = _drive(_bisect(lo, hi, xtol=1e-11, max_iter=200), constraint)
    logq = normalizing_a(b_star) * psi + b_star * phv
    qm = np.exp(logq - log_sum_exp(logq))
    q = np.zeros(mask.size)
    q[mask] = qm / qm.sum()
    return q


@pytest.mark.parametrize("where", [1e-4, 0.5, 1.0 - 1e-4], ids=["low", "mid", "high"])
@pytest.mark.parametrize(
    "family, n",
    [("doubling", 6), ("doubling", 8), ("doubling", 10), ("two_slopes", 6), ("two_slopes", 12)],
)
def test_block_newton_matches_nested_bisection(request, bernoulli_phi, family, n, where):
    # `where` places alpha in the level-n ratio range: near either end the
    # optimal weights crowd onto the extreme words and b grows large.
    m = request.getfixturevalue(family)
    psi, phv, mask = _midpoint_sums(m, bernoulli_phi, n)
    lo, hi = float(np.min(-phv / psi)), float(np.max(-phv / psi))
    alpha = lo + where * (hi - lo)
    bm = optimize_block_weights(m, bernoulli_phi, n, alpha)
    oracle = block_measure(m, bernoulli_phi, n, _nested_bisection_weights(m, bernoulli_phi, n, alpha))
    assert block_objective(bm) == pytest.approx(block_objective(oracle), abs=1e-10)
    q = bm.weights[mask]
    achieved = -float(q @ phv) / float(q @ psi)
    assert abs(achieved - alpha) <= 1e-12 * alpha


def test_block_newton_pass_count(two_slopes, bernoulli_phi, monkeypatch):
    # A level-10 solve on the table takes a handful of log-sum-exp passes;
    # the nested bisection took hundreds.
    calls = []

    def counting(values):
        calls.append(values.size)
        return log_sum_exp(values)

    monkeypatch.setattr(finite_measures, "log_sum_exp", counting)
    bm = optimize_block_weights(two_slopes, bernoulli_phi, 10, 1.0)
    assert 0 < len(calls) <= 20 and set(calls) == {2**10}
    assert block_objective(bm) == pytest.approx(0.6941893813185, abs=1e-12)
    # Capped short of convergence, the solve raises instead of returning:
    # at level 12 the level-1 solve stalls, and so does the table's.
    monkeypatch.setattr(finite_measures, "NEWTON_CAP", 2)
    for n in (10, 12):
        with pytest.raises(NotConverged, match="2 steps"):
            optimize_block_weights(two_slopes, bernoulli_phi, n, 1.0)


def _dot(q, x):
    return float(np.einsum("i,i->", q, x))


def _held_newton(m, phi, n, alpha):
    """The level-n 2x2 Newton from (0, 0) as it ran before it was moved into
    a helper that builds each state in place (the test oracle for the bits
    of `optimize_block_weights`): every array of the solve held to the end.
    Returns the weights."""
    psi, phv, mask = _midpoint_sums(m, phi, n)
    ratios = -phv / psi
    if not ratios.min() < alpha < ratios.max():
        raise ConstraintInfeasible(f"alpha outside the level-{n} ratio range")
    g = phv + alpha * psi
    a = b = 0.0

    def state(a, b):
        logq = a * psi + b * phv
        log_z = log_sum_exp(logq)
        q = np.exp(logq - log_z)
        return log_z, q, _dot(q, g)

    log_z, q, mean_g = state(a, b)
    for _ in range(finite_measures.NEWTON_CAP):
        mean_psi, mean_phi = _dot(q, psi), _dot(q, phv)
        cov_psi = _dot(q, g * psi) - mean_g * mean_psi
        cov_phi = _dot(q, g * phv) - mean_g * mean_phi
        det = mean_psi * cov_phi - mean_phi * cov_psi
        residual, t = math.hypot(log_z, mean_g), 1.0 if det else 0.0
        if det:
            da = (mean_phi * mean_g - cov_phi * log_z) / det
            db = (cov_psi * log_z - mean_psi * mean_g) / det
            if max(abs(da), abs(db)) <= 1e-13 * (1.0 + abs(a) + abs(b)):
                break
        while t >= 2.0**-20:
            trial = state(a + t * da, b + t * db)
            if math.hypot(trial[0], trial[2]) < residual:
                break
            t *= 0.5
        else:
            if residual > 1e-12 * (1.0 + abs(a) * psi.max() + abs(b) * np.abs(phv).max()):
                raise NotConverged("stalled")
            break
        a, b = a + t * da, b + t * db
        log_z, q, mean_g = trial
    else:
        raise NotConverged("capped")
    full = np.zeros(mask.size)
    full[mask] = q / q.sum()
    return full


def _held_newton_weights(m, phi, n, alpha):
    """The weights of `optimize_block_weights` as `_held_newton` gives them:
    above SMALL_WORDS words on a full shift of linear branches with a
    depth-1 phi, the n-fold Kronecker power of the level-1 weights, each
    new symbol put in front; elsewhere the level-n solve."""
    level_free = (
        m.is_full_shift and all(br.family == "linear" for br in m.branches)
        and phi.kind == "locally_constant" and phi.depth == 1
    )
    if m.word_count(n) > SMALL_WORDS and level_free:
        q1 = _held_newton(m, phi, 1, alpha)
        return functools.reduce(lambda q, _: np.kron(q1, q), range(n - 1), q1)
    return _held_newton(m, phi, n, alpha)


@pytest.mark.parametrize(
    "family, n, where",
    [(f, n, w) for f, n in (
        ("doubling", 10), ("two_slopes", 12), ("markov", 9), ("mp", 8), ("mp", 12)
    ) for w in (1e-4, 0.5, 1.0 - 1e-4)] + [("doubling", 10, 1.0 - 1e-9)],
)
def test_block_weights_keep_their_bits(request, bernoulli_phi, family, n, where):
    # The in-place solve returns the weights of the held-array solve bit for
    # bit.  On MP the neutral word is not eligible, so the solve runs on the
    # masked rows; elsewhere every word is eligible and nothing is copied.
    # At 1e-9 of the range from the top, doubling level 10 stalls at the
    # rounding floor, and the solve rebuilds the state it stalled at.
    # two_slopes 12 is the Kronecker power of the level-1 solve; markov 9
    # (not a full shift) and mp 12 (not linear) are above SMALL_WORDS words
    # too, but solve their level.
    m = request.getfixturevalue(family)
    phi = bernoulli_phi if family != "markov" else locally_constant(THREE_SYMBOL_PHI)
    psi, phv, mask = _midpoint_sums(m, phi, n)
    assert mask.all() == (family != "mp")
    lo, hi = float(np.min(-phv / psi)), float(np.max(-phv / psi))
    alpha = lo + where * (hi - lo)
    bm = optimize_block_weights(m, phi, n, alpha)
    assert bm.weights.tobytes() == _held_newton_weights(m, phi, n, alpha).tobytes()


def test_block_newton_starts_from_the_level_one_answer(bernoulli_phi, monkeypatch):
    # A depth-1 potential on linear full branches has the same (a, b) at
    # every level, and the level-18 answer is the level-1 answer's 18th
    # power: no level above 1 is built, and no log-sum-exp pass sees more
    # than the 2 symbols.  Started from the level-1 answer, the level-18
    # solve took one 2^18-word pass; from (0, 0) it took 5.
    n = 18
    m = linear_full_branch_map([2.0, 4.0])  # a map of its own: no level built
    calls = []

    def counting(values):
        calls.append(values.size)
        return log_sum_exp(values)

    monkeypatch.setattr(finite_measures, "log_sum_exp", counting)
    before = dict(level_counts)
    bm = optimize_block_weights(m, bernoulli_phi, n, 1.0)
    assert calls and set(calls) == {2}, calls
    assert level_counts["levels"] - before["levels"] == 1
    assert level_counts["words"] - before["words"] == 2
    assert list(shared_table(m, bernoulli_phi)._levels) == [1]
    assert bm.level == n and bm.weights.size == 2**n
    assert block_objective(bm) == pytest.approx(0.6941893813185, abs=1e-12)


@pytest.mark.parametrize("where", [1e-4, 0.5, 1.0 - 1e-4], ids=["low", "mid", "high"])
@pytest.mark.parametrize(
    "family, n", [("two_slopes", 12), ("two_slopes", 14), ("doubling", 11), ("three_slopes", 8)]
)
def test_level_free_measure_is_the_power_of_level_one(request, bernoulli_phi, family, n, where):
    # Every field of the measure built from level 1's equals that of
    # block_measure on the level-n table, given the same weights, and the
    # weights are the level-n solve's to its tolerance.  On three symbols
    # a Kronecker power in another row order would move the psi and phi sums.
    if family == "three_slopes":
        m, phi = linear_full_branch_map([3.0, 4.0, 5.0]), locally_constant(THREE_SYMBOL_PHI)
    else:
        m, phi = request.getfixturevalue(family), bernoulli_phi
    assert m.word_count(n) > SMALL_WORDS
    psi, phv, _ = _midpoint_sums(m, phi, n)
    lo, hi = float(np.min(-phv / psi)), float(np.max(-phv / psi))
    alpha = lo + where * (hi - lo)
    bm = optimize_block_weights(m, phi, n, alpha)
    want = block_measure(m, phi, n, bm.weights)
    for f in fields(bm):
        got, ref = getattr(bm, f.name), getattr(want, f.name)
        if f.name == "connectors":
            assert got == ref
        else:
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0, err_msg=f.name)
    np.testing.assert_allclose(bm.weights, _held_newton(m, phi, n, alpha), rtol=1e-9, atol=0.0)


def test_level_free_level_over_budget_allocates_nothing(bernoulli_phi):
    # 2^27 doubling words exceed WORD_BUDGET: the call raises before it
    # solves level 1 or allocates a weight per word.
    m = doubling_map()
    tracemalloc.start()
    try:
        with pytest.raises(LevelTooLarge, match="level 27 "):
            optimize_block_weights(m, bernoulli_phi, 27, 1.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_level_free_infeasible_alpha_names_level_n(bernoulli_phi):
    # Level 1's ratio range stands for level n's: an alpha outside it, or a
    # range no wider than level n's rounding (2*n*eps*max|ratio|), raises
    # naming level n, with no level above 1 built.  Doubling with ratios
    # 0.7 and 0.7 + 10 ulps: wider than level 1's rounding, within level 18's.
    eps = np.finfo(float).eps
    r1 = 0.7 + 10 * math.ulp(0.7)
    narrow = locally_constant({(0,): -0.7 * LOG2, (1,): -r1 * LOG2})
    for phi, alpha, match in (
        (bernoulli_phi, 3.0, "alpha = 3 outside the level-18 ratio range"),
        (narrow, 0.5 * (0.7 + r1), "the level-18 ratio range .* is only rounding wide"),
    ):
        m = doubling_map()
        before = level_counts["levels"]
        with pytest.raises(ConstraintInfeasible, match=match):
            optimize_block_weights(m, phi, 18, alpha)
        assert level_counts["levels"] - before == 1
    arr = shared_table(m, narrow).level(1)
    ratios = -arr.phi_lo / arr.psi_lo
    width = float(ratios.max() - ratios.min())
    assert 2 * eps * ratios.max() < width <= 2 * 18 * eps * ratios.max()


def test_block_newton_falls_back_to_the_origin(bernoulli_phi, monkeypatch):
    # Where the level-1 solve fails (here its connector search is made to
    # raise, on a map of its own, whose tables have searched no level yet),
    # level 12 is solved on its table, with the bits of that solve.
    n, alpha = 12, 1.0
    two_slopes = linear_full_branch_map([2.0, 4.0])
    search = finite_measures.connector_length

    def failing_at_level_one(table, level):
        if level == 1:
            raise NoConnector("level 1")
        return search(table, level)

    monkeypatch.setattr(finite_measures, "connector_length", failing_at_level_one)
    bm = optimize_block_weights(two_slopes, bernoulli_phi, n, alpha)
    held = _held_newton(two_slopes, bernoulli_phi, n, alpha)
    assert bm.weights.tobytes() == held.tobytes()
    assert bm.weights.tobytes() != _held_newton_weights(two_slopes, bernoulli_phi, n, alpha).tobytes()


@pytest.mark.parametrize("where", ["outside", "low", "high"])
def test_block_newton_off_the_level_free_maps_starts_from_the_origin(mp, bernoulli_phi, where):
    # On MP the answer moves with the level, and the eligible words' ratio
    # range widens with it: an alpha outside level 10's range, or just
    # inside one of its ends, is interior at level 12.  Started from the
    # level-10 answer, level 12 took 15 and 41 passes near those ends
    # against 12 and 7 from (0, 0), so MP starts from (0, 0): the bits of
    # that start, and the nested bisection's objective.
    n = 12
    psi, phv, _ = _midpoint_sums(mp, bernoulli_phi, n)
    psi0, phv0, _ = _midpoint_sums(mp, bernoulli_phi, 10)
    lo, hi = float(np.min(-phv / psi)), float(np.max(-phv / psi))
    lo0, hi0 = float(np.min(-phv0 / psi0)), float(np.max(-phv0 / psi0))
    assert lo < lo0 and hi0 < hi
    alpha = {
        "outside": 0.5 * (lo + lo0),
        "low": lo0 + 1e-6 * (hi0 - lo0),
        "high": hi0 - 1e-6 * (hi0 - lo0),
    }[where]
    bm = optimize_block_weights(mp, bernoulli_phi, n, alpha)
    assert bm.weights.tobytes() == _held_newton(mp, bernoulli_phi, n, alpha).tobytes()
    oracle = block_measure(mp, bernoulli_phi, n, _nested_bisection_weights(mp, bernoulli_phi, n, alpha))
    assert block_objective(bm) == pytest.approx(block_objective(oracle), abs=1e-10)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="BLAS runs one thread on one CPU")
def test_blockopt_bits_do_not_follow_blas_threads(tmp_path):
    # The weighted sums run in numpy's own loop, not in BLAS, whose
    # threaded dot products sum in another order: a level-16 blockopt
    # writes the same CSV bytes with one BLAS thread and with two.
    config = Path(__file__).resolve().parents[1] / "configs" / "two_slopes_blockopt.yaml"
    src = str(Path(finite_measures.__file__).resolve().parents[1])
    csvs = []
    for threads in ("1", "2"):
        csv = tmp_path / f"threads{threads}.csv"
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        }
        subprocess.run(
            [sys.executable, "-m", "dimspectra.cli", str(config),
             "--set", "command.level=16", "--set", f"output.csv={csv}"],
            env=env, check=True, capture_output=True,
        )
        csvs.append(csv.read_bytes())
    assert csvs[0] == csvs[1]


def test_one_connector_search_per_level(bernoulli_phi, monkeypatch):
    # The level-1 Newton's connector search also serves the block measure
    # built from its weights (it ran twice), and level 12, the level-1
    # answer's power, searches none.  A map of its own: its tables have
    # searched no level yet.
    two_slopes = linear_full_branch_map([2.0, 4.0])
    levels = []
    search = finite_measures.connector_length

    def counted(table, n):
        levels.append(n)
        return search(table, n)

    monkeypatch.setattr(finite_measures, "connector_length", counted)
    bm = optimize_block_weights(two_slopes, bernoulli_phi, 12, 1.0)
    assert levels == [1]
    assert block_objective(bm) == pytest.approx(0.6941893813185, abs=1e-12)
    optimize_block_weights(two_slopes, bernoulli_phi, 12, 0.9)  # the table has it
    assert levels == [1]


@pytest.mark.parametrize("n", [12, 16])
def test_rounding_wide_ratio_range_is_infeasible(mp, n):
    # With phi = -0.7 log|T'|, every word's ratio -S_n phi / S_n psi is 0.7
    # up to rounding, so no alpha strictly inside the eligible words' range
    # has a weight to fit but rounding noise.
    phi = geometric(-0.7)
    psi, phv, _ = _midpoint_sums(mp, phi, n)
    lo, hi = float(np.min(-phv / psi)), float(np.max(-phv / psi))
    assert 0.0 < hi - lo <= 2 * n * np.finfo(float).eps * 0.7
    for alpha in (0.7, 0.5 * (lo + hi), math.nextafter(lo, hi)):
        assert lo < alpha < hi
        with pytest.raises(ConstraintInfeasible, match="only rounding wide"):
            optimize_block_weights(mp, phi, n, alpha)


def test_block_weights_live_peak(two_slopes, bernoulli_phi):
    # With level 1 and its connectors in hand, a level-14 optimisation holds
    # the weights (one level-14 column) and little else: it peaked at 7
    # columns while it solved on the level-14 table, 9.4 while it held
    # every array of that solve through block_measure.
    n = 14
    column = 8 * 2**n
    optimize_block_weights(two_slopes, bernoulli_phi, n, 1.0)  # builds level 1 and the connectors
    tracemalloc.start()
    try:
        optimize_block_weights(two_slopes, bernoulli_phi, n, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * column, peak / column


def test_block_weights_cold_peak(bernoulli_phi):
    # On a fresh table the level-18 optimisation builds level 1 alone, so
    # the whole call peaks within 2 level-18 columns (1.004 measured: the
    # weights).  While it solved on the level-18 table, which it built, it
    # peaked at 5.65 columns, and at 7.67 while every level held its lo
    # and hi.
    n = 18
    m = linear_full_branch_map([2.0, 4.0])
    tracemalloc.start()
    try:
        optimize_block_weights(m, bernoulli_phi, n, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    column = 8 * 2**n
    assert peak <= 2 * column, peak / column


def test_end_rows_count_the_ends_made(bernoulli_phi):
    # Level 1 makes one end row per symbol.  A cold two-slope level-18
    # optimisation makes no more, and the table's level 18 holds no ends.  On doubling,
    # the first bowen_sn at level 8 makes one end row per row of levels 2-8
    # (508) in the table's geometry climb, and a repeat call makes none.
    def made(call):
        before = level_counts["end_rows"]
        call()
        return level_counts["end_rows"] - before

    two_slopes = linear_full_branch_map([2.0, 4.0])
    assert made(lambda: optimize_block_weights(two_slopes, bernoulli_phi, 18, 1.0)) == 2
    arr = shared_table(two_slopes, bernoulli_phi).level(18)
    assert arr.lo is None and arr.hi is None
    doubling = doubling_map()
    assert made(lambda: shared_table(doubling, bernoulli_phi).level(8)) == 2
    s_n = bowen_sn(doubling, bernoulli_phi, 8, 1.0, 0.05)
    assert made(lambda: bowen_sn(doubling, bernoulli_phi, 8, 1.0, 0.05)) == 0
    fresh = doubling_map()
    shared_table(fresh, bernoulli_phi).level(8)
    assert made(lambda: bowen_sn(fresh, bernoulli_phi, 8, 1.0, 0.05)) == 508
    assert bowen_sn(fresh, bernoulli_phi, 8, 1.0, 0.05) == s_n


def test_collapse_raises_only_where_ends_are_made(bernoulli_phi):
    # Slopes 1e6: level-3 cylinders are narrower than float resolution.  On
    # linear branches the psi and phi sums read no cylinder ends, so the
    # table and the block optimisation return; every reader that makes
    # ends raises, a pointwise phi's table included.
    m = linear_full_branch_map([1e6, 1e6])
    table = shared_table(m, bernoulli_phi)
    assert table.level(5).count == 32
    optimize_block_weights(m, bernoulli_phi, 5, 0.1)
    lo, hi = table.ends(2)
    assert np.all(hi > lo)
    pointwise = Potential(kind="pointwise", funcs=(np.square, np.negative))
    for read in (
        lambda: table.ends(3),
        lambda: bowen_sn(m, bernoulli_phi, 5, 0.1, 0.05),
        lambda: word_rows(m, words_at_level(m, 3)),
        lambda: word_rows(m, [(1, 0, 0)]),
        lambda: shared_table(m, pointwise).level(3),
    ):
        with pytest.raises(DegenerateCylinder):
            read()


def test_block_measure_of_brackets_stored_once_keeps_bits(two_slopes, bernoulli_phi, monkeypatch):
    # Linear branches and a depth-1 phi store both brackets once (hi is lo);
    # the measure equals that of the same level with each end its own array.
    n = 8
    table = shared_table(two_slopes, bernoulli_phi)
    arr = table.level(n)
    assert arr.psi_hi is arr.psi_lo and arr.phi_hi is arr.phi_lo
    q = np.random.default_rng(3).uniform(0.5, 1.0, arr.count)
    q /= q.sum()
    got = block_measure(two_slopes, bernoulli_phi, n, q)
    assert got.rho == 0.0
    split = replace(arr, psi_hi=arr.psi_hi.copy(), phi_hi=arr.phi_hi.copy())
    monkeypatch.setitem(table._levels, n, split)
    want = block_measure(two_slopes, bernoulli_phi, n, q)
    for f in fields(got):
        if f.name != "weights":
            assert repr(getattr(got, f.name)) == repr(getattr(want, f.name)), f.name
