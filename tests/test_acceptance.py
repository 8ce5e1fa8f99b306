"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Run with `pytest -v tests/test_acceptance.py` to get the per-criterion lines
from pytest itself, or add -s to also see the printed detail values.
"""

from __future__ import annotations

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from dimspectra import (
    EmptyWindow,
    alpha_of_a,
    b_of_a,
    block_objective,
    bowen_sn,
    build_induced,
    cylinder_mass_bracket,
    dimension_at_infinite_alpha,
    exact_model,
    induced_b_point,
    legendre_spectrum,
    locally_constant,
    optimize_block_weights,
    pressure,
    sample_points,
    spectrum_endpoints,
)
from dimspectra.cli import main

LOG2 = math.log(2.0)
GOLDEN_ENTROPY = math.log((1.0 + math.sqrt(5.0)) / 2.0)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def closed_form_f(alpha: np.ndarray) -> np.ndarray:
    t = (alpha * LOG2 - math.log(4.0 / 3.0)) / math.log(3.0)
    return (-t * np.log(t) - (1.0 - t) * np.log(1.0 - t)) / LOG2


@pytest.fixture(scope="module")
def be_curve(doubling, bernoulli_phi):
    alphas = np.linspace(0.45, 1.95, 50)
    start = time.monotonic()
    curve = legendre_spectrum(doubling, bernoulli_phi, alphas, tol=1e-10, max_level=16)
    return curve, time.monotonic() - start, alphas


@pytest.fixture(scope="module")
def degenerate_curve(doubling, uniform_phi):
    start = time.monotonic()
    endpoints = spectrum_endpoints(doubling, uniform_phi, level=6)
    curve = legendre_spectrum(doubling, uniform_phi, [1.0], tol=1e-10)
    return endpoints, curve, time.monotonic() - start


@pytest.fixture(scope="module")
def mp_tail(mp, uniform_phi):
    start = time.monotonic()
    ray_point = b_of_a(mp, uniform_phi, -1.5, tol=1e-4, max_level=12)
    curve = legendre_spectrum(mp, uniform_phi, [2.0, 3.5, 5.0], tol=0.01, max_level=14)
    dim_tail = dimension_at_infinite_alpha(mp)
    return ray_point, curve, dim_tail, time.monotonic() - start


def test_criterion_01_besicovitch_eggleston_oracle(be_curve):
    curve, elapsed, alphas = be_curve
    # brute-force t-grid oracle, resolved far below the 1e-4 tolerance
    t_grid = np.linspace(1e-9, 1.0 - 1e-9, 2_000_001)
    alpha_t = (t_grid * math.log(4.0) + (1.0 - t_grid) * math.log(4.0 / 3.0)) / LOG2
    f_t = (-t_grid * np.log(t_grid) - (1.0 - t_grid) * np.log(1.0 - t_grid)) / LOG2
    idx = np.clip(np.searchsorted(alpha_t, alphas), 1, len(t_grid) - 1)
    worst = 0.0
    for i, f in enumerate(curve.f_values):
        worst = max(worst, min(abs(f - f_t[idx[i] - 1]), abs(f - f_t[idx[i]])))
    report(
        1,
        worst <= 1e-4 and elapsed < 10.0,
        f"max |f - oracle| = {worst:.3g} (tol 1e-4), {elapsed:.2f}s (limit 10s)",
    )


def test_criterion_02_degenerate_spectrum(degenerate_curve):
    (a_min, a_max), curve, elapsed = degenerate_curve
    a_min, a_max = a_min.value, a_max.value
    ok = (
        abs(a_min - 1.0) <= 1e-9
        and abs(a_max - 1.0) <= 1e-9
        and abs(curve.f_values[0] - 1.0) <= 1e-9
        and elapsed < 1.0
    )
    report(
        2,
        ok,
        f"alpha range [{a_min:.12f}, {a_max:.12f}], f(1) = {curve.f_values[0]:.12f}, "
        f"{elapsed:.2f}s (limit 1s)",
    )


def test_criterion_03_pressure_exactness(doubling, two_slopes, golden, bernoulli_phi, zero_phi):
    start = time.monotonic()
    p1 = pressure(doubling, bernoulli_phi)
    phi2 = locally_constant({(0,): math.log(0.7), (1,): math.log(0.2)})
    p2 = pressure(two_slopes, phi2)
    exact_ok = (
        abs(p1.value) <= 1e-12
        and p1.level == 1
        and abs(p2.value - math.log(0.9)) <= 1e-12
        and p2.level == 1
    )
    pg = pressure(golden, zero_phi, tol=1e-9)
    entropy_ok = abs(pg.value - GOLDEN_ENTROPY) <= 1e-6 and pg.level <= 24
    elapsed = time.monotonic() - start
    report(
        3,
        exact_ok and entropy_ok and elapsed < 5.0,
        f"log-sum residuals {abs(p1.value):.2g}, {abs(p2.value - math.log(0.9)):.2g} "
        f"at level 1; entropy error {abs(pg.value - GOLDEN_ENTROPY):.2g} "
        f"at level {pg.level}; {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_04_endpoint_cycle_search(
    doubling, golden, two_slopes, farey, mp, bernoulli_phi, uniform_phi
):
    # exhaustive oracle: every cyclic word of length <= 3 on the full 2-shift
    table = bernoulli_phi.table_dict()
    ratios = []
    for n in (1, 2, 3):
        for word in itertools.product((0, 1), repeat=n):
            num = -sum(table[(s,)] for s in word)
            ratios.append(num / (n * LOG2))
    a_min, a_max = (end.value for end in spectrum_endpoints(doubling, bernoulli_phi, level=3))
    exact_ok = abs(a_min - min(ratios)) <= 1e-6 and abs(a_max - max(ratios)) <= 1e-6
    # alpha_max is infinite exactly on the parabolic maps
    inf_ok = True
    for m, parabolic in ((farey, True), (mp, True), (doubling, False), (golden, False)):
        m_max = spectrum_endpoints(m, uniform_phi, level=5)[1].value
        inf_ok = inf_ok and (math.isinf(m_max) == parabolic == m.has_parabolic)
    report(
        4,
        exact_ok and inf_ok,
        f"endpoints ({a_min:.6f}, {a_max:.6f}) vs cycle oracle "
        f"({min(ratios):.6f}, {max(ratios):.6f}); alpha_max infinite iff parabolic",
    )


def test_criterion_05_legendre_identity(doubling, two_slopes, bernoulli_phi):
    phi_two = locally_constant({(0,): math.log(0.3), (1,): math.log(0.7)})
    worst = 0.0
    for m, phi in ((doubling, bernoulli_phi), (two_slopes, phi_two)):
        for a in np.linspace(-1.5, 2.0, 8):
            point = alpha_of_a(m, phi, float(a), tol=1e-10)
            # independent slope estimate at a third step size
            step = 2e-3
            b_hi = b_of_a(m, phi, float(a) + step, tol=1e-10).value
            b_lo = b_of_a(m, phi, float(a) - step, tol=1e-10).value
            worst = max(worst, abs(point.alpha * (b_hi - b_lo) / (2 * step) - 1.0))
    report(5, worst <= 1e-3, f"max |alpha * b' - 1| = {worst:.3g} (tol 1e-3)")


def test_criterion_06_finite_level_convergence(doubling, bernoulli_phi):
    start = time.monotonic()
    alpha, eps = 0.8113, 0.05
    f_alpha, f_lo, f_hi = closed_form_f(np.array([alpha, alpha - eps, alpha + eps]))
    s_8 = bowen_sn(doubling, bernoulli_phi, 8, alpha, eps)
    s_11 = bowen_sn(doubling, bernoulli_phi, 11, alpha, eps)
    monotone_ok = s_8 <= s_11 <= f_alpha
    block = optimize_block_weights(doubling, bernoulli_phi, 10, alpha)
    block_gap = abs(block_objective(block) - f_alpha)
    # Closed-form oracle: a level-n word with k ones has Birkhoff ratio
    # r_k = 2 - k*log3/(n*log2) and diameter 2^-n, so s_n = log2(sum of
    # C(n, k) over r_k in the window)/n, and no s_n exists where no r_k does.
    # Type classes give 2^(nH(k/n))/(n+1) <= C(n, k) <= 2^(nH(k/n)), and f
    # increases across the window, so s_n lies within log2(n+1)/n of the
    # window's f-range [f(alpha - eps), f(alpha + eps)], which holds f(alpha).
    empty, misses = [], []
    for n in range(8, 19):
        k = np.arange(n + 1)
        ratios = 2.0 - k * math.log(3.0) / (n * LOG2)
        inside = k[(ratios > alpha - eps) & (ratios < alpha + eps)]
        try:
            s_n = bowen_sn(doubling, bernoulli_phi, n, alpha, eps)
        except EmptyWindow:
            s_n = None
        if inside.size == 0:
            empty.append(n)
            if s_n is not None:
                misses.append(f"level {n}: empty window gave s_n = {s_n:.6f}")
            continue
        if s_n is None:
            misses.append(f"level {n}: EmptyWindow, but k = {inside.tolist()} qualify")
            continue
        exact = math.log2(sum(math.comb(n, int(j)) for j in inside)) / n
        slack = math.log2(n + 1) / n
        if abs(s_n - exact) > 1e-9 or not f_lo - slack <= s_n <= f_hi + slack:
            misses.append(f"level {n}: s_n = {s_n:.12f}, closed form {exact:.12f}")
    elapsed = time.monotonic() - start
    ok = (
        monotone_ok
        and block_gap <= 0.03
        and empty == [10, 14]
        and not misses
        and elapsed < 60.0
    )
    report(
        6,
        ok,
        f"s_8 = {s_8:.6f}, s_11 = {s_11:.6f}, f = {f_alpha:.6f}, "
        f"monotone {monotone_ok}, block gap {block_gap:.2g}; oracle windows empty "
        f"at levels {empty} (expected [10, 14]); levels 8-18 against EmptyWindow, "
        f"closed form and type-class band: {'; '.join(misses) or 'all hold'}; "
        f"{elapsed:.1f}s (limit 60s)",
    )


def test_criterion_07_concavity_and_continuity(be_curve, degenerate_curve, mp_tail):
    curves = [be_curve[0], degenerate_curve[1], mp_tail[1]]
    worst_second = -math.inf
    lipschitz_ok = True
    for curve in curves:
        f = np.asarray(curve.f_values)
        alphas = np.asarray(curve.alphas)
        if f.size >= 3:
            worst_second = max(worst_second, float(np.diff(f, 2).max()))
        if f.size >= 2:
            # envelope bound: |df/dalpha| = |b(a*)| along the curve
            b_cap = max(abs(pt.value) for pt in curve.points) + 1e-9
            steps = np.abs(np.diff(f)) - b_cap * np.abs(np.diff(alphas))
            lipschitz_ok = lipschitz_ok and bool(np.all(steps <= 1e-6))
    report(
        7,
        worst_second <= 1e-6 and lipschitz_ok,
        f"max second difference {worst_second:.3g} (tol 1e-6); "
        f"increments within the |b| envelope: {lipschitz_ok}",
    )


def test_criterion_08_parabolic_tail(mp_tail):
    ray_point, curve, dim_tail, elapsed = mp_tail
    f = np.asarray(curve.f_values)
    ok = (
        ray_point.on_ray
        and ray_point.value == 0.0
        and bool(np.all(np.diff(f) >= -5e-3))
        and abs(dim_tail - 1.0) <= 1e-2
        and elapsed < 120.0
    )
    report(
        8,
        ok,
        f"ray at a = -1.5: b = {ray_point.value}, tail f = {np.round(f, 6).tolist()}, "
        f"dim at infinite alpha = {dim_tail:.6f}, {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_09_inducing_consistency(doubling, farey, uniform_phi):
    trivial = build_induced(doubling, uniform_phi, truncation=5)
    worst_trivial = max(
        abs(induced_b_point(trivial, float(a), tol=1e-12).value - (1.0 + a))
        for a in np.linspace(-1.5, 2.0, 8)
    )
    induced = build_induced(farey, uniform_phi, truncation=40)
    worst_gap = 0.0
    for a in (0.0, 0.5, 1.0):
        ind = induced_b_point(induced, a, tol=1e-10)
        direct = b_of_a(farey, uniform_phi, a, tol=1e-4, max_level=18)
        worst_gap = max(
            worst_gap, direct.lower - ind.value, ind.value - direct.upper, 0.0
        )
    report(
        9,
        worst_trivial <= 1e-9 and worst_gap <= 0.05,
        f"trivial inducing error {worst_trivial:.2g}; max distance to the "
        f"direct bracket {worst_gap:.2g} (tol 0.05)",
    )


def test_criterion_10_sampling_concentration(doubling, bernoulli_phi):
    model = exact_model(doubling, bernoulli_phi)
    points = sample_points(model, doubling, 10_000, 20, seed=0)
    phi_sums = np.where(points == 0, math.log(0.25), math.log(0.75)).sum(axis=1)
    estimates = -phi_sums / (20.0 * LOG2)
    median = float(np.median(estimates))
    target = (0.25 * math.log(4.0) + 0.75 * math.log(4.0 / 3.0)) / LOG2
    # the sampling measure is an exact product measure: zero-width brackets
    lo, hi = cylinder_mass_bracket(model, doubling, tuple(int(s) for s in points[0]))
    tolerance = 2.0 * (hi - lo) + 1e-9
    report(
        10,
        abs(median - target) <= tolerance,
        f"median estimate {median:.12f} vs -int(phi)/lambda = {target:.12f} "
        f"(bracket width {hi - lo:.2g})",
    )


def test_criterion_11_determinism(tmp_path):
    configs = sorted(CONFIG_DIR.glob("*.yaml"))
    assert len(configs) == 8
    all_same = True
    for config in configs:
        digests = []
        for run in (0, 1):
            csv_path = tmp_path / f"{config.stem}-{run}.csv"
            code = main([str(config), "--set", f"output.csv={csv_path}"])
            assert code in (0, 2), f"{config.name} exited {code}"
            digests.append(csv_path.read_bytes())
        same = digests[0] == digests[1]
        all_same = all_same and same
        if not same:
            print(f"criterion 11 mismatch: {config.name}")
    report(11, all_same, f"{len(configs)} configs rerun byte-identical")
