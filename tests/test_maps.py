from __future__ import annotations

import math
import re

import numpy as np
import pytest

from dimspectra import (
    Branch,
    ContractionViolation,
    MarkovViolation,
    NotTransitive,
    OutOfImage,
    build_map,
    farey_map,
    linear_full_branch_map,
    manneville_pomeau_map,
)
from dimspectra import maps
from dimspectra.maps import _periodic_point, _power_inverse, _unit_point
from dimspectra.symbolic import CylinderTable, word_rows

LOG2 = math.log(2.0)


def test_doubling_structure(doubling):
    assert doubling.p == 2
    assert doubling.is_full_shift
    assert not doubling.has_parabolic
    assert doubling.aperiodicity_power == 1
    assert doubling.core_spans == ((0.0, 0.5), (0.5, 1.0))
    assert doubling.log_deriv_bounds() == (LOG2, LOG2)
    assert doubling.word_count(10) == 1024


def test_branch_inverse_round_trip(doubling):
    br = doubling.branches[1]
    assert br.value(0.65) == pytest.approx(0.3)
    assert br.inverse(0.3) == pytest.approx(0.65)
    assert doubling.branches[0].preimage_interval(0.2, 0.6) == pytest.approx(
        (0.1, 0.3)
    )


def test_inverse_outside_image(golden):
    # branch 1 maps onto (0, 1/2) only
    with pytest.raises(OutOfImage):
        golden.branches[1].inverse(0.8)


@pytest.mark.parametrize("family", ["linear", "power", "farey_right"])
@pytest.mark.parametrize("y", [math.nan, [0.2, math.nan, 0.7], math.inf, [-math.inf]])
def test_inverse_rejects_non_finite(doubling, mp, farey, family, y):
    br = {"linear": doubling, "power": mp, "farey_right": farey}[family].branches[1]
    assert br.family == family
    with pytest.raises(OutOfImage):
        br.inverse(y)



CLOSED_FORMS = {
    "farey_left": lambda request: request.getfixturevalue("farey").branches[0],
    "farey_right": lambda request: request.getfixturevalue("farey").branches[1],
    "linear": lambda request: request.getfixturevalue("doubling").branches[1],
    "linear_decreasing": lambda request: linear_full_branch_map([2.0, -2.5]).branches[1],
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_float_inverse_equals_array_inverse_bit_for_bit(request, name):
    # One float takes the path without numpy; a one-element array the numpy
    # path.  Same bits at the image ends, inside clamp_tol (clamped, signed
    # zeros kept as np.clip keeps them), and on random points; the same
    # refusal beyond clamp_tol and at non-finite points.
    br = CLOSED_FORMS[name](request)
    ilo, ihi = br.image
    points = [ilo, ihi, -0.0, 0.0, np.nextafter(ilo, ihi), np.nextafter(ihi, ilo), 1.0 / 3.0,
              ilo - 5e-10, ihi + 5e-10, ilo - 1e-9, ihi + 1e-9]
    points += np.random.default_rng(5).uniform(ilo, ihi, 200).tolist()
    for y in points:
        got = br.inverse(float(y))
        assert type(got) is float
        assert got.hex() == float(br.inverse(np.array([y]))[0]).hex(), y
    y = ilo - 1e-7
    assert br.inverse(y, clamp_tol=1e-6) == br.inverse(np.array([y]), clamp_tol=1e-6)[0]
    for y in (ilo - 2e-9, ihi + 2e-9, math.nan, math.inf, -math.inf):
        with pytest.raises(OutOfImage):
            br.inverse(y)
        with pytest.raises(OutOfImage):
            br.inverse(np.array([y]))


def _fixed_sweep_power_inverse(c, s, z, lo, hi, sweeps=120):
    """Reference: the Newton loop that always runs every sweep (stopping
    early only when every point is a fixed point), with the same residual
    check and bisection fallback as the shipped solver."""
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    x = np.full_like(z, hi)
    for _ in range(sweeps):
        fx = x + c * x ** (1.0 + s) - z
        dfx = 1.0 + c * (1.0 + s) * x**s
        x_new = np.clip(x - fx / dfx, lo, hi)
        if np.all(np.abs(x_new - x) <= 1e-16 * np.abs(x_new)):
            x = x_new
            break
        x = x_new
    resid = np.abs(x + c * x ** (1.0 + s) - z)
    bad = resid > 1e-12 * np.maximum(np.abs(z), x)
    if np.any(bad):
        xlo = np.full(int(bad.sum()), lo)
        xhi = np.full(int(bad.sum()), hi)
        zb = z[bad]
        for _ in range(120):
            xm = 0.5 * (xlo + xhi)
            below = xm + c * xm ** (1.0 + s) < zb
            xlo = np.where(below, xm, xlo)
            xhi = np.where(below, xhi, xm)
        xb = 0.5 * (xlo + xhi)
        for _ in range(10):
            fb = xb + c * xb ** (1.0 + s) - zb
            xb = np.clip(xb - fb / (1.0 + c * (1.0 + s) * xb**s), lo, hi)
        x[bad] = xb
    return x[0] if scalar else x


def _power_branch():
    """T(x) = x + 2 x**1.7 on [0, d] onto [0, 1]."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mid + 2.0 * mid**1.7 < 1.0 else (lo, mid)
    return Branch("power", (0.0, 0.5 * (lo + hi)), (0.0, 1.0), s=0.7, c=2.0)


def _assert_matches_fixed_sweeps(br, y, sweeps=120):
    lo, hi = br.domain
    z = br.lift + np.asarray(y, dtype=float)
    got = _power_inverse(br.c, br.s, z, lo, hi)
    want = _fixed_sweep_power_inverse(br.c, br.s, z, lo, hi, sweeps)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.ndim(got) == np.ndim(want)


@pytest.fixture(scope="module")
def mp_level18_ends(mp):
    level = CylinderTable(mp).level(18)
    return np.unique(np.concatenate([level.lo, level.hi]))


@pytest.mark.parametrize("j", [0, 1])
def test_power_inverse_equals_fixed_sweeps_on_mp_level18(mp, mp_level18_ends, j):
    # About 17% of these points end on a 2-cycle between adjacent floats.
    assert mp_level18_ends.size > 1 << 18
    _assert_matches_fixed_sweeps(mp.branches[j], mp_level18_ends)


@pytest.mark.parametrize("j", [0, 1, "power"])
def test_power_inverse_equals_fixed_sweeps(mp, j):
    br = _power_branch() if j == "power" else mp.branches[j]
    rng = np.random.default_rng(5)
    _assert_matches_fixed_sweeps(br, rng.uniform(0.0, 1.0, 20000))
    _assert_matches_fixed_sweeps(br, 10.0 ** rng.uniform(-300.0, 0.0, 20000))
    _assert_matches_fixed_sweeps(br, [0.0, 1.0])
    for y in (0.0, 1e-300, 0.3, 1.0):
        _assert_matches_fixed_sweeps(br, y)


@pytest.mark.parametrize("sweeps", [2, 3, 4, 5])
def test_power_inverse_sweep_budget(mp, monkeypatch, sweeps):
    # Too few sweeps for most points to settle: the unsettled points and the
    # parity rule for 2-cycles must still give the fixed-sweep values.
    monkeypatch.setattr(maps, "NEWTON_SWEEPS", sweeps)
    y = np.random.default_rng(6).uniform(0.0, 1.0, 5000)
    for br in (*mp.branches, _power_branch()):
        _assert_matches_fixed_sweeps(br, y, sweeps)


def test_mp_inverse_round_trip(mp):
    rng = np.random.default_rng(7)
    y = np.concatenate([10.0 ** rng.uniform(-300.0, 0.0, 20000), [0.0, 1.0]])
    eps = np.finfo(float).eps
    left, right = mp.branches
    x0 = left.inverse(y)
    assert np.all((0.0 <= x0) & (x0 <= left.domain[1]))
    # Near the parabolic point T(x) = x(1 + x**s): relative error stays at rounding.
    assert np.all(np.abs(left.value(x0) - y) <= 2.0 * eps * y)
    x1 = right.inverse(y)
    assert np.all((right.domain[0] <= x1) & (x1 <= 1.0))
    assert np.max(np.abs(right.value(x1) - y)) <= 4.0 * eps


def test_cantor_gap_domains():
    m = linear_full_branch_map([3.0, 3.0])
    assert m.branches[0].domain == pytest.approx((0.0, 1.0 / 3.0))
    assert m.branches[1].domain == pytest.approx((1.0 / 3.0, 2.0 / 3.0))
    assert sum(b.domain[1] - b.domain[0] for b in m.branches) < 1.0


def test_negative_slope_orientation():
    m = linear_full_branch_map([2.0, -2.0])
    br = m.branches[1]
    assert not br.increasing
    assert br.value(0.5) == pytest.approx(1.0)
    assert br.value(1.0) == pytest.approx(0.0)
    assert br.inverse(0.4) == pytest.approx(0.8)


def test_slope_sum_over_one_rejected():
    with pytest.raises(ValueError):
        linear_full_branch_map([2.0, 1.5])


def test_golden_mean_subshift(golden):
    assert np.array_equal(golden.transition, [[1, 1], [1, 0]])
    assert [golden.word_count(n) for n in range(1, 6)] == [2, 3, 5, 8, 13]
    assert golden.admissible((0, 1, 0, 1))
    assert not golden.admissible((0, 1, 1))
    assert golden.aperiodicity_power == 2
    # repeller core: the 01-cycle pins the spans at 1/3 and 2/3
    assert golden.core_spans[0] == pytest.approx((0.0, 1.0 / 3.0), abs=1e-12)
    assert golden.core_spans[1] == pytest.approx((0.5, 2.0 / 3.0), abs=1e-12)


def test_overlapping_domains_rejected():
    with pytest.raises(MarkovViolation, match="overlap"):
        build_map(
            [
                Branch("linear", (0.0, 0.6), (0.0, 1.0), slope=5.0 / 3.0),
                Branch("linear", (0.5, 1.0), (0.0, 1.0), slope=2.0, offset=-1.0),
            ]
        )


def test_endpoint_mismatch_rejected():
    with pytest.raises(MarkovViolation, match="endpoints"):
        build_map(
            [
                Branch("linear", (0.0, 0.5), (0.0, 1.0), slope=2.0, offset=0.1),
                Branch("linear", (0.5, 1.0), (0.0, 1.0), slope=2.0, offset=-1.0),
            ]
        )


def test_contracting_branch_rejected():
    # Markov-consistent three-branch system whose last branch has |T'| < 1.
    with pytest.raises(ContractionViolation):
        build_map(
            [
                Branch("linear", (0.0, 0.1), (0.0, 1.0), slope=10.0),
                Branch("linear", (0.1, 0.2), (0.0, 1.0), slope=10.0, offset=-1.0),
                Branch("linear", (0.2, 1.0), (0.0, 0.1), slope=0.125, offset=-0.025),
            ]
        )


def test_reducible_system_rejected():
    # two doubling copies that never communicate
    with pytest.raises(NotTransitive):
        build_map(
            [
                Branch("linear", (0.0, 0.25), (0.0, 0.5), slope=2.0),
                Branch("linear", (0.25, 0.5), (0.0, 0.5), slope=2.0, offset=-0.5),
                Branch("linear", (0.5, 0.75), (0.5, 1.0), slope=2.0, offset=-0.5),
                Branch("linear", (0.75, 1.0), (0.5, 1.0), slope=2.0, offset=-1.0),
            ]
        )


def test_transition_contradicting_images_rejected(golden):
    with pytest.raises(MarkovViolation, match="contradicts"):
        build_map(golden.branches, transition=[[1, 1], [1, 1]])


def test_mp_parabolic_orbit(mp):
    assert mp.has_parabolic
    orbit = mp.parabolic_orbits[0]
    assert orbit.word == (0,)
    assert orbit.points[0] == pytest.approx(0.0, abs=1e-12)
    assert orbit.multiplier == pytest.approx(1.0, abs=1e-12)
    # T(x) = x + x^(1+s): |T'| - 1 = (1+s) x^s, so beta = s exactly
    assert orbit.beta == pytest.approx(0.5, abs=1e-12)


def test_mp_split_point(mp):
    # branch boundary solves x + x^(3/2) = 1
    split = mp.branches[0].domain[1]
    assert split + split**1.5 - 1.0 == pytest.approx(0.0, abs=1e-12)


def test_farey_orbit_detected(farey):
    orbit = farey.parabolic_orbits[0]
    assert orbit.word == (0,)
    assert orbit.points == (0.0,)  # the fixed domain end, not a bisected 1e-16
    assert orbit.beta == pytest.approx(1.0, abs=1e-9)
    # T'(x) = 1/(1-x)^2 near 0, so |T'| - 1 ~ 2x
    assert orbit.L == 2.0
    assert farey.is_full_shift


def test_hyperbolic_maps_have_no_orbit(doubling, golden, two_slopes):
    for m in (doubling, golden, two_slopes):
        assert m.parabolic_orbits == ()


@pytest.mark.parametrize("s", [0.001, 0.01, 0.5, 1.0, 1.5, 2.0, 3.0, 3.1, 4.0, 5.0, 10.0])
def test_mp_builds_with_analytic_exponent(s):
    # The neutral point is the domain end 0, which branch 0 fixes exactly,
    # for every s: |T'| = 1 nowhere else, however flat T is near 0.
    orbit, = manneville_pomeau_map(s).parabolic_orbits
    assert orbit.points == (0.0,)
    assert orbit.multiplier == 1.0
    assert (orbit.beta, orbit.L) == (s, 1.0 + s)


def test_unit_derivative_run_must_reach_a_neutral_fixed_point():
    # farey_right has |T'| = 1 at x = 1 and maps it to 0: beside farey_left
    # that is the neutral fixed point, beside a linear branch it is the
    # hyperbolic fixed point 0 of slope 2, and the map is refused.
    assert farey_map().parabolic_orbits[0].points == (0.0,)
    with pytest.raises(ContractionViolation, match=r"x = 1 \(branch 1\)"):
        build_map([
            Branch("linear", (0.0, 0.5), (0.0, 1.0), slope=2.0),
            Branch("farey_right", (0.5, 1.0), (0.0, 1.0)),
        ])


@pytest.mark.parametrize(("m", "want"), [
    (maps.doubling_map, 1.0 / 3.0),
    (farey_map, math.sqrt(2.0) - 1.0),
])
def test_periodic_point_on_closed_form_cycles(m, want):
    # The 2-cycles coded by (0, 1): {1/3, 2/3} for doubling and
    # {sqrt(2) - 1, 1/sqrt(2)} for Farey.
    m = m()
    x = _periodic_point(m.branches, m.transition, m.core_spans, (0, 1))
    assert x == pytest.approx(want, rel=0.0, abs=2e-16)


def _admissible_by_pairs(m, word):
    """The pairwise loop `admissible` replaced, with an index error (a
    symbol past the last one) read as inadmissible."""
    try:
        for a, b in zip(word, word[1:]):
            if not m.transition[a, b]:
                return False
    except IndexError:
        return False
    return all(0 <= i < m.p for i in word)


def test_admissible_matches_pairwise_loop(golden, farey, markov):
    rng = np.random.default_rng(5)
    for m in (golden, farey, markov):
        words = [()] + [
            tuple(int(x) for x in rng.integers(-2, m.p + 2, size=n))
            for n in rng.integers(1, 7, size=400)
        ]
        words += [tuple(int(x) for x in rng.integers(0, m.p, size=n)) for n in range(1, 9)]
        assert [m.admissible(w) for w in words] == [_admissible_by_pairs(m, w) for w in words]
    assert not farey.admissible((0, 5))
    assert not farey.admissible((1, -1))
    with pytest.raises(ValueError, match="not admissible"):
        word_rows(farey, [(0, 5)])


@pytest.mark.parametrize("word", [(1, 1, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1, 1), (0, 2), (-1, 0)])
def test_cylinders_refuse_inadmissible_words(golden, farey, word):
    # The forbidden pair 11 of the golden mean map at the start, in the
    # middle and at the end of a word, and symbols out of range.  A full
    # shift allows every pair, so it checks only the range.
    with pytest.raises(ValueError, match=rf"word {re.escape(str(word))} is not admissible"):
        word_rows(golden, [(0,), word])
    if 0 <= min(word) and max(word) < farey.p:
        assert farey.admissible(word)
    else:
        with pytest.raises(ValueError, match="not admissible"):
            word_rows(farey, [(0,), word])


def _power_map():
    """The power branch T(x) = x + 2 x**1.7 beside a linear one: a full
    shift whose neutral fixed point 0 is a domain end."""
    br = _power_branch()
    d = br.domain[1]
    slope = 1.0 / (1.0 - d)
    return build_map([br, Branch("linear", (d, 1.0), (0.0, 1.0), slope=slope, offset=-d * slope)])


def _masked_power_map():
    """A power branch onto [0, 3/8], beside linear branches: not a full shift."""
    return build_map([
        Branch("power", (0.0, 0.25), (0.0, 0.375), s=0.5, c=1.0),
        Branch("linear", (0.25, 0.375), (0.375, 1.0), slope=5.0, offset=-0.875),
        Branch("linear", (0.375, 1.0), (0.0, 1.0), slope=1.6, offset=-0.6),
    ])


ORBIT_MAPS = {
    "mp_0.5": lambda: manneville_pomeau_map(0.5),
    "mp_1": lambda: manneville_pomeau_map(1.0),
    "mp_3.05": lambda: manneville_pomeau_map(3.05),
    "farey": farey_map,
    "power": _power_map,
    "masked_power": _masked_power_map,
}


MP_MAPS = {f"mp_{s}": lambda s=s: manneville_pomeau_map(s) for s in (0.001, 3.1, 1000)}

# Each map's (beta, L) by float.hex; its one orbit is the fixed point 0 of
# branch 0, with multiplier 1.
ORBIT_RECORDS = {
    "farey": ("0x1.0000000000000p+0", "0x1.0000000000000p+1"),
    "masked_power": ("0x1.0000000000000p-1", "0x1.8000000000000p+0"),
    "mp_0.5": ("0x1.0000000000000p-1", "0x1.8000000000000p+0"),
    "mp_1": ("0x1.0000000000000p+0", "0x1.0000000000000p+1"),
    "mp_3.05": ("0x1.8666666666666p+1", "0x1.0333333333333p+2"),
    "power": ("0x1.6666666666666p-1", "0x1.b333333333333p+1"),
    "mp_0.001": ("0x1.0624dd2f1a9fcp-10", "0x1.004189374bc6ap+0"),
    "mp_3.1": ("0x1.8cccccccccccdp+1", "0x1.0666666666666p+2"),
    "mp_1000": ("0x1.f400000000000p+9", "0x1.f480000000000p+9"),
}


@pytest.mark.parametrize("name", sorted(ORBIT_MAPS) + sorted(MP_MAPS))
def test_hyperbolic_words_skip_the_orbit_search(name):
    # A branch whose |T'| exceeds 1 at both domain ends has no point with
    # |T'| = 1, so no orbit passes through it.  Every map here has one
    # neutral fixed point, 0 on branch 0, with multiplier exactly 1.
    m = {**ORBIT_MAPS, **MP_MAPS}[name]()
    for br in m.branches:
        low = min(abs(br.derivative(x)) for x in br.domain)
        assert (_unit_point(br) is None) == (low > 1.0)
    beta, L = ORBIT_RECORDS[name]
    assert [
        (o.word, [x.hex() for x in o.points], o.multiplier.hex(),
         float(o.beta).hex(), float(o.L).hex())
        for o in m.parabolic_orbits
    ] == [((0,), ["0x0.0p+0"], "0x1.0000000000000p+0", beta, L)]
