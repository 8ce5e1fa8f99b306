from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dimspectra import (
    Enclosure,
    NoParabolicOrbit,
    NotConverged,
    NotStrictlyNegative,
    alpha_of_a,
    b_curve,
    b_of_a,
    dimension_at_infinite_alpha,
    legendre_spectrum,
    locally_constant,
    spectrum_endpoints,
)
from dimspectra.cli import main
from dimspectra.numerics import _CHUNK, log_sum_exp, root_counts
import root_oracle
from root_oracle import _bisect, _drive, _expand
from dimspectra import normalize_potential, spectrum
from dimspectra.spectrum import GOLDEN_CAP, _convex_argmin, _min_cycle_ratio, legendre_counts
from dimspectra.symbolic import CylinderTable, LevelArrays, shared_table

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

LOG2 = math.log(2.0)
ALPHA_MIN_BE = math.log(4.0 / 3.0) / LOG2  # 0.4150374992788438
ALPHA_PEAK_BE = math.log(16.0 / 3.0) / (2.0 * LOG2)  # where f attains 1
ALPHA_FIX_BE = 0.8112781244591328  # f(alpha) = alpha at the measure dimension


def test_b_curve_doubling_uniform(doubling, uniform_phi):
    # P(a psi + b phi) = a log2 - b log2 = 0, so b(a) = 1 + a exactly
    points = b_curve(doubling, uniform_phi, np.linspace(-2.0, 2.0, 9), tol=1e-10)
    for pt in points:
        assert pt.value == pytest.approx(1.0 + pt.a, abs=1e-10)
        assert pt.lower - 1e-10 <= 1.0 + pt.a <= pt.upper + 1e-10
        assert not pt.on_ray
        assert pt.width <= 1e-10


def test_b_of_a_bernoulli_root_residual(doubling, bernoulli_phi):
    pt = b_of_a(doubling, bernoulli_phi, 1.0, tol=1e-10)
    # closed form pressure: P = a log2 + log((1/4)^b + (3/4)^b)
    assert 2.0 * (0.25**pt.value + 0.75**pt.value) == pytest.approx(1.0, abs=1e-9)
    assert pt.value == pytest.approx(2.6030478148, abs=1e-8)


@pytest.mark.parametrize("a", [-2.0, -0.5, 0.0, 1.0, 3.0])
def test_b_of_a_one_root_when_curves_coincide(doubling, bernoulli_phi, a):
    # A full shift needs no gluing symbols and Bernoulli sums over the doubling
    # map are exact, so the lower and upper curves are one function: the
    # bracket closes at level 2 on that function's root.
    pt = b_of_a(doubling, bernoulli_phi, a, tol=1e-10)
    arr = CylinderTable(doubling, bernoulli_phi).level(2)

    def curve(b: float) -> float:
        return log_sum_exp(arr.combined_side(a, b, 0)) / 2

    step = 1.0 if curve(0.0) > 0.0 else -1.0
    lo, hi, _, _ = _drive(_expand(0.0, step, max_expand=60), curve)
    root = _drive(_bisect(lo, hi, xtol=1e-13, max_iter=200), curve)
    assert pt.level == 2
    assert pt.lower == pt.value == pt.upper == root


def test_b_of_a_full_ladder_when_curves_differ(golden, mp, uniform_phi):
    # The golden mean shift needs one gluing symbol; off a = 0 the
    # Manneville-Pomeau log-derivative sums are brackets, not exact values.
    for m, a in ((golden, 0.0), (mp, -0.5), (mp, 0.5)):
        pt = b_of_a(m, uniform_phi, a, tol=1e-4, max_level=12)
        assert not pt.on_ray
        assert pt.lower < pt.upper
        assert pt.lower <= pt.value <= pt.upper


def test_positive_potential_rejected(doubling):
    with pytest.raises(NotStrictlyNegative):
        b_of_a(doubling, locally_constant({(0,): 0.5, (1,): 0.5}), 1.0)


def test_alpha_of_a_closed_form(doubling, bernoulli_phi):
    # implicit differentiation at a = -1 gives b' = 2 log2 / log(16/3)
    pt = alpha_of_a(doubling, bernoulli_phi, -1.0, tol=1e-10)
    assert pt.alpha == pytest.approx(math.log(16.0 / 3.0) / (2.0 * LOG2), abs=1e-6)
    assert pt.b_prime == pytest.approx(2.0 * LOG2 / math.log(16.0 / 3.0), abs=1e-6)
    assert pt.alpha * pt.b_prime == pytest.approx(1.0, abs=1e-12)


def test_mp_ray_detection(mp, uniform_phi):
    pt = b_of_a(mp, uniform_phi, -1.5, tol=1e-4, max_level=12)
    assert pt.on_ray
    assert pt.value == 0.0
    assert pt.upper >= 0.0


def test_mp_off_ray_bracket(mp, uniform_phi):
    pt = b_of_a(mp, uniform_phi, 0.0, tol=1e-4, max_level=12)
    assert not pt.on_ray
    # b(0) = 1: the potential is the normalized uniform weight vector
    assert pt.lower <= 1.0 <= pt.upper
    assert pt.value == pytest.approx(1.0, abs=0.05)


def test_endpoints_bernoulli_exact(doubling, bernoulli_phi):
    # The extreme cycles are the fixed points 1 and 0; their ratios are the
    # values returned, so only the rounding of the Birkhoff sums remains.
    a_min, a_max = spectrum_endpoints(doubling, bernoulli_phi, level=4)
    assert a_min.value == pytest.approx(ALPHA_MIN_BE, abs=1e-14)
    assert a_max.value == pytest.approx(2.0, abs=1e-14)
    assert a_min.lower <= a_min.value <= a_min.upper
    assert a_max.lower <= a_max.value <= a_max.upper
    assert (a_min.level, a_min.mode) == (a_max.level, a_max.mode) == (4, "cycle")


def _has_negative_cycle(nodes, tails, heads, w):
    """Bellman-Ford negative-cycle test: relaxing every edge `nodes` times
    without reaching a fixed point proves a negative cycle."""
    dist = np.zeros(nodes)
    for _ in range(nodes):
        new = dist.copy()
        np.minimum.at(new, heads, dist[tails] + w)
        if np.array_equal(new, dist):
            return False
        dist = new
    return True


def _lawler_min_cycle_ratio(nodes, tails, heads, num, den, xtol=1e-11):
    """Lawler's bisection on lambda over the Bellman-Ford test, the cycle-ratio
    solver spectrum_endpoints used before policy iteration (test oracle)."""
    finite = den > 0
    lo = float(np.min(num[finite] / den[finite])) - 1e-9
    hi = float(np.max(num[finite] / den[finite])) + 1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol * max(1.0, abs(lo), abs(hi)) or mid in (lo, hi):
            break
        if _has_negative_cycle(nodes, tails, heads, num - mid * den):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _simple_cycle_min_ratio(nodes, tails, heads, num, den):
    """Minimum ratio over simple cycles, each walked once from its least node.
    With num >= 0 every cycle is a union of simple ones whose combined ratio
    is no smaller, so this is the minimum over all cycles."""
    best = math.inf

    def walk(start, node, seen, n_sum, d_sum):
        nonlocal best
        for e in np.flatnonzero(tails == node):
            head, n_e, d_e = int(heads[e]), n_sum + num[e], d_sum + den[e]
            if head == start:
                if d_e > 0:
                    best = min(best, n_e / d_e)
            elif head > start and head not in seen:
                walk(start, head, seen | {head}, n_e, d_e)

    for start in range(nodes):
        walk(start, start, {start}, 0.0, 0.0)
    return best


@st.composite
def ratio_digraphs(draw):
    """Strongly connected digraphs on <= 6 nodes (a Hamiltonian cycle plus
    random edges, loops and parallel edges allowed) with num, den >= 0."""
    nodes = draw(st.integers(1, 6))
    order = draw(st.permutations(range(nodes)))
    edges = [(order[i], order[(i + 1) % nodes]) for i in range(nodes)]
    node = st.integers(0, nodes - 1)
    edges += draw(st.lists(st.tuples(node, node), max_size=12))
    count = len(edges)
    num = draw(st.lists(st.floats(0.0, 10.0), min_size=count, max_size=count))
    den = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-3, 10.0)), min_size=count, max_size=count
    ))
    tails, heads = (np.array(side, dtype=np.int64) for side in zip(*edges))
    return nodes, tails, heads, np.array(num), np.array(den)


@settings(max_examples=300, deadline=None)
@given(ratio_digraphs())
# Node 1's out-edges both carry den 0 and its first is a loop, so the first
# policy ends every node on a +inf cycle; only 0 -> 1 -> 0 has a ratio (1).
@example((2, np.array([0, 1, 1]), np.array([1, 1, 0]), np.array([1.0, 0, 0]), np.array([1.0, 0, 0])))
def test_min_cycle_ratio_matches_simple_cycles(graph):
    # _min_cycle_ratio raises NotConverged unless its reduced-cost check holds,
    # so a returned value has passed it.  That check forgives rounding-scale
    # gaps, so a zero optimum may come back as a cycle ratio of 1e-44.
    value = _min_cycle_ratio(*graph)
    truth = _simple_cycle_min_ratio(*graph)
    if math.isinf(truth):
        assert value == math.inf
    else:
        assert value == pytest.approx(truth, rel=1e-12, abs=1e-12)


def test_min_cycle_ratio_farey_level8_against_lawler(farey, uniform_phi):
    # The digraph spectrum_endpoints solves: 7-words as nodes, 8-words as edges.
    table = shared_table(farey, uniform_phi)
    tails, heads = table.links(8)
    nodes, arr = table.level(7).count, table.level(8)
    num_lo, num_hi, den_lo, den_hi = -arr.phi_hi, -arr.phi_lo, arr.psi_lo, arr.psi_hi
    mid_num, mid_den = 0.5 * (num_lo + num_hi), 0.5 * (den_lo + den_hi)
    # The word 0^8 has den_lo = 0: the parabolic fixed point's cycle is +inf.
    assert np.any(den_lo == 0.0)
    for num, den in ((mid_num, mid_den), (num_lo, den_hi), (num_hi, den_lo), (-mid_num, mid_den)):
        value = _min_cycle_ratio(nodes, tails, heads, num, den)
        oracle = _lawler_min_cycle_ratio(nodes, tails, heads, num, den)
        # Lawler stops on a bracket 1e-11 wide (relative) and returns its midpoint.
        assert abs(value - oracle) <= 1e-11 * max(1.0, abs(oracle))


def test_min_cycle_ratio_cap_raises(monkeypatch):
    # The example above needs a second policy: with one allowed, the solver
    # raises instead of returning the first policy's +inf.
    graph = (2, np.array([0, 1, 1]), np.array([1, 1, 0]), np.array([1.0, 0, 0]), np.array([1.0, 0, 0]))
    assert _min_cycle_ratio(*graph) == 1.0
    monkeypatch.setattr(spectrum, "HOWARD_CAP", 1)
    with pytest.raises(NotConverged, match="no stable policy"):
        _min_cycle_ratio(*graph)


def test_endpoints_degenerate_uniform(golden, uniform_phi):
    a_min, a_max = spectrum_endpoints(golden, uniform_phi, level=4)
    assert a_min.value == pytest.approx(1.0, abs=1e-9)
    assert a_max.value == pytest.approx(1.0, abs=1e-9)


def test_endpoints_parabolic_infinite(farey, mp, uniform_phi):
    for m in (farey, mp):
        a_min, a_max = spectrum_endpoints(m, uniform_phi, level=6)
        assert a_max.value == a_max.lower == a_max.upper == math.inf
        assert math.isnan(a_max.width)
        assert 0.0 < a_min.value < 1.0


def test_dimension_at_infinite_alpha(mp, farey, doubling):
    assert dimension_at_infinite_alpha(mp) == pytest.approx(1.0, abs=1e-3)
    assert dimension_at_infinite_alpha(farey) == pytest.approx(1.0, abs=1e-3)
    with pytest.raises(NoParabolicOrbit):
        dimension_at_infinite_alpha(doubling)


def test_legendre_degenerate_uniform(doubling, uniform_phi):
    curve = legendre_spectrum(doubling, uniform_phi, [1.0], tol=1e-10)
    assert curve.f_values[0] == pytest.approx(1.0, abs=1e-9)
    assert curve.f_lowers[0] <= curve.f_values[0] <= curve.f_uppers[0]
    assert curve.alpha_min == pytest.approx(1.0, abs=1e-9)
    assert curve.alpha_max == pytest.approx(1.0, abs=1e-9)
    # outside the degenerate range the objective is unbounded below
    outside = legendre_spectrum(doubling, uniform_phi, [1.4], tol=1e-10)
    assert outside.f_values[0] < 0.0


def test_legendre_fixed_point(doubling, bernoulli_phi):
    curve = legendre_spectrum(doubling, bernoulli_phi, [ALPHA_FIX_BE], tol=1e-10)
    assert curve.f_values[0] == pytest.approx(ALPHA_FIX_BE, abs=1e-8)
    assert curve.f_lowers[0] <= curve.f_values[0] <= curve.f_uppers[0]


def test_legendre_peak_value(doubling, bernoulli_phi):
    # at the uniform-measure alpha the spectrum attains the full dimension 1
    curve = legendre_spectrum(doubling, bernoulli_phi, [ALPHA_PEAK_BE], tol=1e-10)
    assert curve.f_values[0] == pytest.approx(1.0, abs=1e-8)


def test_curve_rows_align(doubling, bernoulli_phi):
    alphas = [0.6, 0.9, 1.2]
    curve = legendre_spectrum(doubling, bernoulli_phi, alphas, tol=1e-9)
    rows = _rows(curve)
    assert len(rows) == 3
    for row, alpha in zip(rows, alphas):
        al, f, flo, fup, pt = row
        assert al == alpha
        assert flo <= f <= fup
        assert pt.lower <= pt.value <= pt.upper
        # row is self-consistent: f = alpha * b - a at the minimizer
        assert f == pytest.approx(alpha * pt.value - pt.a, abs=1e-12)


# ---------------------------------------------------------------------------
# array solves against the scalar loops they replaced


def _legendre_oracle(m, phi, alphas, **kw):
    """The scalar Legendre transform's rows (`root_oracle.legendre_spectrum`),
    as `_rows` gives them with the point by its bits."""
    rows = root_oracle.legendre_spectrum(m, phi, alphas, **kw)
    return [(*row[:4], root_oracle.hexed(row[4])) for row in rows]


def _rows(curve, bits=False):
    """A curve's rows (alpha, f, f_low, f_high, point), the point by its
    bits if asked."""
    points = [root_oracle.hexed(pt) if bits else pt for pt in curve.points]
    return list(zip(curve.alphas, curve.f_values, curve.f_lowers, curve.f_uppers, points))


def _depth2_phi(doubling):
    table = {(0, 0): -1.0, (0, 1): -0.6, (1, 0): -0.8, (1, 1): -1.2}
    return normalize_potential(doubling, locally_constant(table), tol=1e-12)


@pytest.mark.parametrize("case", ["bernoulli_shipped", "two_slopes", "depth2_doubling"])
def test_legendre_lockstep_equals_scalar_loop(request, case, doubling, bernoulli_phi):
    if case == "bernoulli_shipped":  # configs/doubling_bernoulli_spectrum.yaml
        m, phi, alphas = doubling, bernoulli_phi, np.linspace(0.45, 1.95, 50)
        kw = dict(tol=1e-10, max_level=16)
    elif case == "two_slopes":
        m, phi = request.getfixturevalue("two_slopes"), bernoulli_phi
        alphas, kw = np.linspace(0.3, 1.8, 7), dict(tol=1e-10, max_level=16)
    else:  # brackets that differ: full ladders with ratio stops
        m, phi, alphas = doubling, _depth2_phi(doubling), [0.9, 1.2]
        kw = dict(tol=1e-5, max_level=12, refine_tol=1e-4)
    curve = legendre_spectrum(m, phi, alphas, **kw)
    assert _rows(curve, bits=True) == _legendre_oracle(m, phi, alphas, **kw)


# Synthetic convex objectives of x = a - minimizer, exact in IEEE arithmetic
# so that array and scalar evaluations agree bit for bit; "plateau" is flat
# on [-1, 1], so its searches compare equal values.
_SHAPES = {
    "square": lambda x: x * x,
    "abs": np.abs,
    "kink": lambda x: np.where(x < 0.0, -3.0 * x, x),
    "plateau": lambda x: np.maximum(np.abs(x) - 1.0, 0.0),
}


def _minimizer(lo: float, hi: float, end: str, widenings: int, u: float) -> float:
    """A minimizer that the search on [lo, hi] reaches after about
    `widenings` widenings toward `end` (inside the bracket for 0)."""
    span = hi - lo
    if widenings == 0:
        return lo + u * span
    beyond = span * (2.0 ** (widenings - 1) - 1.0 + u * 2.0 ** (widenings - 1))
    return lo - beyond if end == "low" else hi + beyond


@settings(max_examples=60, deadline=None)
@given(
    lanes=st.lists(
        st.tuples(
            st.sampled_from(["low", "high"]),
            st.sampled_from([0, 1, 2, 7, 8, 10]),
            # near a zone's edge: 2% from the end for 0 widenings, 0.96 after
            st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.019, 0.025, 0.955, 0.965, 0.981])),
        ),
        min_size=1,
        max_size=6,
    ),
    shape=st.sampled_from(sorted(_SHAPES)),
    bracket=st.sampled_from([(-4.0, 4.0), (-1.0, 0.5), (2.0, 3.0)]),
    xtol=st.sampled_from([1e-7, 1e-3, 0.5, 1e-300]),
)
@example(lanes=[("low", 10, 0.5), ("high", 7, 0.3), ("low", 0, 0.5)], shape="square",
         bracket=(-4.0, 4.0), xtol=1e-300)  # every search takes GOLDEN_CAP steps
@example(lanes=[("low", 1, 0.0), ("high", 2, 0.99), ("high", 1, 0.999)], shape="kink",
         bracket=(-4.0, 4.0), xtol=1e-7)  # minimizers on a widened end's zone
@example(lanes=[("low", 0, 0.025), ("high", 0, 0.975), ("low", 1, 0.955), ("high", 2, 0.955)],
         shape="square", bracket=(-4.0, 4.0), xtol=1e-7)  # just outside a zone
def test_convex_argmin_equals_scalar_search(lanes, shape, bracket, xtol):
    # The array search ends searches already decided to widen and runs the
    # widened successors ahead; every lane must still find the bits of the
    # scalar loop, for interior minimizers, one to seven widenings toward
    # either end or the eight-search cap, and lanes that widen in different
    # rounds.
    lo, hi = bracket
    mins = np.array([_minimizer(lo, hi, *lane) for lane in lanes])
    g = _SHAPES[shape]
    found = _convex_argmin(lambda lane, a, _ahead: g(a - mins[lane]), len(lanes), lo, hi, xtol=xtol)
    for x, m in zip(found.tolist(), mins.tolist()):
        search = root_oracle._convex_argmin(lo, hi, xtol=xtol)
        scalar = _drive(search, lambda a: float(g(np.array([a - m]))[0]))
        assert x.hex() == scalar.hex()


def test_convex_argmin_caps_steps_and_searches():
    # At xtol 1e-300 a bracket closing on 0 never gets that narrow before
    # GOLDEN_CAP steps (one far from 0 collapses to one float first); a
    # minimizer far below takes all 8 searches, ending in [-1020, 4].
    mins = np.array([1e-30, -1e6])
    asked = [[], []]

    def lane(i: int):
        def value(a: float) -> float:
            asked[i].append(a)
            return abs(a - mins[i].item())
        return value

    scalar = [_drive(root_oracle._convex_argmin(-4.0, 4.0, xtol=1e-300), lane(i)) for i in (0, 1)]
    assert len(asked[0]) == 2 + GOLDEN_CAP  # one search: two points to start, one per step
    assert -1020.0 <= scalar[1] < -1000.0
    rounds = legendre_counts["rounds"]
    found = _convex_argmin(
        lambda lane, a, _ahead: np.abs(a - mins[lane]), 2, -4.0, 4.0, xtol=1e-300
    )
    assert [x.hex() for x in found.tolist()] == [x.hex() for x in scalar]
    assert legendre_counts["rounds"] - rounds < len(asked[1]) / 2


def _b_curve_failing_below(monkeypatch, threshold: float) -> list:
    """Make spectrum.b_curve give a NotConverged for every a < threshold;
    returns the list of a-values it is asked."""
    real, asked = spectrum.b_curve, []

    def b_curve(m, phi, a_values, **kw):
        asked.extend(a_values)
        solved = iter(real(m, phi, [a for a in a_values if a >= threshold], **kw))
        return [next(solved) if a >= threshold else NotConverged(f"b({a:g}) refused")
                for a in a_values]

    monkeypatch.setattr(spectrum, "b_curve", b_curve)
    return asked


def test_speculative_failures_stay_contained(doubling, bernoulli_phi, monkeypatch):
    # b(a) fails below a = -5.  Minimizers inside [-4, 4] never need such
    # a point, though the successor searches toward [-12, 4] ask them: the
    # transform keeps its bits.  A minimizer below -4 needs one, and the
    # transform raises the error the scalar loop meets first.
    kw = dict(tol=1e-10, max_level=16)
    inside = [0.7, 1.0, 1.4]
    want = _rows(legendre_spectrum(doubling, bernoulli_phi, inside, **kw), bits=True)
    asked = _b_curve_failing_below(monkeypatch, -5.0)
    curve = legendre_spectrum(doubling, bernoulli_phi, inside, **kw)
    assert _rows(curve, bits=True) == want
    assert min(asked) < -5.0
    first = []

    def objective(a: float) -> float:
        if round(a, 12) < -5.0:
            first.append(round(a, 12))
            raise NotConverged("stop")
        return 1.95 * spectrum.b_of_a(doubling, bernoulli_phi, round(a, 12), **kw).value - a

    with pytest.raises(NotConverged):
        _drive(root_oracle._convex_argmin(-4.0, 4.0, xtol=1e-7), objective)
    with pytest.raises(NotConverged, match=r"refused") as err:
        legendre_spectrum(doubling, bernoulli_phi, [1.0, 1.95], **kw)
    assert str(err.value) == f"b({first[0]:g}) refused"


def test_farey_spectrum_takes_no_more_solves_than_scalar_search(farey, bernoulli_phi):
    # Farey's low successors run on the parabolic ray, which needs no root
    # solve: the array transform solves no more b(a) roots than the points
    # of the scalar loop need, and gives its bits.
    alphas, kw = [0.9, 1.5, 3.0], dict(tol=1e-2, max_level=8)
    spectrum._ray_start(farey, kw["tol"], kw["max_level"])  # solved once per map
    before = root_counts["solves"]
    curve = legendre_spectrum(farey, bernoulli_phi, alphas, **kw)
    solves = root_counts["solves"] - before
    keys = []  # each new b(a) the scalar loop solves
    want = _legendre_oracle(farey, bernoulli_phi, alphas, **kw, asked=keys)
    before = root_counts["solves"]
    b_curve(farey, bernoulli_phi, keys, **kw)
    assert 0 < solves <= root_counts["solves"] - before
    assert _rows(curve, bits=True) == want


def _same_outcome(got, m, phi, a, **kw):
    try:
        want = b_of_a(m, phi, a, **kw)
    except NotConverged as exc:
        assert isinstance(got, NotConverged), a
        assert str(got) == str(exc), a
        assert root_oracle.hexed(got.enclosure) == root_oracle.hexed(exc.enclosure), a
        return "raised"
    assert got == want, a
    return "ray" if want.on_ray else "solved"


def test_b_curve_equals_b_of_a_per_lane(golden, mp, uniform_phi, bernoulli_phi):
    # Golden mean: lanes that stop at different levels and lanes that raise
    # NotConverged; Manneville-Pomeau: ray lanes beside ladder lanes.
    cases = (
        (golden, bernoulli_phi, [-1.0, -0.3, 0.0, 0.5, 1.0, 2.0], dict(tol=1e-8, max_level=12)),
        (mp, uniform_phi, [-1.5, -0.9, -0.5, 0.0, 0.5], dict(tol=1e-4, max_level=12)),
    )
    seen = set()
    for m, phi, a_values, kw in cases:
        points = b_curve(m, phi, a_values, **kw)
        assert len(points) == len(a_values)
        for a, got in zip(a_values, points):
            seen.add(_same_outcome(got, m, phi, a, **kw))
    assert seen == {"raised", "ray", "solved"}


def test_empty_grids_give_empty_results(doubling, mp, uniform_phi, bernoulli_phi):
    assert b_curve(doubling, uniform_phi, []) == []
    assert b_curve(mp, uniform_phi, [], tol=1e-4, max_level=12) == []
    curve = legendre_spectrum(doubling, bernoulli_phi, [], tol=1e-9)
    assert _rows(curve) == [] and curve.points == ()


def test_b_of_a_without_a_rung_raises_open_enclosure(doubling, bernoulli_phi):
    # The ladder starts at level 2, so max_level=1 runs no rung.
    with pytest.raises(NotConverged, match="last accelerated value nan") as err:
        b_of_a(doubling, bernoulli_phi, 0.5, max_level=1)
    assert root_oracle.hexed(err.value.enclosure) == root_oracle.hexed(
        Enclosure(math.nan, -math.inf, math.inf, 1, "enclosure")
    )


def test_b_curve_keeps_failed_bracket_expansion_in_place(doubling, uniform_phi):
    # At a = 1e20 the root b = 1 + a lies past the 60 doublings of the
    # bracket expansion: that lane ends NotConverged with no enclosure, and
    # the lanes beside it keep their bits.
    kw = dict(tol=1e-10, max_level=12)
    found = b_curve(doubling, uniform_phi, [0.0, 1e20, 1.0], **kw)
    assert isinstance(found[1], NotConverged) and found[1].enclosure is None
    with pytest.raises(NotConverged, match="bracket expansion"):
        b_of_a(doubling, uniform_phi, 1e20, **kw)

    def hexed(point):
        return root_oracle.hexed(point)

    alone = b_curve(doubling, uniform_phi, [0.0, 1.0], **kw)
    assert [hexed(p) for p in found[::2]] == [hexed(p) for p in alone]


def test_failed_ray_start_gives_each_lane_its_own_error(mp, uniform_phi):
    # The ray start is a Bowen root; where it does not converge, no lane
    # has a bracket of its own.  Each a gets a NotConverged naming it and
    # the ray start, with no enclosure (not the Bowen root's).
    a_values = [-2.0, 0.5]
    found = b_curve(mp, uniform_phi, a_values, tol=1e-15, max_level=2)
    assert found[0] is not found[1]
    for a, point in zip(a_values, found):
        assert isinstance(point, NotConverged) and point.enclosure is None
        assert str(point).startswith(f"b({a:g}): no ray start: bowen root not within")


def test_b_curve_splits_wide_levels_into_chunks(doubling, monkeypatch):
    # Depth-2 lanes climb to level 13 (8,192 words), where five or more
    # lanes would make more than one chunk of entries; each evaluation is
    # split into slices of lanes holding at most one chunk, and every lane
    # still equals its scalar solve.
    phi = _depth2_phi(doubling)
    a_values, kw = [0.5, 1.0, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0], dict(tol=1e-10, max_level=13)
    module = sys.modules["dimspectra.pressure"]
    asked, widths = [], []
    per_lane, log_sum_exp = module._per_lane, module.log_sum_exp

    def recorded(fn, count, a, b):
        asked.append(count * np.size(a))
        return per_lane(fn, count, a, b)

    def counted(values):
        widths.append(np.size(values))
        return log_sum_exp(values)

    monkeypatch.setattr(module, "_per_lane", recorded)
    monkeypatch.setattr(module, "log_sum_exp", counted)
    points = b_curve(doubling, phi, a_values, **kw)
    monkeypatch.undo()
    assert max(asked) > _CHUNK >= max(widths)
    for a, got in zip(a_values, points):
        _same_outcome(got, doubling, phi, a, **kw)


def test_b_lanes_hold_no_level_the_table_dropped(uniform_phi, monkeypatch):
    # Past cache_words the table keeps only its newest level (and the end
    # columns of the one before); the lanes' shared curves must not keep the
    # older ones alive.  A rung holds its level and, for the ratio curve,
    # the level below, handed on by the rung before: two whole large levels
    # at most, however deep the ladder goes.
    import gc
    import weakref

    from dimspectra import manneville_pomeau_map

    m = manneville_pomeau_map(0.5)
    table = m._table_cache[uniform_phi] = CylinderTable(m, uniform_phi, cache_words=64)
    built, alive = [], []  # weak references to this table's levels
    extend = CylinderTable._extend

    def counted(self, prev):
        if self is table:
            gc.collect()
            levels = [ref() for ref in built]
            alive.append(len({id(o.lo) for o in levels if o is not None and o.count > 64}))
        out = extend(self, prev)
        if self is table:
            built.append(weakref.ref(out))
        return out

    monkeypatch.setattr(CylinderTable, "_extend", counted)
    with pytest.raises(NotConverged):
        b_of_a(m, uniform_phi, -0.7, tol=1e-12, max_level=12)
    assert max(alive) <= 2


def test_b_ladder_past_cache_words_builds_each_level_once(monkeypatch):
    # The table drops level n-1 when it stores level n past cache_words;
    # the ratio curve of rung n reads level n-1 from the rung before, so no
    # level is rebuilt, and the result is the one a table that keeps every
    # level gives.
    from collections import Counter

    from dimspectra import manneville_pomeau_map

    half = locally_constant({(0,): math.log(0.5), (1,): math.log(0.5)})
    builds, outcomes = Counter(), []
    extend = CylinderTable._extend

    def counted(self, prev):
        out = extend(self, prev)
        builds[id(self), out.n] += 1
        return out

    monkeypatch.setattr(CylinderTable, "_extend", counted)
    for cache_words in (64, 1 << 18):
        m = manneville_pomeau_map(0.5)
        m._table_cache[half] = CylinderTable(m, half, cache_words=cache_words)
        with pytest.raises(NotConverged) as err:
            b_of_a(m, half, -0.7, tol=1e-9, max_level=12)
        outcomes.append((root_oracle.hexed(err.value.enclosure), str(err.value)))
    assert max(builds.values()) == 1
    assert outcomes[0] == outcomes[1]


def test_readers_that_revisit_levels_build_each_once(monkeypatch):
    # b(a) lanes and the Legendre search (whose golden-section rounds start
    # new lanes at level 2) come back to levels, so they keep the map's
    # shared table; the ray start's Bowen solve climbs on a table of its
    # own.  Each (table, level) is built once, as many builds in all as
    # when the Bowen solve shared the map's table: 11 for
    # configs/mp_ray_bcurve.yaml and 11 for the Legendre search below.
    from collections import Counter

    from dimspectra import manneville_pomeau_map

    builds = Counter()
    extend = CylinderTable._extend

    def counted(self, prev):
        out = extend(self, prev)
        builds[self, out.n] += 1  # the table itself: a freed one's id recurs
        return out

    monkeypatch.setattr(CylinderTable, "_extend", counted)
    half = locally_constant({(0,): -0.6931471805599453, (1,): -0.6931471805599453})
    b_curve(manneville_pomeau_map(0.5), half, np.linspace(-2.0, 1.0, 7), tol=1e-4, max_level=14)
    assert max(builds.values()) == 1 and sum(builds.values()) == 11
    builds.clear()
    bernoulli = locally_constant({(0,): math.log(0.25), (1,): math.log(0.75)})
    m = manneville_pomeau_map(0.5)
    legendre_spectrum(m, bernoulli, [0.9, 1.3, 1.8], tol=1e-2, max_level=12)
    assert max(builds.values()) == 1 and sum(builds.values()) == 11


def test_one_b_solve_asks_each_b_once(doubling, bernoulli_phi, monkeypatch):
    # A doubling/Bernoulli solve stops at level 2 on one curve; its root
    # solve evaluates the curve at each b once, and the solver's counters
    # see one solve, one lane evaluation per b and one call per step.
    asked = []
    combined_side = LevelArrays.combined_side

    def counted(self, a, b, side, *held):
        if self.n == 2:
            asked.extend(np.ravel(b).tolist())
        return combined_side(self, a, b, side, *held)

    monkeypatch.setattr(LevelArrays, "combined_side", counted)
    before = dict(root_counts)
    pt = b_of_a(doubling, bernoulli_phi, 1.0, tol=1e-10)
    counts = {key: root_counts[key] - before[key] for key in before}
    assert pt.level == 2
    assert len(asked) > 40
    assert len(asked) == len(set(asked))
    assert counts == {"solves": 1, "lane_evals": len(asked), "curve_calls": len(asked)}


def test_shipped_spectrum_root_counts(tmp_path):
    # configs/doubling_bernoulli_spectrum.yaml solves 1,634 b(a), each one
    # root (the bracket closes at level 2 on one curve), at the 76,932
    # points the scalar root lanes asked, in 42 rounds of the Legendre
    # search and at most 2,100 curve calls.  A search that asked every
    # point of a search already decided to widen, and began its widened
    # successor only then, took 80 rounds, 1,680 solves at 79,136 points
    # and 3,990 curve calls.
    before, rounds = dict(root_counts), legendre_counts["rounds"]
    config = CONFIG_DIR / "doubling_bernoulli_spectrum.yaml"
    assert main([str(config), "--set", f"output.csv={tmp_path / 's.csv'}"]) == 0
    counts = {key: root_counts[key] - before[key] for key in before}
    assert counts["solves"] == 1634
    assert counts["lane_evals"] == 76932
    assert 0 < counts["curve_calls"] <= 2100
    assert legendre_counts["rounds"] - rounds == 42


def test_root_counts_equal_on_one_ladder_and_alone(golden, bernoulli_phi):
    # b_curve runs its lanes on one ladder, b_of_a runs one lane; both
    # solve each root with the same solver, so they count the same solves
    # and lane evaluations, and the shared ladder needs fewer curve calls.
    a_values, kw = [-1.0, -0.3, 0.5, 2.0], dict(tol=1e-8, max_level=12)

    def counted(solve) -> dict:
        before = dict(root_counts)
        solve()
        return {key: root_counts[key] - before[key] for key in before}

    def one_by_one():
        for a in a_values:
            try:
                b_of_a(golden, bernoulli_phi, a, **kw)
            except NotConverged:
                pass

    together = counted(lambda: b_curve(golden, bernoulli_phi, a_values, **kw))
    alone = counted(one_by_one)
    assert together["solves"] == alone["solves"] > len(a_values)
    assert together["lane_evals"] == alone["lane_evals"]
    assert together["curve_calls"] < alone["curve_calls"]


def test_shipped_spectrum_batches_log_sum_exp(tmp_path, monkeypatch):
    # The shipped spectrum config solves 1,680 b(a) lanes; evaluated one lane
    # per call that took 84,176 log_sum_exp calls, as arrays about 4,000.
    calls = []
    for name in ("pressure", "spectrum"):
        module = sys.modules[f"dimspectra.{name}"]
        original = module.log_sum_exp

        def counted(values, _original=original):
            calls.append(np.size(values))
            return _original(values)

        monkeypatch.setattr(module, "log_sum_exp", counted)
    config = CONFIG_DIR / "doubling_bernoulli_spectrum.yaml"
    assert main([str(config), "--set", f"output.csv={tmp_path / 's.csv'}"]) == 0
    assert 0 < len(calls) <= 6000
