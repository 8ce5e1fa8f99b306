from __future__ import annotations

import gc
import importlib
import math
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dimspectra import (
    Enclosure,
    NotConverged,
    bowen_root,
    doubling_map,
    farey_map,
    geometric,
    golden_mean_map,
    linear_full_branch_map,
    locally_constant,
    manneville_pomeau_map,
    normalize_potential,
    pressure,
    shared_table,
    words_at_level,
)
from dimspectra.maps import newton_counts
from dimspectra.numerics import lse_counts
from dimspectra.pressure import _Curves, _Rung, _ladder, _roots_in_b, gluing_length
from dimspectra.symbolic import SMALL_WORDS, CylinderTable, level_counts

from conftest import linear_markov_map
from root_oracle import _descend, _drive, hexed

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


def test_closed_form_pressure(doubling, two_slopes, golden, bernoulli_phi, uniform_phi):
    # A depth-1 table on a full shift: Z_n = Z_1**n, so log Z_1 is the
    # pressure the ladder finds.
    for m, phi in ((doubling, bernoulli_phi), (two_slopes, bernoulli_phi),
                   (two_slopes, locally_constant({(0,): math.log(0.7), (1,): math.log(0.2)}))):
        closed = phi.closed_form_pressure(m)
        assert abs(closed - pressure(m, phi, tol=1e-12).value) <= 1e-12
    deep = locally_constant({(a, b): -2 * LOG2 for a in (0, 1) for b in (0, 1)}, depth=2)
    assert uniform_phi.closed_form_pressure(golden) is None  # not a full shift
    assert deep.closed_form_pressure(doubling) is None
    assert geometric(-1.0).closed_form_pressure(doubling) is None


def test_golden_mean_entropy(golden, zero_phi):
    p = pressure(golden, zero_phi, tol=1e-9)
    assert p.value == pytest.approx(GOLDEN_ENTROPY, abs=1e-9)
    assert p.lower <= GOLDEN_ENTROPY <= p.upper
    assert p.level <= 24


def _bracket(m, phi, n):
    """The certified level-n pressure bracket of phi."""
    table = shared_table(m, phi)
    level = _Curves(table.level(n), gluing_length(m), table)
    return level.lower(0.0, 1.0), level.upper(0.0, 1.0)


def test_pressure_bracket_contains_truth(golden, zero_phi):
    widths = []
    for n in (2, 4, 6, 8):
        lower, upper = _bracket(golden, zero_phi, n)
        assert lower <= GOLDEN_ENTROPY <= upper
        widths.append(upper - lower)
    assert widths == sorted(widths, reverse=True)


def test_not_converged_carries_enclosure(golden, zero_phi):
    with pytest.raises(NotConverged) as err:
        pressure(golden, zero_phi, tol=1e-13, max_level=4)
    enc = err.value.enclosure
    assert enc.lower <= GOLDEN_ENTROPY <= enc.upper
    assert (enc.value, enc.level, enc.mode) == (0.5 * (enc.lower + enc.upper), 4, "enclosure")


def test_normalize_potential(golden, zero_phi):
    norm = normalize_potential(golden, zero_phi)
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
    assert math.isfinite(root.upper)


def test_bowen_root_golden_mean(golden):
    # One gluing symbol (k = 1) keeps the lower curve below the upper one,
    # so the bracket stays open and the ratio root carries the value.
    truth = GOLDEN_ENTROPY / LOG2
    root = bowen_root(golden)
    assert root.lower <= truth <= root.upper
    assert root.lower < root.upper
    assert abs(root.value - truth) <= 1e-6
    assert math.isfinite(root.upper)


def test_bowen_root_doubling(doubling):
    root = bowen_root(doubling)
    assert root.value == pytest.approx(1.0, abs=1e-12)
    assert root.lower == pytest.approx(1.0, abs=1e-12)
    assert root.upper == pytest.approx(1.0, abs=1e-12)


def test_bowen_root_parabolic(farey, mp):
    for m in (farey, mp):
        root = bowen_root(m)
        assert m.has_parabolic
        assert root.upper == math.inf
        assert root.value == pytest.approx(1.0, abs=1e-6)


def _transfer_matrix_pressure(m, phi):
    """log of the spectral radius of the transfer matrix on (d-1)-words
    (symbols when d = 1): entry (u, w[1:]) = exp(phi(w)) for every
    admissible word w = u + (j,), phi reading its first d symbols."""
    d = phi.depth
    table = phi.table_dict()
    states = list(words_at_level(m, max(d - 1, 1)))
    index = {u: k for k, u in enumerate(states)}
    M = np.zeros((len(states), len(states)))
    for u in states:
        for j in range(m.p):
            w = u + (j,)
            if m.admissible(w):
                M[index[u], index[w[1:]]] += math.exp(table[w[:d]])
    return math.log(float(np.max(np.abs(np.linalg.eigvals(M)))))


def _enclosure(m, phi, **kw):
    try:
        p = pressure(m, phi, **kw)
        return p.lower, p.upper
    except NotConverged as exc:
        return exc.enclosure.lower, exc.enclosure.upper


def _encloses(lo, hi, truth):
    slack = 1e-12 * max(1.0, abs(truth))
    return lo - slack <= truth <= hi + slack


DEPTH3_DOUBLING = {
    "000": -1.0, "001": -0.8, "010": -1.0, "011": -0.8,
    "100": -1.3, "101": -1.1, "110": -1.3, "111": -1.1,
}


def test_depth3_pressure_encloses_transfer_matrix_value(doubling):
    phi = locally_constant({tuple(map(int, w)): v for w, v in DEPTH3_DOUBLING.items()})
    truth = _transfer_matrix_pressure(doubling, phi)
    assert truth == pytest.approx(-0.355603, abs=1e-6)
    lo, hi = _enclosure(doubling, phi)
    assert lo <= hi
    assert _encloses(lo, hi, truth)


ORACLE_MAPS = {
    "doubling": doubling_map(),
    "golden": golden_mean_map(),
    "three_branch": linear_full_branch_map([3.0, 4.0, 2.5]),
    "markov": linear_markov_map(),
}


@st.composite
def locally_constant_cases(draw):
    name = draw(st.sampled_from(sorted(ORACLE_MAPS)))
    m = ORACLE_MAPS[name]
    depth = draw(st.integers(1, 4))
    words = list(words_at_level(m, depth))
    values = draw(st.lists(
        st.floats(-3.0, 1.0), min_size=len(words), max_size=len(words)
    ))
    return m, locally_constant(dict(zip(words, values)), depth)


@settings(max_examples=120, deadline=None)
@given(locally_constant_cases())
def test_pressure_encloses_transfer_matrix_value(case):
    m, phi = case
    truth = _transfer_matrix_pressure(m, phi)
    lo, hi = _enclosure(m, phi, tol=1e-6, max_level=8)
    assert _encloses(lo, hi, truth)


PRESSURE = importlib.import_module("dimspectra.pressure")
ZERO = locally_constant({(0,): 0.0, (1,): 0.0})
BERNOULLI = locally_constant({(0,): math.log(0.25), (1,): math.log(0.75)})
# (map, phi, pressure arguments).  The MP and Farey pressure ladders climb
# past SMALL_WORDS words, where the one-climb table keeps only the level in
# hand and the ends of the one before.
ONE_CLIMB_CASES = {
    # The parabolic workload's command at seed 0: a ratio stop at level 19.
    "mp": (lambda: manneville_pomeau_map(0.5), geometric(-0.7), {"tol": 1e-6, "max_level": 22}),
    # configs/golden_mean_pressure.yaml: k = 1, so the floor reads level 1
    # on every rung.
    "golden": (golden_mean_map, ZERO, {"tol": 1e-9, "max_level": 26}),
    "farey": (farey_map, geometric(-0.5), {"tol": 1e-8, "max_level": 15}),
    "doubling": (doubling_map, BERNOULLI, {}),
}


def _hexed(solve):
    """A solve's record with floats by float.hex, or its NotConverged
    message and enclosure record the same way."""
    try:
        return hexed(solve())
    except NotConverged as exc:
        return str(exc), hexed(exc.enclosure)


@pytest.mark.parametrize("name", sorted(ONE_CLIMB_CASES))
def test_one_climb_table_gives_shared_table_bits(name, monkeypatch):
    # pressure() and bowen_root() build on a table of their own that drops
    # each level past SMALL_WORDS once the next is built (bowen_root's
    # ratio curve, which the golden mean map's Bowen ladder reads to level
    # 17, takes level n-1 from the rung before); on the map's shared table
    # every level up to cache_words stays.  Same bits, and no level is
    # built twice.
    build, phi, kw = ONE_CLIMB_CASES[name]
    builds = Counter()
    extend = CylinderTable._extend

    def counted(self, prev):
        out = extend(self, prev)
        builds[self, out.n] += 1  # the table itself: a freed one's id recurs
        return out

    def solve():
        m = build()
        return (
            _hexed(lambda: pressure(m, phi, **kw)),
            _hexed(lambda: bowen_root(m, tol=1e-15, max_level=17)),
        ), m

    monkeypatch.setattr(CylinderTable, "_extend", counted)
    got, m = solve()
    assert not m._table_cache
    assert max(builds.values()) == 1
    monkeypatch.setattr(PRESSURE, "CylinderTable", lambda m, phi, **_: shared_table(m, phi))
    want, m = solve()
    assert set(m._table_cache) == {phi, None}
    assert got == want


def test_one_climb_leaves_no_large_level(monkeypatch):
    # Once pressure() or normalize_potential() returns, no level past
    # SMALL_WORDS is alive: the ladder's own table went with it, and the
    # map's shared tables hold no level of phi.
    built = []
    extend = CylinderTable._extend

    def tracked(self, prev):
        out = extend(self, prev)
        built.append((out.count, weakref.ref(out.lo)))
        return out

    monkeypatch.setattr(CylinderTable, "_extend", tracked)
    m, phi = manneville_pomeau_map(0.5), geometric(-0.7)
    assert pressure(m, phi, tol=1e-4, max_level=16).level == 11
    normalize_potential(m, phi, tol=1e-4, max_level=16)
    gc.collect()
    assert max(count for count, _ in built) > SMALL_WORDS
    assert all(ref() is None for count, ref in built if count > SMALL_WORDS)
    assert not m._table_cache


def test_mp_pressure_live_peak():
    # The parabolic workload's seed-0 command climbs to level 19 (2^19
    # words), without psi columns (pressure reads phi alone).  Its peak,
    # about 26.7 MiB traced, falls inside a Newton branch's row blocks: the
    # level in hand (17.0 MiB: lo, hi, phi_lo, phi_hi, first, last), the
    # level it extends (8.5 MiB), and about 1 MiB besides: levels 1-10, the
    # flags of first and last children, one block's temporaries (0.6 MiB).
    # No parent ends are kept and no temporary is level-sized.
    m = manneville_pomeau_map(0.5)
    tracemalloc.start()
    try:
        p = pressure(m, geometric(-0.7), tol=1e-6, max_level=22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.level == 19
    assert peak <= 27.5 * 2**20


def test_mp_pressure_counts_repeat():
    # The library's counters over the same climb: levels 1-19 (2^20 - 2
    # words, each with its ends: a Newton branch's log|T'| reads them),
    # 524,296 endpoints through the Newton inverse (a quarter of the
    # 2,097,144 ends built; the rest repeat ends in hand), and the same
    # counts, sweeps and log_sum_exp work included, on a second run.  The
    # climb makes no `word_rows` call.
    def climb():
        m = manneville_pomeau_map(0.5)  # built before counting
        counters = (level_counts, newton_counts, lse_counts)
        before = [dict(c) for c in counters]
        assert pressure(m, geometric(-0.7), tol=1e-6, max_level=22).level == 19
        return [{key: c[key] - b[key] for key in c} for c, b in zip(counters, before)]

    first = climb()
    assert climb() == first
    levels, newton, lse = first
    assert levels == {
        "levels": 19, "words": 2**20 - 2, "end_rows": 2**20 - 2, "inverse_points": 524_296,
        "sparse_calls": 0, "sparse_rows": 0,
    }
    assert newton["point_sweeps"] > 524_296
    assert lse["calls"] > 0 and lse["entries"] >= 2**19


def test_ladders_without_a_rung_raise_open_enclosure(doubling, bernoulli_phi):
    # pressure starts at level 1 and bowen_root at level 2: no rung runs.
    for solve in (
        lambda: pressure(doubling, bernoulli_phi, max_level=0),
        lambda: bowen_root(doubling, max_level=1),
    ):
        with pytest.raises(NotConverged, match="last accelerated value nan") as err:
            solve()
        assert err.value.enclosure.lower == -math.inf
        assert err.value.enclosure.upper == math.inf
        assert err.value.enclosure.mode == "enclosure"


@pytest.mark.parametrize("estimate, value", [(5.0, 1.0), (-5.0, 0.0)])
def test_ladder_clamps_the_estimate_into_the_bracket(estimate, value):
    # The bracket [0, 1] never closes and the estimate outside it never
    # moves, so the ratio stop fires at level 2 with the clamped estimate.
    def rung(_n, _last):
        def const(x):
            return lambda live: (np.full(live.size, x), None)

        return _Rung(const(0.0), const(1.0), const(estimate))

    (out,) = _ladder(rung, ["clamped"], 1, 10, tol=1e-3)
    assert out == Enclosure(value, 0.0, 1.0, 2, "ratio")


@pytest.mark.parametrize("curve", ["lower", "upper", "ratio"])
@pytest.mark.parametrize("name, phi_name, n", [
    ("golden", "bernoulli_phi", 6),  # one gluing symbol: the floor's a-term too
    ("mp", "uniform_phi", 8),  # psi brackets that differ: a side per sign of a
    ("doubling", "bernoulli_phi", 13),  # 8 lanes x 8,192 words: past one chunk
])
def test_root_request_equals_scalar_lane(request, name, phi_name, n, curve):
    # One root step solves every lane with its a-terms formed once per
    # solve (or per chunk of lanes where they do not fit one); each lane
    # equals the scalar descending-root lane on the scalar curve at its a,
    # bit for bit.
    m, phi = request.getfixturevalue(name), request.getfixturevalue(phi_name)
    table = CylinderTable(m, phi)
    fn = getattr(_Curves(table.level(n), gluing_length(m), table), curve)
    a_values = [-1.5, -1.0, -0.3, 0.0, 0.5, 1.0, 2.0, 3.5]
    starts = [0.0, 0.0, 1.0, -2.0, 0.25, 3.0, 0.0, 1.0]
    found, failed = _roots_in_b(fn, np.array(a_values), np.array(starts), step=1.0, xtol=1e-13)
    assert not failed.any()
    for a, start, got in zip(a_values, starts, found):
        want = _drive(_descend(start, xtol=1e-13), lambda b: fn(a, b))
        assert got.hex() == float(want).hex(), a
