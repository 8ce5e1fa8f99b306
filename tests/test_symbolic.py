from __future__ import annotations

import gc
import itertools
import math
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dimspectra import maps
from dimspectra import (
    Branch,
    CylinderTable,
    InadmissibleSupport,
    PointOutsideCylinder,
    Potential,
    build_map,
    doubling_map,
    exact_model,
    farey_map,
    geometric,
    golden_mean_map,
    linear_full_branch_map,
    local_dimension,
    locally_constant,
    manneville_pomeau_map,
    normalize_potential,
    potential_sup,
    pressure,
    shared_table,
    validate_potential,
    word_rows,
    words_at_level,
)
from dimspectra.errors import LevelTooLarge
from dimspectra.numerics import log_sum_exp
from dimspectra.symbolic import SMALL_WORDS, LevelArrays, level_counts, ratio_bracket
from dimspectra import weak_gibbs
from cylinder_oracle import Cylinder, cylinder, cylinders
from root_oracle import _four_end_ratio

LOG2 = math.log(2.0)


def test_locally_constant_validation():
    with pytest.raises(ValueError, match="depth"):
        locally_constant({(0, 1): 0.0, (1,): 1.0})
    with pytest.raises(ValueError):
        locally_constant({}, depth=1)


def _old_ratio_bracket(num_lo, num_hi, den_lo, den_hi):
    """The two-end rule block measures used before the four-end one."""
    if den_lo <= 0.0:
        return (num_lo / den_hi if den_hi > 0 else math.inf, math.inf)
    return (num_lo / den_hi, num_hi / den_lo)


_ENDS = st.floats(-1e6, 1e6, allow_subnormal=False)
_DENS = st.one_of(st.just(0.0), st.floats(0.0, 1e6, allow_subnormal=False))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_ENDS, _ENDS, _DENS, _DENS), min_size=1, max_size=8),
    st.booleans(),
)
# A negative num: the old rule gave (-1, -1) here, not (-2, -0.5).
@example(rows=[(-2.0, -1.0, 1.0, 2.0)], nonnegative=False)
# A zero den: -1/0 falls to -inf (it once read 0.0), 0/0 reads 0.0.
@example(rows=[(-1.0, 2.0, 0.0, 1.0), (0.0, 0.0, 0.0, 0.0)], nonnegative=False)
def test_ratio_bracket_is_the_four_end_range(rows, nonnegative):
    rows = [
        (*sorted(abs(x) if nonnegative else x for x in (a, b)), *sorted((c, d)))
        for a, b, c, d in rows
    ]
    lo, hi = ratio_bracket(*(np.array(col) for col in zip(*rows)))
    for i, row in enumerate(rows):
        want = _four_end_ratio(*row)
        assert ratio_bracket(*row) == want
        assert (lo[i], hi[i]) == want
        # Where num >= 0 the four ends reduce to the old two-end rule, bit
        # for bit, except where an end is 0/0, which it could read as +inf.
        if nonnegative and not (row[0] == 0.0 and row[2] == 0.0):
            assert [x.hex() for x in want] == [x.hex() for x in _old_ratio_bracket(*row)]


def test_validate_potential_missing_word(golden):
    with pytest.raises(InadmissibleSupport):
        validate_potential(golden, locally_constant({(0,): 0.0}))


def test_validate_pointwise_count(doubling):
    with pytest.raises(ValueError):
        validate_potential(doubling, Potential(kind="pointwise", funcs=(np.negative,)))


def test_words_at_level_order_and_admissibility(golden):
    words = list(words_at_level(golden, 3))
    assert words == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1)]
    assert all(golden.admissible(w) for w in words)


def test_words_at_level_budget(doubling):
    # 2^27 words pass WORD_BUDGET = 2^26; next() keeps a missing check cheap.
    with pytest.raises(LevelTooLarge):
        next(words_at_level(doubling, 27))


def test_cylinder_table_budget_before_building(doubling, monkeypatch):
    table = CylinderTable(doubling)

    def build(*_):
        raise AssertionError("a level over the budget started building")

    monkeypatch.setattr(table, "_base_level", build)
    monkeypatch.setattr(table, "_extend", build)
    with pytest.raises(LevelTooLarge):
        table.level(27)


def _one(m, word, phi=None, terminal=None):
    """`word_rows` of one word: (interval, psi bracket, phi bracket)."""
    lo, hi, psi_lo, psi_hi, phi_lo, phi_hi = word_rows(m, [word], phi, terminal=terminal)
    phi_bracket = None if phi_lo is None else (phi_lo[0], phi_hi[0])
    return (lo[0], hi[0]), (psi_lo[0], psi_hi[0]), phi_bracket


def test_cylinder_dyadic_exact(doubling, bernoulli_phi):
    interval, psi, phi = _one(doubling, (0, 1, 1), bernoulli_phi)
    assert interval == (0.375, 0.5)
    # constant log-derivative and depth-1 potential: degenerate brackets
    assert psi == pytest.approx((3 * LOG2, 3 * LOG2), abs=1e-14)
    truth = math.log(9.0 / 64.0)
    assert phi == pytest.approx((truth, truth), abs=1e-14)


def test_cylinder_terminal_restriction(doubling):
    interval, _, phi = _one(doubling, (0,), terminal=(0.5, 1.0))
    assert interval == pytest.approx((0.25, 0.5), abs=1e-15)
    assert phi is None


def test_cylinder_nesting(doubling, bernoulli_phi):
    (outer_lo, outer_hi), (inner_lo, inner_hi) = zip(
        *word_rows(doubling, [(0, 1), (0, 1, 1)], bernoulli_phi)[:2]
    )
    assert outer_lo <= inner_lo
    assert inner_hi <= outer_hi


def test_cylinder_lives_on_core(golden):
    # from symbol 1 only 0 is allowed, so (1,) and (1, 0) span the same set
    one, one_zero = (_one(golden, w)[0] for w in ((1,), (1, 0)))
    assert one == pytest.approx(one_zero, abs=1e-12)
    assert one[1] == pytest.approx(2.0 / 3.0, abs=1e-9)


def _assert_oracle_bits(got, want):
    """`word_rows` columns equal the scalar oracle's, bit for bit."""
    for g, w in zip(got, Cylinder.columns(want)):
        assert (g is None) == (w is None)
        if g is not None:
            assert g.tobytes() == w.tobytes()


def test_cylinders_share_suffixes_without_changing_bits(golden, bernoulli_phi):
    words = [(0, 1, 0), (1, 0), (0, 0, 1, 0), (1, 0, 1, 0), (0,), (1, 0)]
    _assert_oracle_bits(word_rows(golden, words, bernoulli_phi), cylinders(golden, words, bernoulli_phi))
    _assert_oracle_bits(
        word_rows(golden, words, bernoulli_phi),
        [cylinder(golden, w, bernoulli_phi) for w in words],
    )
    with pytest.raises(ValueError):
        word_rows(golden, [(0, 1), (1, 1)], bernoulli_phi)


def test_cylinders_resume_keeps_bits(farey, bernoulli_phi):
    # Farey's return words (1, 0^j) share the suffix 0^(j-1) with the word
    # before them; a shuffled list with repeats shares less.  Either way a
    # word's data are those of the word stepped alone, bit for bit.
    base = farey.core_spans[1]
    words = [(1,) + (0,) * j for j in range(60)]
    order = [words[k] for k in np.random.default_rng(0).permutation(60)] + words[::7]
    for batch in (words, order):
        _assert_oracle_bits(
            word_rows(farey, batch, bernoulli_phi, terminal=base),
            [cylinder(farey, w, bernoulli_phi, terminal=base) for w in batch],
        )


def test_level_arrays_contents(doubling, bernoulli_phi):
    table = shared_table(doubling, bernoulli_phi)
    arr, (lo, hi) = table.level(3), table.ends(3)
    assert arr.count == 8
    assert arr.lo is None and arr.hi is None  # linear branches: ends on demand
    assert np.allclose(hi - lo, 0.125)
    assert np.allclose(arr.psi_lo, 3 * LOG2)
    assert np.allclose(arr.psi_hi, 3 * LOG2)
    # lexicographic rows: word k occupies [k/8, (k+1)/8]
    assert np.allclose(lo, np.arange(8) / 8.0)
    ones = np.array([bin(k).count("1") for k in range(8)])
    assert np.allclose(
        arr.phi_lo, (3 - ones) * math.log(0.25) + ones * math.log(0.75)
    )


def test_combined_sign_handling(doubling, bernoulli_phi):
    arr = shared_table(doubling, bernoulli_phi).level(3)
    a, b = np.array([-1.2]), np.array([0.7])
    (f_lo,), (f_hi,) = arr.combined_side(a, b, 0), arr.combined_side(a, b, 1)
    assert np.allclose(f_lo, -1.2 * arr.psi_hi + 0.7 * arr.phi_lo)
    assert np.allclose(f_hi, -1.2 * arr.psi_lo + 0.7 * arr.phi_hi)
    assert np.all(f_lo <= f_hi + 1e-15)


def test_combined_needs_phi(doubling):
    arr = shared_table(doubling, None).level(2)
    with pytest.raises(ValueError):
        arr.combined_side(np.array([1.0]), np.array([0.5]), 0)


def test_shared_table_is_cached(doubling, bernoulli_phi, uniform_phi):
    assert shared_table(doubling, bernoulli_phi) is shared_table(
        doubling, bernoulli_phi
    )
    assert shared_table(doubling, bernoulli_phi) is not shared_table(
        doubling, uniform_phi
    )


def test_boundary_ratio(doubling, monkeypatch):
    # local_dimension's check, on the prefixes (0, 1), (0, 1, 0), (0, 1, 0, 0)
    # = [1/4, 1/2], [1/4, 3/8], [1/4, 5/16]: the deepest midpoint 9/32 sits
    # 1/32 above every lower edge, 1/8 of the widest diameter.
    model = exact_model(doubling, locally_constant({(0,): -LOG2, (1,): -LOG2}))
    assert local_dimension(model, doubling, (0, 1, 0, 0)).boundary_min == 0.125

    def moved(*args):  # the deepest cylinder moved out of the others
        lo, hi, *sums = word_rows(*args)
        lo[-1], hi[-1] = 0.6, 0.7
        return lo, hi, *sums

    monkeypatch.setattr(weak_gibbs, "word_rows", moved)
    with pytest.raises(PointOutsideCylinder, match=r"outside cylinder of \(0, 1\)$"):
        local_dimension(model, doubling, (0, 1, 0, 0))


def test_distortion_parabolic(mp, uniform_phi):
    # Bracket widths of the level-6 Birkhoff sums.
    arr = shared_table(mp, uniform_phi).level(6)
    assert np.max(arr.psi_hi - arr.psi_lo) > 0.0  # nonlinear branches distort
    assert np.array_equal(arr.phi_lo, arr.phi_hi)  # depth-1 locally constant is exact


def test_distortion_zero_for_linear(doubling, bernoulli_phi):
    arr = shared_table(doubling, bernoulli_phi).level(5)
    assert np.max(arr.psi_hi - arr.psi_lo) == pytest.approx(0.0, abs=1e-13)
    assert np.max(arr.phi_hi - arr.phi_lo) == pytest.approx(0.0, abs=1e-13)


def _random_table(m, depth, seed):
    """A locally constant potential with seeded values on every admissible
    depth-word."""
    rng = np.random.default_rng(seed)
    return locally_constant(
        {w: float(rng.uniform(-2.0, 0.5)) for w in words_at_level(m, depth)}, depth
    )


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_level_n_holds_n_words_at_every_depth(doubling, golden, depth, n):
    for m in (doubling, golden):
        arr = CylinderTable(m, _random_table(m, depth, seed=depth)).level(n)
        assert arr.n == n
        assert arr.count == m.word_count(n)


def _potentials(m):
    yield None
    yield geometric(-0.7)
    # increasing on one branch, decreasing on the other
    yield Potential(kind="pointwise", funcs=(np.square, np.negative))
    for depth in (1, 2, 3, 4):
        yield _random_table(m, depth, seed=10 + depth)


def _with_ends(table, n):
    """Level n of a table with its cylinder ends from `ends(n)`: a level
    that holds none (linear branches, phi not pointwise, n >= 2) then
    compares column by column with one that does."""
    arr = table.level(n)
    linear = all(br.family == "linear" for br in table.map.branches)
    pointwise = table.phi is not None and table.phi.kind == "pointwise"
    assert (arr.lo is None) == (n > 1 and linear and not pointwise), n
    lo, hi = table.ends(n)
    return replace(arr, lo=lo, hi=hi)


@pytest.mark.parametrize("name", ["doubling", "golden", "farey", "mp"])
def test_table_rows_equal_scalar_cylinders_bit_for_bit(request, name):
    # The scalar oracle steps each word alone; Farey's rows are compared to
    # level 10.  Ends come from `ends(n)`, the level's own or a geometry-only
    # climb.
    m = request.getfixturevalue(name)
    for phi in _potentials(m):
        table = CylinderTable(m, phi)
        for n in range(1, 11 if name == "farey" else 7):
            arr = _with_ends(table, n)
            cyls = cylinders(m, words_at_level(m, n), phi)
            assert [c.word[0] for c in cyls] == arr.first.tolist()
            assert [c.word[-1] for c in cyls] == arr.last.tolist()
            columns = {
                "lo": [c.interval[0] for c in cyls],
                "hi": [c.interval[1] for c in cyls],
                "psi_lo": [c.birkhoff_psi[0] for c in cyls],
                "psi_hi": [c.birkhoff_psi[1] for c in cyls],
            }
            if phi is not None:
                columns["phi_lo"] = [c.birkhoff_phi[0] for c in cyls]
                columns["phi_hi"] = [c.birkhoff_phi[1] for c in cyls]
            for key, scalar in columns.items():
                assert np.array(scalar).tobytes() == getattr(arr, key).tobytes(), (phi, n, key)


ENDS_MAPS = {
    "doubling": lambda request: request.getfixturevalue("doubling"),
    "golden": lambda request: request.getfixturevalue("golden"),
    "markov": lambda request: request.getfixturevalue("markov"),
    "negative_slope": lambda request: linear_full_branch_map([2.0, -2.5]),
    "two_slopes": lambda request: request.getfixturevalue("two_slopes"),
}


@pytest.mark.parametrize("name", sorted(ENDS_MAPS))
def test_ends_equal_scalar_cylinders_bit_for_bit(request, name):
    # Linear branches: levels 2 on hold no ends, and `ends` climbs a table
    # of ends alone, whose rows are the scalar path's intervals bit for bit.
    m = ENDS_MAPS[name](request)
    table = CylinderTable(m, geometric(-0.7))
    for n in range(1, 11):
        arr, cyls = _with_ends(table, n), cylinders(m, words_at_level(m, n))
        assert np.array([c.interval[0] for c in cyls]).tobytes() == arr.lo.tobytes(), n
        assert np.array([c.interval[1] for c in cyls]).tobytes() == arr.hi.tobytes(), n


_SPARSE_MAPS = {
    "doubling": doubling_map(),
    "farey": farey_map(),
    "golden": golden_mean_map(),
    "mp": manneville_pomeau_map(0.5),
}


def _admissible(m, raw):
    """The word raw with each symbol its successor's forbids flipped (two
    symbols, each with some successor)."""
    word = [raw[0]]
    for s in raw[1:]:
        word.append(s if m.transition[word[-1], s] else 1 - s)
    return tuple(word)


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(_SPARSE_MAPS)),
    kind=st.sampled_from(["none", "depth1", "depth2", "geometric", "pointwise"]),
    terminal=st.booleans(),
    raw=st.lists(st.lists(st.integers(0, 1), min_size=1, max_size=12), min_size=1, max_size=12),
    repeats=st.lists(st.integers(0, 11), max_size=6),
)
def test_word_rows_equal_the_scalar_oracle_bit_for_bit(name, kind, terminal, raw, repeats):
    # Unsorted word lists of lengths 1-12, with repeats and (on two
    # symbols) shared suffixes: every column `word_rows` gives is the scalar
    # trie's, bit for bit.  Every last symbol admits 0, so symbol 0's core
    # span serves as the terminal.
    m = _SPARSE_MAPS[name]
    phi = {
        "none": None,
        "depth1": _random_table(m, 1, seed=21),
        "depth2": _random_table(m, 2, seed=22),
        "geometric": geometric(-0.7),
        "pointwise": Potential(kind="pointwise", funcs=(np.square, np.negative)),
    }[kind]
    words = [_admissible(m, w) for w in raw]
    words += [words[k % len(words)] for k in repeats]
    base = m.core_spans[0] if terminal else None
    _assert_oracle_bits(
        word_rows(m, words, phi, terminal=base), cylinders(m, words, phi, terminal=base)
    )


def _masked_power_map():
    """A Newton branch whose image [0, 3/8] leaves out domain 2, so the
    table prepends 0 to a masked set of rows (0.25 + 0.25**1.5 = 0.375)."""
    return build_map([
        Branch("power", (0.0, 0.25), (0.0, 0.375), s=0.5, c=1.0),
        Branch("linear", (0.25, 0.375), (0.375, 1.0), slope=5.0, offset=-0.875),
        Branch("linear", (0.375, 1.0), (0.0, 1.0), slope=1.6, offset=-0.6),
    ])


def _reversed_tail_map():
    """MP(0.5)'s power branch on [0, split] beside a decreasing linear
    branch on [split, 1]: a full shift with a Newton branch whose words'
    first children do not start at their lo, so its table does not nest."""
    split = manneville_pomeau_map(0.5).branches[0].domain[1]
    return build_map([
        Branch("power", (0.0, split), (0.0, 1.0), s=0.5, c=1.0),
        Branch("linear", (split, 1.0), (0.0, 1.0), slope=-1.0 / (1.0 - split),
               offset=1.0 / (1.0 - split)),
    ])


ORACLE_MAPS = {
    "mp": lambda request: request.getfixturevalue("mp"),
    "mp_1": lambda request: manneville_pomeau_map(1.0),
    "farey": lambda request: request.getfixturevalue("farey"),
    "golden": lambda request: request.getfixturevalue("golden"),
    "doubling": lambda request: request.getfixturevalue("doubling"),
    "negative_slope": lambda request: linear_full_branch_map([2.0, -2.5]),
    "markov": lambda request: request.getfixturevalue("markov"),
    "masked_power": lambda request: _masked_power_map(),
    "reversed_tail": lambda request: _reversed_tail_map(),
}


def _reference_level(table, prev):
    """Level n+1 by the cylinder step with every endpoint inverted: per
    symbol, Branch.inverse on the masked prev.lo and prev.hi in full."""
    m = table.map
    parts = []
    for i, br in enumerate(m.branches):
        mask = m.transition[i, prev.first].astype(bool)
        if not mask.any():
            continue
        a, b = br.inverse(prev.lo[mask]), br.inverse(prev.hi[mask])
        rest = (prev.psi_lo, prev.psi_hi, prev.phi_lo, prev.phi_hi, prev.prefix_code)
        data = ((a, b) if br.increasing else (b, a)) + tuple(
            None if col is None else col[mask] for col in rest
        )
        new = table._step(i, data, prev.n, pull=False)
        parts.append((*new, np.full(a.size, i, dtype=np.int8), prev.last[mask]))
    return LevelArrays(prev.n + 1, *(
        None if col[0] is None else np.concatenate(col) for col in zip(*parts)
    ))


@pytest.mark.parametrize("cache_words", [1 << 18, 64])
@pytest.mark.parametrize("name", sorted(ORACLE_MAPS))
def test_table_levels_equal_full_inversion_bit_for_bit(request, name, cache_words):
    # The table inverts each endpoint once, reusing the images of shared and
    # previous-level inputs; the reference inverts every endpoint.  Above
    # cache_words the previous level keeps only the columns that reuse reads.
    # A level without ends (linear maps) is compared with `ends(n)`'s.
    m = ORACLE_MAPS[name](request)
    for phi in (geometric(-0.7), _random_table(m, 2, seed=3)):
        table = CylinderTable(m, phi, cache_words=cache_words)
        prev = _with_ends(table, 1)
        for n in range(2, 15):
            arr, ref = _with_ends(table, n), _reference_level(table, prev)
            for f in fields(LevelArrays)[1:]:
                got, want = getattr(arr, f.name), getattr(ref, f.name)
                assert (got is None) == (want is None), (phi, n, f.name)
                if got is not None:
                    assert got.tobytes() == want.tobytes(), (phi, n, f.name)
            prev = arr


def test_nested_is_read_off_level_2():
    # MP maps nest: every first child's lo and last child's hi repeat the
    # parent's bits.  A decreasing branch, or a branch whose image leaves a
    # symbol out (not a full shift), leaves the table on the no-parent path.
    for s in (0.05, 0.25, 0.5, 1.0, 2.0, 3.0):
        table = CylinderTable(manneville_pomeau_map(s), geometric(-0.7))
        assert table._nested is False  # until level 2 is built
        table.level(2)
        assert table._nested is True, s
    for m in (_reversed_tail_map(), _masked_power_map()):
        table = CylinderTable(m, geometric(-0.7))
        table.level(6)
        assert table._nested is False


def test_row_blocks_equal_full_inversion_bit_for_bit(mp):
    # Level 17 takes four row blocks per branch (2^16 rows, 16,384 a block):
    # the links and the row of log|T'| that cross a block's edge, and the
    # parents' ends, give the bits of inverting every end, at a quarter of
    # the inversions (2^16 of 2^18 ends).
    table = CylinderTable(mp, geometric(-0.7), psi=False)
    prev = table.level(16)
    before = level_counts["inverse_points"]
    arr = table.level(17)
    assert level_counts["inverse_points"] - before == 2**16
    # Without the parents' ends only the links save inversions: every hi,
    # and the lo of each row whose lo is not the hi above, block edges
    # included.
    table._nested = False
    before = level_counts["inverse_points"]
    bare = table._extend(prev)
    unlinked = 1 + np.count_nonzero(prev.lo[1:].view(np.int64) != prev.hi[:-1].view(np.int64))
    assert level_counts["inverse_points"] - before == mp.p * (prev.count + unlinked)
    ref = _reference_level(table, prev)
    for f in fields(LevelArrays)[1:]:
        want = getattr(ref, f.name)
        assert (getattr(arr, f.name) is None) == (want is None), f.name
        if want is not None:
            for got in (arr, bare):
                assert getattr(got, f.name).tobytes() == want.tobytes(), f.name


def test_reuse_needs_identical_input_bits(mp):
    # Move every end of a level one ulp inward: no input then repeats an
    # earlier one, so the links may reuse none.  No table builds such a
    # level, whose children no longer start at their parent's lo, so the
    # parents' ends are switched off (`_nested`) and the links alone are
    # checked.
    table = CylinderTable(mp, geometric(-0.7))
    prev = table.level(6)
    table._nested = False
    moved = replace(prev, lo=np.nextafter(prev.lo, 1.0), hi=np.nextafter(prev.hi, 0.0))
    before = level_counts["inverse_points"]
    got = table._extend(moved)
    assert level_counts["inverse_points"] - before == 2 * mp.p * moved.count
    want = _reference_level(table, moved)
    for f in fields(LevelArrays)[1:]:
        if getattr(want, f.name) is not None:
            assert getattr(got, f.name).tobytes() == getattr(want, f.name).tobytes(), f.name


def test_parabolic_table_inverts_each_endpoint_once(mp, monkeypatch):
    # MP(0.5) to level 19 passes 2,097,144 endpoints through the inverse
    # when every endpoint is inverted; 524,296 of them are new.
    points = []
    inverse = Branch.inverse

    def counted(self, y, **kw):
        points.append(np.size(y))
        return inverse(self, y, **kw)

    monkeypatch.setattr(Branch, "inverse", counted)
    CylinderTable(mp, geometric(-0.7)).level(19)
    assert sum(points) <= 600_000


def test_levels_over_cache_words_keep_previous_level_reuse(mp, monkeypatch):
    # With cache_words = 4096 = 2^12, levels 13 on are dropped as the next
    # large one is stored.  Levels 15 and 16 are built while their
    # grandparent is such a dropped level; the parents' ends, rows of the
    # level in hand, still let each level invert a quarter of its endpoints
    # (half without them: 32,776 and 65,544), and every column equals that
    # of a table that caches them all.
    points = []
    inverse = Branch.inverse

    def counted(self, y, **kw):
        points.append(np.size(y))
        return inverse(self, y, **kw)

    table = CylinderTable(mp, geometric(-0.7), cache_words=4096)
    table.level(14)
    monkeypatch.setattr(Branch, "inverse", counted)
    built = {}
    for n, expected in ((15, 16_384), (16, 32_768)):
        points.clear()
        built[n] = table.level(n)
        assert sum(points) == expected, n
    monkeypatch.undo()
    full = CylinderTable(mp, geometric(-0.7), cache_words=1 << 18)
    for n, arr in built.items():
        ref = full.level(n)
        for f in fields(LevelArrays)[1:]:
            got, want = getattr(arr, f.name), getattr(ref, f.name)
            assert (got is None) == (want is None), (n, f.name)
            if got is not None:
                assert got.tobytes() == want.tobytes(), (n, f.name)


def test_levels_on_the_way_past_small_words_are_not_kept(mp, monkeypatch):
    # A level built only as the input of a deeper one is kept while it has
    # at most SMALL_WORDS = 2^10 words (levels 1-10 here).  Each build reads
    # its parents' ends off the level it extends, so level 14 inverts as
    # many points as when every level is asked for, and has the same bits.
    points = []
    inverse = Branch.inverse

    def counted(self, y, **kw):
        points.append(np.size(y))
        return inverse(self, y, **kw)

    monkeypatch.setattr(Branch, "inverse", counted)
    table = CylinderTable(mp, geometric(-0.7))
    arr = table.level(14)
    assert sorted(table._levels) == list(range(1, 11)) + [14]
    jumped = sum(points)
    points.clear()
    full = CylinderTable(mp, geometric(-0.7))
    ref = [full.level(n) for n in range(1, 15)][-1]
    assert sorted(full._levels) == list(range(1, 15))
    assert sum(points) == jumped
    for f in fields(LevelArrays)[1:]:
        got, want = getattr(arr, f.name), getattr(ref, f.name)
        assert (got is None) == (want is None), f.name
        if got is not None:
            assert got.tobytes() == want.tobytes(), f.name


@pytest.mark.parametrize("name", ["mp", "two_slopes", "farey"])
def test_climb_leaves_no_dropped_level_reachable(request, name):
    # On pressure's table (no psi, cache_words = SMALL_WORDS = 2^10 words),
    # once level(n) returns no array of a dropped level (11 to n-1) is
    # reachable: the table holds levels 1-10 and n, and no parent data.
    m = request.getfixturevalue(name)
    table = CylinderTable(m, geometric(-0.7), cache_words=SMALL_WORDS, psi=False)
    built, extend = [], table._extend

    def tracked(prev):
        out = extend(prev)
        cols = (getattr(out, f.name) for f in fields(LevelArrays)[1:])
        built.append((out.n, [weakref.ref(c) for c in cols if c is not None]))
        return out

    table._extend = tracked
    for n in range(11, 17):
        table.level(n)
        gc.collect()
        assert sorted(table._levels) == [*range(1, 11), n]
        assert all(ref() is None for k, refs in built if 10 < k < n for ref in refs), n


_COEFF = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-6.0, 6.0))
_DECLARED_MAPS = {
    "doubling": doubling_map,
    "golden": golden_mean_map,
    "two_slopes": lambda: linear_full_branch_map([2.0, 4.0]),
    "three_slopes": lambda: linear_full_branch_map([3.0, -4.0, 2.5]),
    "farey": farey_map,
    "mp": lambda: manneville_pomeau_map(0.5),
}
_BUILT_MAPS: dict = {}
_MONOTONE = (np.square, np.negative, np.exp, np.sqrt, np.log1p, np.arctan)


@st.composite
def _declared(draw, full_shift=False):
    """(map, potential): a locally constant table of depth 1-3 (a value on
    every word, admissible or not), coefficient * log|T'|, or one monotone
    callable per branch, each shifted or not.  With full_shift, a depth-1
    table on a full shift."""
    names = [k for k in sorted(_DECLARED_MAPS) if not full_shift or k != "golden"]
    name = draw(st.sampled_from(names))
    if name not in _BUILT_MAPS:
        _BUILT_MAPS[name] = _DECLARED_MAPS[name]()
    m = _BUILT_MAPS[name]
    value = st.floats(-30.0, 30.0)
    kind = "locally_constant" if full_shift else draw(
        st.sampled_from(["locally_constant", "geometric", "pointwise"])
    )
    if kind == "locally_constant":
        depth = 1 if full_shift else draw(st.integers(1, 3))
        words = list(itertools.product(range(m.p), repeat=depth))
        values = draw(st.lists(value, min_size=len(words), max_size=len(words)))
        phi = locally_constant(dict(zip(words, values)), depth)
    elif kind == "geometric":
        phi = geometric(draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0))))
    else:
        funcs = draw(st.lists(st.sampled_from(_MONOTONE), min_size=m.p, max_size=m.p))
        phi = Potential(kind="pointwise", funcs=tuple(funcs))
    return m, phi.shifted_by(draw(st.one_of(st.just(0.0), value)))


@settings(max_examples=150, deadline=None)
@given(declared=_declared())
def test_potential_sup_equals_the_declared_sup(declared):
    # The sup the level-1 table gives is the one its declaration names:
    # the largest value over admissible words, c * log|T'| at the core-span
    # ends, or the callables at the span ends, less the shift.  A Birkhoff
    # sum starts from 0.0, so a zero sup is +0.0.
    m, phi = declared
    if phi.kind == "locally_constant":
        ends = [v for w, v in phi.table if m.admissible(w)]
    elif phi.kind == "geometric":
        ends = [phi.coefficient * br.log_abs_derivative(x)
                for br, span in zip(m.branches, m.core_spans) for x in span]
    else:
        ends = [float(f(np.asarray(x))) for f, span in zip(phi.funcs, m.core_spans) for x in span]
    want = max(ends) - phi.pressure_shift + 0.0
    assert potential_sup(m, phi).hex() == want.hex()


@settings(max_examples=60, deadline=None)
@given(declared=_declared(full_shift=True))
def test_depth1_pressure_on_a_full_shift_closes_at_level_one(declared):
    # Z_n = Z_1**n, and a full shift glues with no symbols: the bracket
    # closes at level 1 on the closed form log sum_i exp(phi_i).
    m, phi = declared
    found = pressure(m, phi)
    want = log_sum_exp(np.array([v for _, v in phi.table]) - phi.pressure_shift)
    assert (found.level, found.mode) == (1, "bracket")
    assert found.value.hex() == found.lower.hex() == found.upper.hex() == want.hex()


def _lane_row(arr, a: float, b: float, side: int, psi: bool) -> np.ndarray:
    """One lane's ends of S_n(a*psi + b*phi): each term on the side its
    coefficient's sign calls for, phi only where b != 0, psi where `psi`."""

    def term(c, lo, hi):
        return c * (lo if (c >= 0.0) == (side == 0) else hi)

    row = term(a, arr.psi_lo, arr.psi_hi) if psi else None
    if b != 0.0:
        phi = term(b, arr.phi_lo, arr.phi_hi)
        row = phi if row is None else row + phi
    return row


@settings(max_examples=100, deadline=None)
@given(
    declared=_declared(),
    with_phi=st.booleans(),
    n=st.integers(1, 6),
    coeffs=st.lists(st.tuples(_COEFF, _COEFF), min_size=1, max_size=8),
)
def test_combined_rows_equal_per_lane_expression(declared, with_phi, n, coeffs):
    # Row i of combined_side is lane i's expression bit for bit: phi is
    # skipped where b == 0, psi only where every a == 0 and no b is.  A
    # table without psi gives the same rows where no lane needs psi and
    # refuses every lane set that does; one without phi refuses b != 0.
    m, phi = declared
    phi = phi if with_phi else None
    if phi is None:
        coeffs = [(a, 0.0) for a, _ in coeffs]
    a, b = (np.array(col) for col in zip(*coeffs))
    psi = not (b.all() and not a.any())
    arr = CylinderTable(m, phi).level(n)
    lean = CylinderTable(m, phi, psi=False).level(n) if phi is not None else None
    for side in (0, 1):
        rows = arr.combined_side(a, b, side)
        assert rows.shape == (a.size, arr.count)
        for i, (ai, bi) in enumerate(coeffs):
            assert rows[i].tobytes() == _lane_row(arr, ai, bi, side, psi).tobytes()
        if lean is None:
            with pytest.raises(ValueError, match="without a phi"):
                arr.combined_side(a, b + 1.0, side)
        elif psi:
            with pytest.raises(ValueError, match="without psi"):
                lean.combined_side(a, b, side)
        else:
            assert lean.combined_side(a, b, side).tobytes() == rows.tobytes()


LINK_MAPS = {
    "doubling": lambda request: request.getfixturevalue("doubling"),
    "golden": lambda request: request.getfixturevalue("golden"),
    "three_branch": lambda request: linear_full_branch_map([3.0, 4.0, 2.5]),
    "markov": lambda request: request.getfixturevalue("markov"),
    "mp": lambda request: request.getfixturevalue("mp"),
}


@pytest.mark.parametrize("name", sorted(LINK_MAPS))
def test_links_match_word_lookup(request, name):
    # Oracle: the rows of w[:-1] and w[1:], looked up word by word in the
    # level-(n-1) enumeration.
    m = LINK_MAPS[name](request)
    table = CylinderTable(m)
    for n in range(2, 10):
        index = {w: r for r, w in enumerate(words_at_level(m, n - 1))}
        words = list(words_at_level(m, n))
        prefix, suffix = table.links(n)
        assert prefix.tolist() == [index[w[:-1]] for w in words], n
        assert suffix.tolist() == [index[w[1:]] for w in words], n
    with pytest.raises(ValueError):
        table.links(1)


ALIAS_MAPS = {
    "doubling": lambda request: request.getfixturevalue("doubling"),
    "golden": lambda request: request.getfixturevalue("golden"),
    "two_slopes": lambda request: request.getfixturevalue("two_slopes"),
    "markov": lambda request: request.getfixturevalue("markov"),
    "mp": lambda request: request.getfixturevalue("mp"),
    "farey": lambda request: request.getfixturevalue("farey"),
}


def _unaliased_level_one(table):
    """Level 1 by the cylinder step, fed a separate zero array per column, so
    that no bracket of it or of `_reference_level`'s levels is stored once."""
    parts = []
    for j, (lo, hi) in enumerate(table.map.core_spans):
        empty = (np.array([lo]), np.array([hi]), *(np.zeros(1) for _ in range(4)),
                 np.zeros(1, np.int64))
        sym = np.full(1, j, dtype=np.int8)
        parts.append((*table._step(j, empty, 0, pull=False), sym, sym))
    return LevelArrays(1, *(None if col[0] is None else np.concatenate(col) for col in zip(*parts)))


def _alias_potentials(m, linear):
    yield _random_table(m, 1, seed=21)
    yield _random_table(m, 3, seed=23)
    yield geometric(-0.7)
    # A nonzero pressure shift: subtracted once from a bracket stored once.
    shifted = (normalize_potential(m, geometric(-0.7))
               if linear else geometric(-0.7).shifted_by(0.3))
    assert shifted.pressure_shift != 0.0
    yield shifted


@pytest.mark.parametrize("name", sorted(ALIAS_MAPS))
def test_exact_brackets_stored_once_with_unchanged_bits(request, name):
    # Reference: levels 1-12 with every column its own array.  The table
    # holds psi_hi as psi_lo on linear maps, and phi_hi as phi_lo for a
    # depth-1 locally constant phi, or a geometric phi on a linear map;
    # every column keeps the reference's bits, the ends read by `ends(n)`.
    m = ALIAS_MAPS[name](request)
    linear = all(br.family == "linear" for br in m.branches)
    for phi in _alias_potentials(m, linear):
        exact_phi = phi.depth == 1 if phi.kind == "locally_constant" else linear
        table = CylinderTable(m, phi)
        ref = _unaliased_level_one(table)
        for n in range(1, 13):
            arr = _with_ends(table, n)
            if n > 1:
                ref = _reference_level(table, ref)
            assert ref.psi_hi is not ref.psi_lo and ref.phi_hi is not ref.phi_lo
            for f in fields(LevelArrays)[1:]:
                got, want = getattr(arr, f.name), getattr(ref, f.name)
                assert (got is None) == (want is None), (phi, n, f.name)
                if got is not None:
                    assert got.tobytes() == want.tobytes(), (phi, n, f.name)
            assert (arr.psi_hi is arr.psi_lo) == linear, (phi, n)
            assert (arr.phi_hi is arr.phi_lo) == exact_phi, (phi, n)


# ---------------------------------------------------------------------------
# Oracle: the level build as it was before levels were written in place,
# kept verbatim in substance: one cylinder step per symbol on masked arrays,
# Newton branches inverting only inputs no earlier call has, and the parts
# joined by concatenation.


def _old_summed(col, inc, shift):
    out = col + inc
    if shift:
        out -= shift
    return out


def _old_step(step, i, prev, n, take=lambda col: col, pull=True, images=None):
    m, phi = step.map, step.phi
    br = m.branches[i]
    if pull:
        a, b = images or (br.inverse(take(prev[0])), br.inverse(take(prev[1])))
        lo, hi = (a, b) if br.increasing else (b, a)
    else:
        lo, hi = take(prev[0]), take(prev[1])
    dlo, dhi = br.log_deriv_range(lo, hi)
    psi_lo = take(prev[2]) + dlo
    psi_hi = psi_lo if dhi is dlo and prev[3] is prev[2] else take(prev[3]) + dhi
    if phi is None:
        return lo, hi, psi_lo, psi_hi, None, None, None
    shift, code = phi.pressure_shift, None
    if step.ranges is not None:
        d = phi.depth
        idx = i if d == 1 else i * m.p ** min(n, d - 1) + take(prev[6])
        r_lo, r_hi = step.ranges[min(n + 1, d)]
        inc_lo, shift = r_lo[idx], 0.0
        inc_hi = inc_lo if r_hi is r_lo else r_hi[idx]
        code = None if d == 1 else idx if n + 1 < d else idx // m.p
    elif phi.kind == "geometric":
        c = phi.coefficient
        if dhi is dlo:
            inc_lo = inc_hi = dlo * c
        else:
            dlo, dhi = dlo * c, dhi * c
            inc_lo, inc_hi = (dlo, dhi) if c >= 0 else (dhi, dlo)
    else:
        fa = np.asarray(phi.funcs[i](np.asarray(lo)), dtype=float)
        fb = np.asarray(phi.funcs[i](np.asarray(hi)), dtype=float)
        inc_lo, inc_hi = np.minimum(fa, fb), np.maximum(fa, fb)
    phi_lo = _old_summed(take(prev[4]), inc_lo, shift)
    phi_hi = phi_lo if inc_hi is inc_lo and prev[5] is prev[4] else _old_summed(
        take(prev[5]), inc_hi, shift)
    return lo, hi, psi_lo, psi_hi, phi_lo, phi_hi, code


def _old_concat(parts):
    if len(parts) == 1:
        return parts[0]
    exact = {hi for hi in ("psi_hi", "phi_hi")
             if all(getattr(q, hi) is getattr(q, hi[:-2] + "lo") for q in parts)}
    columns = {}
    for f in fields(LevelArrays)[1:]:
        cols = [getattr(q, f.name) for q in parts]
        if f.name in exact:
            columns[f.name] = columns[f.name[:-2] + "lo"]
        else:
            columns[f.name] = None if cols[0] is None else np.concatenate(cols)
    return LevelArrays(parts[0].n, **columns)


class _OldTable:
    """Levels 1.. of one (map, potential) pair by the old build, all kept."""

    def __init__(self, m, phi):
        self.map, self.levels = m, {}
        self.step = CylinderTable(m, phi)._step
        zero, parts = np.zeros(1), []
        for j, (lo, hi) in enumerate(m.core_spans):
            empty = (np.array([lo]), np.array([hi]), zero, zero, zero, zero, np.zeros(1, np.int64))
            sym = np.full(1, j, dtype=np.int8)
            new = _old_step(self.step, j, empty, 0, pull=False)
            parts.append(LevelArrays(1, *new, sym, sym.copy()))
        self.levels[1] = _old_concat(parts)

    def level(self, n):
        while n not in self.levels:
            prev = self.levels[max(self.levels)]
            self.levels[prev.n + 1] = self._extend(prev)
        return self.levels[n]

    def _extend(self, prev):
        data = (prev.lo, prev.hi, prev.psi_lo, prev.psi_hi,
                prev.phi_lo, prev.phi_hi, prev.prefix_code)
        parts = []
        for i, br in enumerate(self.map.branches):
            mask = self.map.transition[i, prev.first].astype(bool)
            if not mask.any():
                continue
            take = (lambda col: col) if mask.all() else (lambda col: col[mask])
            newton = br.family == "power"
            images = self._new_images(i, prev, take) if newton else None
            new = _old_step(self.step, i, data, prev.n, take, images=images)
            first = np.full(new[0].size, i, dtype=np.int8)
            parts.append(LevelArrays(prev.n + 1, *new, first, take(prev.last)))
        return _old_concat(parts)

    def _new_images(self, i, prev, take):
        m, br, before = self.map, self.map.branches[i], self.levels.get(prev.n - 1)
        y = take(prev.lo), take(prev.hi)
        x = np.empty_like(y[0]), np.empty_like(y[1])
        new = np.ones(y[0].size, dtype=bool), np.ones(y[1].size, dtype=bool)
        if before is not None:
            adm = m.transition[i, before.first].astype(bool)
            start = int(np.searchsorted(prev.first, i))
            images = (prev.lo, prev.hi)[:: 1 if br.increasing else -1]
            runs = m.transition.sum(axis=1)[before.last[adm]]
            last = np.cumsum(runs) - 1
            for k, (at, ends) in enumerate(((last - runs + 1, before.lo), (last, before.hi))):
                hit = y[k][at].view(np.int64) == ends[adm].view(np.int64)
                x[k][at[hit]] = images[k][start + np.flatnonzero(hit)]
                new[k][at[hit]] = False
        shared = np.zeros_like(new[0])
        shared[1:] = new[0][1:] & (y[0][1:].view(np.int64) == y[1][:-1].view(np.int64))
        new[0][shared] = False
        fresh = np.concatenate((y[0][new[0]], y[1][new[1]]))
        if fresh.size:
            x[0][new[0]], x[1][new[1]] = np.split(br.inverse(fresh), [np.count_nonzero(new[0])])
        rows = np.flatnonzero(shared)
        x[0][rows] = x[1][rows - 1]
        return x


OLD_BUILD_MAPS = {
    "mp": lambda request: request.getfixturevalue("mp"),
    "mp_1": lambda request: manneville_pomeau_map(1.0),
    "farey": lambda request: request.getfixturevalue("farey"),
    "golden": lambda request: request.getfixturevalue("golden"),
    "markov": lambda request: request.getfixturevalue("markov"),
    "two_slopes": lambda request: request.getfixturevalue("two_slopes"),
}


def _old_build_potentials(m):
    yield geometric(-0.7)
    yield _random_table(m, 1, seed=31)
    yield _random_table(m, 3, seed=33)
    # increasing on some branches, decreasing on others
    yield Potential(kind="pointwise", funcs=(np.square, np.negative, np.exp)[: m.p])
    normalized = normalize_potential(m, _random_table(m, 1, seed=35), tol=1e-3, max_level=14)
    assert normalized.pressure_shift != 0.0
    yield normalized


@pytest.mark.parametrize("name", sorted(OLD_BUILD_MAPS))
def test_level_build_equals_old_build_bit_for_bit(request, name):
    # Levels 1-14 column by column, the ends read by `ends(n)`, and an exact
    # bracket stored once exactly where the old build stored it once.
    m = OLD_BUILD_MAPS[name](request)
    for phi in _old_build_potentials(m):
        table, old = CylinderTable(m, phi), _OldTable(m, phi)
        for n in range(1, 15):
            arr, ref = _with_ends(table, n), old.level(n)
            for f in fields(LevelArrays)[1:]:
                got, want = getattr(arr, f.name), getattr(ref, f.name)
                assert (got is None) == (want is None), (phi, n, f.name)
                if got is not None:
                    assert got.tobytes() == want.tobytes(), (phi, n, f.name)
            assert (arr.psi_hi is arr.psi_lo) == (ref.psi_hi is ref.psi_lo), (phi, n)
            assert (arr.phi_hi is arr.phi_lo) == (ref.phi_hi is ref.phi_lo), (phi, n)


def test_parabolic_pressure_inverse_point_count(monkeypatch):
    # The MP(0.5) pressure ladder of the parabolic benchmark (seed 0) sends
    # 524,753 points through the Newton inverse, 457 of them while the map
    # is built: no level inverts more than one input per new endpoint.
    points = []
    power_inverse = maps._power_inverse

    def counted(c, s, z, lo, hi):
        points.append(np.size(z))
        return power_inverse(c, s, z, lo, hi)

    monkeypatch.setattr(maps, "_power_inverse", counted)
    m = manneville_pomeau_map(0.5)
    assert sum(points) <= 457
    result = pressure(m, geometric(-0.7), tol=1e-6, max_level=22)
    assert result.level == 19
    assert sum(points) <= 524_753


def test_level_columns_are_read_only(mp, markov):
    for table in (CylinderTable(mp, geometric(-0.7), cache_words=64),
                  CylinderTable(markov, _random_table(markov, 2, seed=7))):
        for n in range(1, 9):
            arr = table.level(n)
            for f in fields(LevelArrays)[1:]:
                col = getattr(arr, f.name)
                if col is not None:
                    with pytest.raises(ValueError, match="read-only"):
                        col[0] = col[0]


def test_unit_coefficient_returns_the_column(mp):
    # A lone lane at coefficient 1.0 is its column as a (1, count) view.
    arr = CylinderTable(mp, geometric(-0.7)).level(6)
    zero, one, two = np.zeros(1), np.ones(1), np.full(1, 2.0)
    for side, (psi, phi) in enumerate(((arr.psi_lo, arr.phi_lo), (arr.psi_hi, arr.phi_hi))):
        for got, col in ((arr.combined_side(zero, one, side), phi),
                         (arr.combined_side(one, zero, side), psi)):
            assert got.shape == (1, arr.count) and np.shares_memory(got, col)
            assert got[0].tobytes() == col.tobytes()
        assert arr.combined_side(two, zero, side)[0].tobytes() == (2.0 * psi).tobytes()
        both = arr.combined_side(one, one, side)
        assert not np.shares_memory(both, psi) and both[0].tobytes() == (psi + phi).tobytes()
        pair = arr.combined_side(np.ones(2), np.zeros(2), side)
        assert not np.shares_memory(pair, psi)



@pytest.mark.parametrize("cache_words", [1 << 10, 64])
@pytest.mark.parametrize("name", ["mp", "farey", "golden", "doubling"])
def test_table_without_psi_equals_full_table_bit_for_bit(request, name, cache_words):
    # pressure()'s table: no psi columns, every other column as the full
    # table's.  A geometric phi sums log|T'| in its own columns, in the
    # order its sign calls for.
    m = request.getfixturevalue(name)
    phis = [
        geometric(-0.7),
        geometric(0.7),
        _random_table(m, 1, seed=51),
        _random_table(m, 3, seed=53),
        Potential(kind="pointwise", funcs=(np.square, np.negative)),
    ]
    for phi in phis:
        full = CylinderTable(m, phi, cache_words=cache_words)
        lean = CylinderTable(m, phi, cache_words=cache_words, psi=False)
        for n in range(1, 13):
            arr, ref = lean.level(n), full.level(n)
            assert arr.psi_lo is None and arr.psi_hi is None
            for key in ("lo", "hi", "phi_lo", "phi_hi", "prefix_code", "first", "last"):
                got, want = getattr(arr, key), getattr(ref, key)
                assert (got is None) == (want is None), (phi, n, key)
                if got is not None:
                    assert got.tobytes() == want.tobytes(), (phi, n, key)
            assert (arr.phi_hi is arr.phi_lo) == (ref.phi_hi is ref.phi_lo), (phi, n)


def test_table_without_psi_raises_on_a_psi_read(mp):
    arr = CylinderTable(mp, geometric(-0.7), psi=False).level(5)
    for side in (0, 1):
        col = (arr.phi_lo, arr.phi_hi)[side]
        assert np.shares_memory(arr.combined_side(np.zeros(1), np.ones(1), side), col)
        for a, b in ((1.0, 0.0), (-0.5, 1.0), (0.0, 0.0)):
            with pytest.raises(ValueError, match="without psi"):
                arr.combined_side(np.array([a]), np.array([b]), side)
        with pytest.raises(ValueError, match="without psi"):
            arr.combined_side(np.array([0.0, 1.0]), np.array([1.0, 1.0]), side)
