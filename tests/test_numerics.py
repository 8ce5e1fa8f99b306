from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dimspectra.numerics import (
    _CHUNK,
    AitkenAccelerator,
    _solve_roots,
    descending_root,
    log_sum_exp,
    lse_counts,
)
from dimspectra.spectrum import _convex_argmin
from root_oracle import _bisect, _descend, _drive, _expand


def test_log_sum_exp_matches_numpy():
    vals = np.random.default_rng(0).normal(size=10001)
    ref = float(np.logaddexp.reduce(np.sort(vals)))
    assert log_sum_exp(vals) == pytest.approx(ref, abs=1e-12)


def _chunked_log_sum_exp(values: np.ndarray) -> float:
    """Reference: per-chunk partial sums, added exactly rounded."""
    if values.size == 0:
        return -math.inf
    m = float(np.max(values))
    parts = [
        float(np.sum(np.exp(values[i : i + _CHUNK] - m))) for i in range(0, values.size, _CHUNK)
    ]
    return m + math.log(math.fsum(parts))


@pytest.mark.parametrize("size", [0, 1, 4, _CHUNK, _CHUNK + 1, 7 * _CHUNK + 5])
def test_log_sum_exp_equals_chunked_composition(size):
    # The 1-d call, and each row of a 3-row call, has the reference's bits.
    rows = np.random.default_rng(size).normal(scale=20.0, size=(3, size))
    expected = [_chunked_log_sum_exp(row).hex() for row in rows]
    assert log_sum_exp(rows[0]).hex() == expected[0]
    assert [x.hex() for x in log_sum_exp(rows).tolist()] == expected


def test_log_sum_exp_adds_chunk_sums_exactly_rounded():
    # Chunk 0 sums to 1 and each of 15 more chunks to 0.45 ulp of 1: added
    # one by one in floats they all round away, exactly rounded they do not.
    values = np.full(16 * _CHUNK, -math.inf)
    values[0] = 0.0
    values[_CHUNK::_CHUNK] = math.log(0.45 * 2.0**-52)
    assert log_sum_exp(values) == math.log(1.0 + 7 * 2.0**-52) == _chunked_log_sum_exp(values)


def test_log_sum_exp_wide_row_holds_one_chunk():
    # A 16-chunk row is reduced a chunk at a time: no temporary as large as
    # the row, and the traced peak stays under 3 chunks of float64.
    values = np.random.default_rng(3).normal(size=16 * _CHUNK)
    tracemalloc.start()
    try:
        log_sum_exp(values)
        log_sum_exp(values[None, :])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * _CHUNK * 8


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


def _one_by_one(rows: np.ndarray) -> list:
    """The 1-d call on each row: its bits, or the ValueError it raises."""
    out = []
    for row in rows:
        try:
            out.append(log_sum_exp(row).hex())
        except ValueError as exc:
            out.append(str(exc))
    return out


@settings(max_examples=60, deadline=None)
@given(
    width=st.one_of(
        st.integers(1, 40), st.integers(1, 2 * _CHUNK + 3), st.sampled_from([_CHUNK, _CHUNK + 1])
    ),
    rows=st.integers(1, 6),
    scale=st.floats(1e-3, 300.0),
    offset=st.floats(-700.0, 700.0),
    seed=st.integers(0, 2**32 - 1),
    holes=st.floats(0.0, 1.0),
    special=st.sampled_from([None, -math.inf, math.nan, math.inf]),
)
def test_log_sum_exp_rows_equal_one_dimensional_calls(
    width, rows, scale, offset, seed, holes, special
):
    # Each row of the 2-d call has the bits of the 1-d call on it, or the
    # 2-d call raises the ValueError one of the 1-d calls raises.
    rng = np.random.default_rng(seed)
    rows = max(1, min(rows, 3 * _CHUNK // width))
    values = rng.normal(offset, scale, size=(rows, width))
    values[rng.random(values.shape) < holes * 0.5] = -math.inf
    if special is not None:  # one whole row, or one entry of a row
        r = int(rng.integers(rows))
        if special == -math.inf:
            values[r] = -math.inf
        else:
            values[r, int(rng.integers(width))] = special
    expected = _one_by_one(values)
    errors = [e for e in expected if not e.startswith(("0x", "-0x", "-inf", "inf"))]
    if errors:
        with pytest.raises(ValueError) as info:
            log_sum_exp(values)
        assert str(info.value) == errors[0]
    else:
        assert [float(x).hex() for x in log_sum_exp(values)] == expected


def test_log_sum_exp_rows_shapes():
    assert log_sum_exp(np.zeros((0, 4))).shape == (0,)
    assert log_sum_exp(np.zeros((3, 0))).tolist() == [-math.inf] * 3


def test_log_sum_exp_counts_calls_and_entries():
    # A 2-d call is one call, also where its rows are wider than a chunk
    # and are reduced a chunk at a time.
    before = dict(lse_counts)
    log_sum_exp(np.zeros(3))
    log_sum_exp(np.zeros((2, 5)))
    log_sum_exp(np.zeros((2, _CHUNK + 1)))
    counts = {key: lse_counts[key] - before[key] for key in before}
    assert counts == {"calls": 3, "entries": 3 + 10 + 2 * (_CHUNK + 1)}


def test_descending_root_asks_each_x_once():
    # The expansion hands its bracket values to the bisection, and the start
    # value to the expansion, so no x is evaluated twice.
    for start, step in ((0.0, 1.0), (10.0, 1.0), (0.3, 0.25)):
        asked = []

        def fn(x):
            asked.append(x)
            return 2.7 - x

        if step == 1.0:
            root = descending_root(fn, start, xtol=1e-13)
        else:  # the public root finder walks from step 1.0 only
            (root,), _ = _solve_roots(
                lambda _, x: np.array([fn(x.item())]), np.array([start]), step=step, xtol=1e-13
            )
        assert root == pytest.approx(2.7, abs=1e-12)
        assert len(asked) == len(set(asked)), (start, step)


# ---------------------------------------------------------------------------
# the array root solver against the scalar lanes it replaced


def _lane_function(kind: str, c: float):
    """One lane's function of x, by kind; c places its root."""
    if kind == "linear":  # a dyadic c is hit exactly by some midpoint
        return lambda x: c - x
    if kind == "wavy":  # not monotone: the walk may stop at any crossing
        return lambda x: c - x + 1.5 * math.sin(3.0 * x)
    if kind == "nan_above":  # nan past the root, compared as the scalar lane does
        return lambda x: math.nan if x > c else c - x
    if kind == "flat":  # no sign change unless c == 0
        return lambda x: c
    if kind == "far":  # the root lies past 60 doublings of any step drawn
        return lambda x: 1e30 + c - x
    if kind == "tiny":  # with xtol 0, bisection runs its 200 steps
        return lambda x: 1e-250 - x
    raise KeyError(kind)


def _oracle_lane(fn, start, step, xtol):
    """The scalar lane's root (or 'ValueError') and the x it asked, by hex."""
    asked = []

    def ask(x):
        asked.append(float(x).hex())
        return fn(x)

    try:
        root = float(_drive(_descend(start, xtol=xtol, step=step), ask)).hex()
    except ValueError:
        root = "ValueError"
    return root, asked


def _array_lanes(fns, starts, step, xtol):
    """The array solver's roots (or 'ValueError') and the x each lane asked."""
    asked = [[] for _ in fns]

    def values(live, x):
        out = []
        for i, xi in zip(live.tolist(), x.tolist()):
            asked[i].append(xi.hex())
            out.append(fns[i](xi))
        return np.array(out, dtype=float)

    found, failed = _solve_roots(values, np.array(starts, dtype=float), step=step, xtol=xtol)
    roots = ["ValueError" if no else r.hex() for r, no in zip(found.tolist(), failed)]
    return list(zip(roots, asked))


_LANE = st.tuples(
    st.sampled_from(["linear", "wavy", "nan_above", "flat", "far", "tiny"]),
    st.one_of(st.floats(-40.0, 40.0), st.integers(-64, 64).map(lambda k: k / 8)),
    st.one_of(st.floats(-20.0, 20.0), st.sampled_from([0.0, -0.0, 0.5, math.nan])),
)


@settings(max_examples=150, deadline=None)
@given(
    lanes=st.lists(_LANE, min_size=1, max_size=8),
    step=st.sampled_from([1.0, 0.25, 8.0, 1e-3]),
    xtol=st.sampled_from([0.0, 1e-13, 1e-6, 0.5]),
)
@example(  # every exit at once: an exact zero at a midpoint (0.75 from 0),
    # a zero at the start, nan values, a failed walk beside lanes that
    # succeed, the xtol and midpoint stops, and 200 bisection steps; on
    # [-0.3, 0.7], 0.5*(lo + hi) and lo + 0.5*(hi - lo) differ in the last bit
    lanes=[("linear", 0.75, 0.0), ("linear", 2.0, 2.0), ("nan_above", 1.3, 0.0),
           ("far", 0.0, 0.0), ("flat", 1.0, 0.0), ("wavy", 3.0, 0.5), ("tiny", 0.0, 0.0),
           ("linear", 0.2, -0.3)],
    step=1.0,
    xtol=0.0,
)
@example(  # at 1234 adjacent floats lie 2**-42 > xtol apart: that lane stops on
    # its midpoint meeting an end, the lane beside it on its width
    lanes=[("linear", 1234.5678, 1234.0), ("linear", 0.3, 0.0)],
    step=1.0,
    xtol=1e-13,
)
def test_root_solver_equals_scalar_lanes(lanes, step, xtol):
    # Lane by lane, the array solver asks the x the scalar lane asks, in
    # order, and returns its root bit for bit; a walk that finds no sign
    # change is that lane's ValueError and no other lane's.  Each lane
    # solved alone gives the same.
    fns = [_lane_function(kind, c) for kind, c, _ in lanes]
    starts = [start for _, _, start in lanes]
    want = [_oracle_lane(fn, start, step, xtol) for fn, start in zip(fns, starts)]
    assert _array_lanes(fns, starts, step, xtol) == want
    for i in range(len(lanes)):
        assert _array_lanes(fns[i : i + 1], starts[i : i + 1], step, xtol) == want[i : i + 1]


def test_root_solver_example_reaches_every_exit():
    # The example above covers what it claims: per lane, the root, how many
    # x the lane asked, and its exit.
    def lane(kind, c, start):
        return _oracle_lane(_lane_function(kind, c), start, 1.0, 0.0)

    root, asked = lane("linear", 0.75, 0.0)
    assert root == (0.75).hex() and asked == [x.hex() for x in (0.0, 1.0, 0.5, 0.75)]
    assert lane("linear", 2.0, 2.0) == ((2.0).hex(), [(2.0).hex()])
    assert lane("far", 0.0, 0.0)[0] == lane("flat", 1.0, 0.0)[0] == "ValueError"
    assert len(lane("far", 0.0, 0.0)[1]) == 61  # the start and 60 steps
    assert len(lane("tiny", 0.0, 0.0)[1]) == 2 + 200  # start, one step, 200 midpoints
    nan_root, nan_asked = lane("nan_above", 1.3, 0.0)
    assert nan_root != "ValueError" and (math.nan).hex() != nan_root
    assert any(float.fromhex(x) > 1.3 for x in nan_asked)  # a nan value was compared


def test_aitken_kills_geometric_error():
    # s_n = 1 + 2^-n: the accelerated value hits the limit on the third push.
    acc, lane = AitkenAccelerator(1), np.array([0])
    acc.push(lane, np.array([1.5]))
    acc.push(lane, np.array([1.25]))
    assert acc.push(lane, np.array([1.125]))[0] == pytest.approx(1.0, abs=1e-12)


def test_bisect_root_linear_exact():
    root = _drive(_bisect(0.0, 8.0, xtol=1e-12, max_iter=200), lambda s: 1.0 - s)
    assert root == pytest.approx(1.0, abs=1e-11)


def test_expand_to_sign_change_failure():
    with pytest.raises(ValueError):
        _drive(_expand(0.0, 1.0, max_expand=3), lambda s: 1.0)


def test_golden_section_min_parabola():
    (x,) = _convex_argmin(lambda _, a, _ahead: (a - 1.3) ** 2, 1, -4.0, 4.0, xtol=1e-9)
    assert x == pytest.approx(1.3, abs=1e-6)
    assert (x - 1.3) ** 2 == pytest.approx(0.0, abs=1e-12)

