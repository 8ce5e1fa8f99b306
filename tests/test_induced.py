from __future__ import annotations

import functools
import importlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dimspectra import (
    Branch,
    NotConverged,
    TailDominates,
    TruncationTooSmall,
    b_of_a,
    build_induced,
    farey_map,
    Potential,
    geometric,
    induced_b_curve,
    induced_b_point,
    linear_full_branch_map,
    locally_constant,
    manneville_pomeau_map,
)
from dimspectra import induced
from dimspectra.cli import main
from dimspectra.numerics import log_sum_exp
from dimspectra.symbolic import level_counts
from cylinder_oracle import cylinder
from root_oracle import _descend, _drive

LOG2 = math.log(2.0)


@pytest.fixture(scope="module")
def farey_sys(farey, uniform_phi):
    return build_induced(farey, uniform_phi, truncation=40)


@pytest.fixture(scope="module")
def mp_sys(mp, uniform_phi):
    return build_induced(mp, uniform_phi, truncation=40)


def test_trivial_inducing_doubling(doubling, uniform_phi):
    isys = build_induced(doubling, uniform_phi, truncation=5)
    assert [br.word for br in isys.branches] == [(0,), (1,)]
    assert isys.base == (0.0, 1.0)
    assert isys.coverage == pytest.approx(1.0, abs=1e-12)


def test_trivial_inducing_matches_direct(doubling, uniform_phi):
    isys = build_induced(doubling, uniform_phi, truncation=5)
    for a in np.linspace(-1.5, 2.0, 8):
        pt = induced_b_point(isys, float(a), tol=1e-12)
        assert pt.value == pytest.approx(1.0 + a, abs=1e-9)
        direct = b_of_a(doubling, uniform_phi, float(a), tol=1e-10)
        assert pt.value == pytest.approx(direct.value, abs=1e-8)
        assert not pt.on_ray


def test_farey_unary_branches(farey_sys):
    assert len(farey_sys.branches) == 40
    assert farey_sys.base == (0.5, 1.0)
    times = sorted(br.return_time for br in farey_sys.branches)
    assert times == list(range(1, 41))
    for r in (1, 2, 7, 25):
        (br,) = [b for b in farey_sys.branches if b.return_time == r]
        assert br.word == (1,) + (0,) * (r - 1)
        # closed-form fundamental domains of the left parabolic branch
        assert br.domain[0] == pytest.approx(r / (r + 1.0), abs=1e-12)
        assert br.domain[1] == pytest.approx((r + 1.0) / (r + 2.0), abs=1e-12)


def test_farey_coverage_near_kac(farey_sys):
    # uniform weights: kept branches carry 1 - 2^-40 of the base mass
    assert 0.999 < farey_sys.coverage <= 1.0 + 1e-12


def test_induced_expansion_uniform(farey_sys):
    assert min(br.psi_bracket[0] for br in farey_sys.branches) > 0.0


def test_induced_brackets_telescope(farey, uniform_phi, farey_sys):
    for r in (3, 10):
        (br,) = [b for b in farey_sys.branches if b.return_time == r]
        plain = cylinder(farey, br.word, uniform_phi)
        assert plain.birkhoff_psi[0] - 1e-12 <= br.psi_bracket[0]
        assert br.psi_bracket[1] <= plain.birkhoff_psi[1] + 1e-12


_DEPTH2 = locally_constant(
    {(0, 0): -0.3, (0, 1): -1.1, (1, 0): -0.9, (1, 1): -2.0}
)


@pytest.mark.parametrize(
    "case, truncation",
    [("farey_bernoulli", 300), ("mp_geometric", 60), ("farey_depth2", 60),
     ("mp_none", 60), ("farey_pointwise", 60)],
)
def test_induced_branches_equal_per_word_cylinders(farey, mp, case, truncation):
    # build_induced shares suffix states across return words; every branch
    # must carry the same bits as its own one-word cylinder.
    m, phi = {
        "farey_bernoulli": (farey, locally_constant({(0,): -LOG2, (1,): -LOG2})),
        "mp_geometric": (mp, geometric(-0.7)),
        "farey_depth2": (farey, _DEPTH2),
        "mp_none": (mp, None),
        "farey_pointwise": (
            farey, Potential(kind="pointwise", funcs=(lambda x: -LOG2 - 0.1 * x, lambda x: -LOG2 + 0.1 * x))
        ),
    }[case]
    isys = build_induced(m, phi, truncation=truncation)
    assert len(isys.branches) == truncation
    for br in isys.branches:
        one = cylinder(m, br.word, phi, terminal=isys.base)
        assert br.domain == one.interval
        assert br.psi_bracket == one.birkhoff_psi
        assert br.phi_bracket == one.birkhoff_phi


def test_farey_induced_config_prepends_once_per_symbol_per_step(tmp_path):
    # Truncation 40 keeps the words 1·0^(k-1), k = 1..40: the suffixes 0^j
    # (j = 1..39) take one call each, one row per call, and the 40 words,
    # none of them another's suffix, wait for one call of symbol 1.
    before = dict(level_counts)
    config = Path(__file__).resolve().parent.parent / "configs" / "farey_induced.yaml"
    assert main([str(config), "--set", f"output.csv={tmp_path / 'x.csv'}"]) == 0
    assert level_counts["sparse_calls"] - before["sparse_calls"] == 40
    assert level_counts["sparse_rows"] - before["sparse_rows"] == 39 + 40


def test_induced_domains_disjoint_in_base(farey_sys):
    spans = sorted(br.domain for br in farey_sys.branches)
    lo, hi = farey_sys.base
    for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
        assert a1 <= b0 + 1e-12
    assert spans[0][0] >= lo - 1e-12
    assert spans[-1][1] <= hi + 1e-12


def test_mp_domain_width_scaling(mp_sys):
    # fundamental-domain widths scale like r^-(1+1/s) = r^-3 for s = 1/2
    rs = np.array([10.0, 20.0, 30.0, 40.0])
    widths = [
        sum(br.domain[1] - br.domain[0] for br in mp_sys.branches if br.return_time == r)
        for r in rs
    ]
    slope = np.polyfit(np.log(rs), np.log(widths), 1)[0]
    assert slope == pytest.approx(-3.0, abs=0.3)


def test_induced_b_zero_is_one(farey_sys, mp_sys):
    # sum over r of 2^-b*r = 1 at b = 1 regardless of the map
    for isys in (farey_sys, mp_sys):
        pt = induced_b_point(isys, 0.0, tol=1e-10)
        assert pt.value == pytest.approx(1.0, abs=1e-8)
        assert pt.lower - 1e-9 <= 1.0 <= pt.upper + 1e-9


def test_mp_induced_ray(mp_sys):
    pt = induced_b_point(mp_sys, -1.5)
    assert pt.on_ray
    assert pt.value == 0.0
    off = induced_b_point(mp_sys, 0.0)
    assert not off.on_ray


def test_truncation_brackets_nest(farey, uniform_phi):
    points = []
    for trunc in (10, 20, 30):
        isys = build_induced(farey, uniform_phi, truncation=trunc)
        points.append(induced_b_point(isys, 0.8, tol=1e-10))
    for prev, nxt in zip(points, points[1:]):
        assert prev.lower <= nxt.lower + 1e-12
        assert nxt.upper <= prev.upper + 1e-12
        assert nxt.lower <= nxt.value <= nxt.upper


def test_truncation_too_small(mp):
    skew = locally_constant({(0,): math.log(0.75), (1,): math.log(0.25)})
    with pytest.raises(TruncationTooSmall):
        build_induced(mp, skew, truncation=1)


def test_tail_dominates_near_transition(farey, uniform_phi):
    for trunc in (3, 4):
        isys = build_induced(farey, uniform_phi, truncation=trunc)
        with pytest.raises(TailDominates):
            induced_b_point(isys, -0.45)
    # one more level of truncation restores a usable geometric bound
    isys5 = build_induced(farey, uniform_phi, truncation=5)
    pt = induced_b_point(isys5, -0.45)
    assert pt.tail_ratio < 1.0


def test_induced_b_curve_grid(farey_sys):
    pts = [induced_b_point(farey_sys, a, tol=1e-9) for a in (0.0, 1.0)]
    assert [pt.a for pt in pts] == [0.0, 1.0]
    assert pts[0].value < pts[1].value


def test_gapped_base_excursions_through_excluded_symbol():
    m = linear_full_branch_map([3.0, 3.0, 3.0])
    phi3 = locally_constant({(i,): -math.log(3.0) for i in range(3)})
    isys = build_induced(m, phi3, base_symbols=[0, 2], truncation=12)
    # returns crossing the excluded middle symbol appear as longer times
    assert max(b.return_time for b in isys.branches) > 1
    assert isys.coverage == pytest.approx(1.0, abs=1e-5)
    point = induced_b_point(isys, 0.0, tol=1e-10)
    assert point.lower <= 1.0 <= point.upper
    assert point.value == pytest.approx(1.0, abs=1e-5)
    with pytest.raises(ValueError):
        build_induced(m, phi3, base_symbols=[])


def test_dimension_only_system_rejects_b_solve(doubling):
    isys = build_induced(doubling, None, truncation=3)
    assert isys.branches[0].phi_bracket is None
    with pytest.raises(ValueError):
        induced_b_point(isys, 0.5)


# ---------------------------------------------------------------------------
# The per-point scalar solve the array steps replaced, kept as their
# oracle: one a at a time, each curve a 1-d log_sum_exp, each root the
# scalar descending-root lane.


def _scalar_tail_ratio(f_hi, phi_up, times, b, n_tr):
    def level_sum(r):
        mask = times == r
        if not np.any(mask):
            return -math.inf
        return log_sum_exp(f_hi[mask] + b * phi_up[mask])

    top = [level_sum(r) for r in range(max(1, n_tr - 3), n_tr + 1)]
    top = [t for t in top if t > -math.inf]
    if len(top) < 2:
        return 0.0
    return float(np.exp(np.max(np.diff(top))))


def _scalar_tail_log_bound(f_hi, phi_up, times, b, n_tr, ratio):
    mask = times == n_tr
    if not np.any(mask) or ratio <= 0.0:
        return -math.inf
    last = log_sum_exp(f_hi[mask] + b * phi_up[mask])
    return last + math.log(ratio) - math.log1p(-ratio)


def _scalar_curves(isys, a):
    """The curves of one a: name -> function of a float b."""
    psi_lo = np.array([b.psi_bracket[0] for b in isys.branches])
    psi_hi = np.array([b.psi_bracket[1] for b in isys.branches])
    phi_lo = np.array([b.phi_bracket[0] for b in isys.branches])
    phi_hi = np.array([b.phi_bracket[1] for b in isys.branches])
    times = np.array([b.return_time for b in isys.branches], dtype=np.int64)
    if a >= 0.0:
        f_lo, f_hi = a * psi_lo, a * psi_hi
    else:
        f_lo, f_hi = a * psi_hi, a * psi_lo
    n_tr = isys.truncation

    def phi_up(b):
        """The phi end that bounds b*phi from above."""
        return phi_hi if b >= 0.0 else phi_lo

    def upper_pressure(b):
        return log_sum_exp(f_hi + (b * phi_hi if b >= 0.0 else b * phi_lo))

    def lower_pressure(b):
        return log_sum_exp(f_lo + (b * phi_lo if b >= 0.0 else b * phi_hi))

    def padded_pressure(b):
        r = _scalar_tail_ratio(f_hi, phi_up(b), times, b, n_tr)
        if r >= 1.0:
            return math.inf
        t = _scalar_tail_log_bound(f_hi, phi_up(b), times, b, n_tr, r)
        return float(np.logaddexp(upper_pressure(b), t))

    return {
        "lower": lower_pressure,
        "upper": upper_pressure,
        "padded": padded_pressure,
        "mid": lambda b: log_sum_exp(0.5 * (f_lo + f_hi) + b * 0.5 * (phi_lo + phi_hi)),
        "tail_ratio": lambda b: _scalar_tail_ratio(f_hi, phi_up(b), times, b, n_tr),
    }


def _scalar_b_point(isys, a, *, tol=1e-8, tail_tol=0.05):
    curves = _scalar_curves(isys, a)
    upper_pressure, lower_pressure, padded_pressure, tail_ratio = (
        curves["upper"], curves["lower"], curves["padded"], curves["tail_ratio"]
    )
    sup_bar = max(b.phi_bracket[1] for b in isys.branches)
    countable = max(b.return_time for b in isys.branches) > 1

    if countable and padded_pressure(0.0) <= 0.0:
        return induced.InducedBPoint(
            a=a,
            value=0.0,
            lower=0.0,
            upper=max(upper_pressure(0.0), 0.0) / (-sup_bar),
            level=isys.truncation,
            mode="ray",
            tail_ratio=tail_ratio(0.0),
            on_ray=True,
        )

    def solve(fn):
        try:
            return _drive(_descend(1.0, xtol=tol), fn)
        except ValueError as exc:
            raise NotConverged("induced pressure root expansion failed") from exc

    b_lower = solve(lower_pressure)
    ratio = tail_ratio(max(b_lower, 0.0))
    if ratio >= 1.0:
        raise TailDominates(
            f"level sums grow by {ratio:.3f} per return time at b = {b_lower:.4g}; "
            "raise the truncation"
        )
    b_plain = solve(upper_pressure)
    b_upper = solve(padded_pressure)
    if b_upper - b_plain > tail_tol:
        raise TailDominates(
            f"dropped-tail bound moves the root from {b_plain:.4f} to "
            f"{b_upper:.4f} (> {tail_tol:.3g}); raise the truncation"
        )
    mid = solve(curves["mid"])
    lo_b, hi_b = min(b_lower, b_upper), max(b_lower, b_upper)
    if countable:
        lo_b, hi_b = max(lo_b, 0.0), max(hi_b, 0.0)
        mid = max(mid, 0.0)
    return induced.InducedBPoint(
        a=a, value=min(max(mid, lo_b), hi_b), lower=lo_b, upper=hi_b,
        level=isys.truncation, mode="truncation", tail_ratio=ratio, on_ray=False,
    )


def _oracle(isys, grid, **kw):
    """The scalar solve at each a, with NotConverged kept in place."""
    out = []
    for a in grid:
        try:
            out.append(_scalar_b_point(isys, float(a), **kw))
        except NotConverged as exc:
            out.append(exc)
    return out


def _bits(points):
    """Each result as text: repr of a float names its bits (and -0.0)."""
    return [repr(p) if isinstance(p, induced.InducedBPoint) else type(p).__name__
            for p in points]


def _gapped_sys(truncation=12):
    """Several branches per return time: returns to {0, 2} through 1."""
    m = linear_full_branch_map([3.0, 3.0, 3.0])
    phi3 = locally_constant({(i,): -math.log(3.0) for i in range(3)})
    return build_induced(m, phi3, base_symbols=[0, 2], truncation=truncation)


@pytest.mark.parametrize(
    "case", ["farey4", "farey40", "gapped", "farey40_geometric", "mp40_geometric"]
)
def test_curves_match_scalar_expressions(farey, mp, uniform_phi, case):
    # The geometric cases have phi_lo < phi_hi, so they see which bracket
    # end each curve takes at b < 0.
    isys = {
        "farey4": lambda: build_induced(farey, uniform_phi, truncation=4),
        "farey40": lambda: build_induced(farey, uniform_phi, truncation=40),
        "gapped": _gapped_sys,
        "farey40_geometric": lambda: build_induced(farey, geometric(-0.5), truncation=40),
        "mp40_geometric": lambda: build_induced(mp, geometric(-0.5), truncation=40),
    }[case]()
    grid = [-1.3, -0.2, 0.0, 0.7, 1.9]
    returns = induced._Returns(isys)
    curves = {"lower": returns.level.lower, "upper": returns.level.upper,
              "padded": returns.padded, "mid": returns.mid, "tail_ratio": returns.tail_ratio}
    bs = [-0.8, 0.0, 0.55, 3.1]
    a = np.repeat(grid, len(bs))
    b = np.tile(bs, len(grid))
    for name, curve in curves.items():
        want = [_scalar_curves(isys, x)[name](y) for x, y in zip(a.tolist(), b.tolist())]
        assert list(map(repr, curve(a, b).tolist())) == list(map(repr, want))


@pytest.fixture(scope="module")
def farey_sys300(farey, uniform_phi):
    return build_induced(farey, uniform_phi, truncation=300)


# `induce_stop` of benchmark seeds 0, 7 and 13: the parabolic workload's grid.
@pytest.mark.parametrize("stop", [2.0, 2.0072, 1.9371])
def test_lanes_match_scalar_on_workload_grid(farey_sys300, stop):
    grid = np.linspace(0.0, stop, 21)
    found = induced_b_curve(farey_sys300, grid, tol=1e-10)
    assert _bits(found) == _bits(_oracle(farey_sys300, grid, tol=1e-10))
    assert not any(p.on_ray for p in found)


def test_lanes_match_scalar_on_mp(uniform_phi):
    isys = build_induced(manneville_pomeau_map(0.5), uniform_phi, truncation=40)
    grid = np.linspace(-1.5, 2.0, 15)
    found = induced_b_curve(isys, grid, tol=1e-10)
    assert _bits(found) == _bits(_oracle(isys, grid, tol=1e-10))
    assert any(p.on_ray for p in found) and not all(p.on_ray for p in found)


def test_lanes_match_scalar_on_trivial_inducing(doubling, uniform_phi):
    # all return times 1: roots below 0 are kept, not clamped
    isys = build_induced(doubling, uniform_phi, truncation=5)
    grid = np.linspace(-1.5, 2.0, 8)
    found = induced_b_curve(isys, grid, tol=1e-12)
    assert _bits(found) == _bits(_oracle(isys, grid, tol=1e-12))
    assert min(p.value for p in found) < 0.0


def test_lanes_match_scalar_on_the_ray(farey_sys):
    grid = [-3.0, -2.0, -1.5, -1.0]
    found = induced_b_curve(farey_sys, grid)
    assert _bits(found) == _bits(_oracle(farey_sys, grid))
    # a = -1 is the transition: its roots are solved and clamped to 0
    assert [p.on_ray for p in found] == [True, True, True, False]
    assert all(p.value == 0.0 for p in found)


def test_not_converged_lane_kept_in_place(farey_sys):
    # at a = 1e20 the b-expansion (60 doublings) cannot reach the root
    grid = [0.0, 1e20, 1.0]
    with np.errstate(over="ignore"):
        found = induced_b_curve(farey_sys, grid, tol=1e-10)
        expected = _oracle(farey_sys, grid, tol=1e-10)
    assert _bits(found) == _bits(expected) == [
        _bits(found[:1])[0], "NotConverged", _bits(found[2:])[0]
    ]
    assert found[1].enclosure is None


_SYSTEMS = {
    "farey40": lambda: build_induced(farey_map(), locally_constant({(0,): -LOG2, (1,): -LOG2})),
    "farey4": lambda: build_induced(
        farey_map(), locally_constant({(0,): -LOG2, (1,): -LOG2}), truncation=4
    ),
    "mp40_geometric": lambda: build_induced(manneville_pomeau_map(0.5), geometric(-0.5)),
    "trivial": lambda: build_induced(
        linear_full_branch_map([2.0, 2.0]), locally_constant({(0,): -LOG2, (1,): -LOG2}),
        truncation=5,
    ),
    "gapped": _gapped_sys,
}


@functools.cache
def _system(name):
    return _SYSTEMS[name]()


def _outcomes(solve, isys, grid, tol):
    """_bits of the points, or the TailDominates message raised."""
    try:
        with np.errstate(over="ignore"):
            return _bits(solve(isys, grid, tol=tol))
    except TailDominates as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(_SYSTEMS)),
    grid=st.lists(st.one_of(st.floats(-3.0, 3.0), st.just(1e20)), max_size=5),
    tol=st.sampled_from([1e-6, 1e-10]),
)
@example(name="farey4", grid=[0.1, 1e20, 0.0, -0.3], tol=1e-8)  # TailDominates
@example(name="mp40_geometric", grid=[-2.0, 0.0, 1e20], tol=1e-10)  # a ray lane
def test_induced_b_curve_equals_scalar_per_lane(name, grid, tol):
    isys = _system(name)
    got = _outcomes(induced_b_curve, isys, grid, tol)
    assert got == _outcomes(_oracle, isys, grid, tol)


def test_induced_b_curve_on_empty_grid(farey_sys, doubling, uniform_phi):
    assert induced_b_curve(farey_sys, []) == []
    assert induced_b_curve(build_induced(doubling, uniform_phi, truncation=5), []) == []


def test_tail_dominates_reports_first_a_in_grid_order(farey, uniform_phi):
    isys = build_induced(farey, uniform_phi, truncation=4)
    # 0.1 solves; 1e20 does not converge; 0.0 and -0.3 both fail the tail test
    grid = [0.1, 1e20, 0.0, -0.3]
    with pytest.raises(TailDominates) as first:
        _scalar_b_point(isys, 0.0)
    with np.errstate(over="ignore"), pytest.raises(TailDominates) as caught:
        induced_b_curve(isys, grid)
    assert str(caught.value) == str(first.value)


def test_workload_induce_log_sum_exp_calls(farey_sys300, monkeypatch):
    # The midpoint curve calls log_sum_exp in induced, the level and tail
    # sums in pressure.  `dimspectra.pressure` names the function, so the
    # module is looked up by name.
    calls = []
    for module in (induced, importlib.import_module("dimspectra.pressure")):
        monkeypatch.setattr(
            module, "log_sum_exp", lambda v: calls.append(1) or log_sum_exp(v)
        )
    induced_b_curve(farey_sys300, np.linspace(0.0, 2.0, 21), tol=1e-10)
    # one call per curve per solver step (324 over both modules; lanes
    # asking curve values one round at a time made 556, the scalar loop
    # 7,151)
    assert 0 < len(calls) <= 324


def test_farey_induced_domains_equal_numpy_inverse_path(farey, monkeypatch):
    # The scalar cylinder path inverts Farey's branches on floats without
    # numpy; routing every float through the numpy path changes no bit.
    fast = build_induced(farey, None, truncation=300)
    inverse = Branch.inverse

    def numpy_path(self, y, **kw):
        return inverse(self, np.asarray(y) if isinstance(y, float) else y, **kw)

    monkeypatch.setattr(Branch, "inverse", numpy_path)
    slow = build_induced(farey, None, truncation=300)
    assert len(fast.branches) == len(slow.branches) == 300
    for a, b in zip(fast.branches, slow.branches):
        assert a.word == b.word
        got = [x.hex() for x in a.domain + a.psi_bracket]
        assert got == [float(x).hex() for x in b.domain + b.psi_bracket], a.word
