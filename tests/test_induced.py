from __future__ import annotations

import math

import numpy as np
import pytest

from dimspectra import (
    TailDominates,
    TruncationTooSmall,
    b_of_a,
    build_induced,
    cylinder,
    Potential,
    geometric,
    induced_b_point,
    linear_full_branch_map,
    locally_constant,
)

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
    assert isys.tail_weight == pytest.approx(0.0, abs=1e-12)


def test_trivial_inducing_matches_direct(doubling, uniform_phi):
    isys = build_induced(doubling, uniform_phi, truncation=5)
    for a in np.linspace(-1.5, 2.0, 8):
        pt = induced_b_point(isys, float(a), tol=1e-12)
        assert pt.b == pytest.approx(1.0 + a, abs=1e-9)
        direct = b_of_a(doubling, uniform_phi, float(a), tol=1e-10)
        assert pt.b == pytest.approx(direct.b, abs=1e-8)
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
        assert pt.b == pytest.approx(1.0, abs=1e-8)
        assert pt.lower - 1e-9 <= 1.0 <= pt.upper + 1e-9


def test_mp_induced_ray(mp_sys):
    pt = induced_b_point(mp_sys, -1.5)
    assert pt.on_ray
    assert pt.b == 0.0
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
        assert nxt.lower <= nxt.b <= nxt.upper


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
    assert pts[0].b < pts[1].b


def test_gapped_base_excursions_through_excluded_symbol():
    m = linear_full_branch_map([3.0, 3.0, 3.0])
    phi3 = locally_constant({(i,): -math.log(3.0) for i in range(3)})
    isys = build_induced(m, phi3, base_symbols=[0, 2], truncation=12)
    # returns crossing the excluded middle symbol appear as longer times
    assert max(b.return_time for b in isys.branches) > 1
    assert isys.coverage == pytest.approx(1.0, abs=1e-5)
    point = induced_b_point(isys, 0.0, tol=1e-10)
    assert point.lower <= 1.0 <= point.upper
    assert point.b == pytest.approx(1.0, abs=1e-5)
    with pytest.raises(ValueError):
        build_induced(m, phi3, base_symbols=[])


def test_dimension_only_system_rejects_b_solve(doubling):
    isys = build_induced(doubling, None, truncation=3)
    assert isys.branches[0].phi_bracket is None
    with pytest.raises(ValueError):
        induced_b_point(isys, 0.5)
