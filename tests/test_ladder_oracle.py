"""The array ladder against the scalar generator ladder it replaced
(`root_oracle`), lane by lane: the record's type, each float of it by
float.hex (and as a Python float), the level and the stop mode, or the
NotConverged message and its enclosure record the same way."""

from __future__ import annotations

import math

from hypothesis import example, given, settings, strategies as st

import root_oracle
from dimspectra import (
    NotConverged,
    b_curve,
    bowen_root,
    doubling_map,
    farey_map,
    geometric,
    golden_mean_map,
    linear_full_branch_map,
    locally_constant,
    manneville_pomeau_map,
    pressure,
)

LOG2 = math.log(2.0)
MAPS = {
    "doubling": doubling_map(),
    "golden": golden_mean_map(),
    "two_slopes": linear_full_branch_map([2.0, 4.0]),
    "mp": manneville_pomeau_map(0.5),
    "farey": farey_map(),
}
PHIS = {
    "uniform": locally_constant({(0,): -LOG2, (1,): -LOG2}),
    "bernoulli": locally_constant({(0,): math.log(0.25), (1,): math.log(0.75)}),
    "zero": locally_constant({(0,): 0.0, (1,): 0.0}),
    "geometric": geometric(-0.7),
    "geometric_pos": geometric(0.7),
}


def _hexed(found):
    """A record's type and fields, floats by float.hex, or its NotConverged
    message and enclosure (None, or hexed as a record)."""
    if isinstance(found, NotConverged):
        enclosure = found.enclosure
        return str(found), enclosure and root_oracle.hexed(enclosure)
    return root_oracle.hexed(found)


def _outcome(solve):
    try:
        return _hexed(solve())
    except NotConverged as exc:
        return _hexed(exc)


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from([
        "doubling:bernoulli", "golden:zero", "golden:bernoulli", "two_slopes:bernoulli",
        "mp:geometric", "farey:geometric", "mp:geometric_pos", "farey:geometric_pos",
    ]),
    tol=st.sampled_from([1e-3, 1e-6, 1e-9, 1e-13]),
    max_level=st.integers(0, 12),
)
@example(case="golden:zero", tol=1e-9, max_level=12)  # ratio stop
@example(case="doubling:bernoulli", tol=1e-9, max_level=0)  # no rung
@example(case="mp:geometric_pos", tol=1e-13, max_level=12)  # phi > 0 on Newton rows
def test_pressure_equals_scalar_ladder(case, tol, max_level):
    name, phi = case.split(":")
    m, phi = MAPS[name], PHIS[phi]
    kw = dict(tol=tol, max_level=max_level)
    got = _outcome(lambda: pressure(m, phi, **kw))
    assert got == _outcome(lambda: root_oracle.pressure(m, phi, **kw))


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(MAPS)),
    tol=st.sampled_from([1e-3, 1e-6, 1e-10]),
    max_level=st.integers(1, 12),
)
@example(name="golden", tol=1e-10, max_level=12)  # hyperbolic: ratio roots
@example(name="mp", tol=1e-3, max_level=12)  # parabolic: the Moran estimate
def test_bowen_root_equals_scalar_ladder(name, tol, max_level):
    m, kw = MAPS[name], dict(tol=tol, max_level=max_level)
    got = _outcome(lambda: bowen_root(m, **kw))
    assert got == _outcome(lambda: root_oracle.bowen_root(m, **kw))


# (case, a-values, tol, max_level) reaching every way a b lane ends; see
# the test after the Hypothesis one.
B_EXAMPLES = [
    # lanes stopping at different levels, by ratio and by bracket, and
    # lanes running out of levels
    ("golden:bernoulli", [-1.0, -0.3, 0.0, 0.5, 1.0, 2.0], 1e-8, 12),
    # ray lanes beside ladder lanes
    ("mp:uniform", [-1.5, -0.9, -0.5, 0.0, 0.5], 1e-4, 12),
    # a failed bracket expansion between lanes that close at level 2
    ("doubling:uniform", [0.0, 1e20, 1.0], 1e-10, 12),
    ("two_slopes:bernoulli", [-2.0, 0.7, 3.0], 1e-10, 12),
    ("doubling:bernoulli", [0.5], 1e-10, 1),  # no rung
    ("golden:bernoulli", [], 1e-8, 12),  # no lane
]


def _b_outcomes(case, a_values, tol, max_level, solver):
    name, phi = case.split(":")
    found = solver(MAPS[name], PHIS[phi], a_values, tol=tol, max_level=max_level)
    return [_hexed(point) for point in found]


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from([
        "doubling:uniform", "doubling:bernoulli", "golden:bernoulli",
        "two_slopes:bernoulli", "mp:uniform",
    ]),
    a_values=st.lists(
        st.one_of(st.floats(-3.0, 3.0), st.sampled_from([-1.5, 0.0, 1e20])), max_size=5
    ),
    tol=st.sampled_from([1e-4, 1e-8, 1e-10]),
    max_level=st.integers(1, 9),
)
def test_b_curve_equals_scalar_ladder(case, a_values, tol, max_level):
    got = _b_outcomes(case, a_values, tol, max_level, b_curve)
    assert got == _b_outcomes(case, a_values, tol, max_level, root_oracle.b_curve)


for _case in B_EXAMPLES:
    test_b_curve_equals_scalar_ladder = example(
        **dict(zip(("case", "a_values", "tol", "max_level"), _case))
    )(test_b_curve_equals_scalar_ladder)


def test_b_examples_reach_every_end():
    # Bracket and ratio stops (a ratio stop leaves the bracket wider than
    # tol) at several levels, ray points, failed expansions (no
    # enclosure) and lanes out of levels.
    seen = set()
    for case, a_values, tol, max_level in B_EXAMPLES:
        name, phi = case.split(":")
        for point in b_curve(MAPS[name], PHIS[phi], a_values, tol=tol, max_level=max_level):
            if isinstance(point, NotConverged):
                seen.add("levels" if point.enclosure else "expansion")
            elif point.on_ray:
                seen.add(point.mode)
            else:
                assert point.mode != "ratio" or point.width > tol
                seen.add(point.mode)
                seen.add(f"level {point.level}")
    assert {"levels", "expansion", "ray", "ratio", "bracket", "level 2"} <= seen
    assert len([s for s in seen if s.startswith("level ")]) > 2
