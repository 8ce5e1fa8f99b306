"""One record for every solved number: pressure, Bowen roots, b(a) on the
ladder and on the ray, and induced roots all return an `Enclosure` (or a
subclass), and a ladder that runs out of levels raises a NotConverged
carrying one."""

from __future__ import annotations

import math

import pytest

from dimspectra import (
    Enclosure,
    NotConverged,
    b_curve,
    bowen_root,
    build_induced,
    geometric,
    induced_b_curve,
    locally_constant,
    pressure,
)

LOG2 = math.log(2.0)
UNIFORM = locally_constant({(0,): -LOG2, (1,): -LOG2})
BERNOULLI = locally_constant({(0,): math.log(0.25), (1,): math.log(0.75)})
ZERO = locally_constant({(0,): 0.0, (1,): 0.0})


def _records(request):
    """(what, record) for solves that stop every way a record can."""
    doubling, golden, mp, farey = (
        request.getfixturevalue(name) for name in ("doubling", "golden", "mp", "farey")
    )
    yield "pressure", pressure(doubling, BERNOULLI)
    yield "pressure", pressure(golden, ZERO, tol=1e-9)
    yield "pressure", pressure(mp, geometric(-0.7), tol=1e-4, max_level=16)
    for m in (doubling, golden, mp, farey):
        yield "bowen_root", bowen_root(m)
    grids = (
        (golden, BERNOULLI, [-1.0, -0.3, 0.0], dict(tol=1e-8, max_level=12)),
        (mp, UNIFORM, [-1.5, -0.5, 0.0, 0.5], dict(tol=1e-4, max_level=12)),
        (doubling, UNIFORM, [-1.0, 0.0, 1.0], dict(tol=1e-10, max_level=12)),
    )
    for m, phi, a_values, kw in grids:
        for point in b_curve(m, phi, a_values, **kw):
            yield "b_curve", point
    isys = build_induced(farey, UNIFORM, truncation=40)
    for point in induced_b_curve(isys, [-1.5, -0.5, 0.0, 1.0], tol=1e-10):
        yield "induced_b_curve", point


def test_every_solved_number_is_one_enclosure(request):
    modes = set()
    for what, found in _records(request):
        assert isinstance(found, Enclosure), (what, found)
        assert found.lower <= found.value <= found.upper, (what, found)
        assert found.width == found.upper - found.lower, (what, found)
        modes.add((what, found.mode))
    assert modes >= {
        ("pressure", "bracket"), ("pressure", "ratio"), ("bowen_root", "ratio"),
        ("b_curve", "bracket"), ("b_curve", "ratio"), ("b_curve", "ray"),
        ("induced_b_curve", "ray"), ("induced_b_curve", "truncation"),
    }, modes


@pytest.mark.parametrize("solve", ["pressure", "bowen_root", "b_curve"])
def test_a_ladder_out_of_levels_carries_an_enclosure(golden, solve):
    max_level = 4
    if solve == "pressure":
        with pytest.raises(NotConverged) as err:
            pressure(golden, ZERO, tol=1e-13, max_level=max_level)
        exc = err.value
    elif solve == "bowen_root":
        with pytest.raises(NotConverged) as err:
            bowen_root(golden, tol=1e-13, max_level=max_level)
        exc = err.value
    else:
        (exc,) = b_curve(golden, BERNOULLI, [0.5], tol=1e-13, max_level=max_level)
    enc = exc.enclosure
    assert type(enc) is Enclosure
    assert (enc.level, enc.mode) == (max_level, "enclosure")
    assert enc.lower <= enc.value <= enc.upper
    assert enc.value == 0.5 * (enc.lower + enc.upper)
