"""The scalar solvers that the array solvers replaced, kept as their oracle.

Each is a lane: a generator that yields every request it needs and is sent
back the answer; `_drive` runs one.  `_descend` is what `descending_root`
computes (one lane of `numerics._solve_roots`), one x at a time.
`_ladder` is the level ladder of one lane that `pressure._ladder` runs for
arrays of lanes; its rungs ask for curve values (fn, *args) and whole
roots, each root answered by `_descend` on curve values asked one lane
at a time (`_lane`), so that `pressure`, `bowen_root`, `b_of_a` and
`b_curve` here run none of the lane-array solvers.  `_convex_argmin` is
one lane of `spectrum._convex_argmin`: golden-section searches
(`_golden`), widened toward an end while the minimizer sits by it, and
`legendre_spectrum` runs one per alpha on `b_of_a`.  `_four_end_ratio`
is one row of `symbolic.ratio_bracket`.  `hexed` names a record's bits,
for comparing what a solver returns with what its oracle does.
"""

from __future__ import annotations

import math
from dataclasses import astuple

import numpy as np

from dimspectra.errors import NotConverged
from dimspectra.numerics import log_sum_exp
from dimspectra.pressure import Enclosure, _Curves, _in_s, gluing_length
from dimspectra.spectrum import BPoint, _require_negative
from dimspectra.symbolic import SMALL_WORDS, CylinderTable, shared_table


def _four_end_ratio(num_lo, num_hi, den_lo, den_hi):
    """(min, max) of num / den over the four ends of one row, a zero den
    giving +inf for num > 0, -inf for num < 0 and 0.0 for num = 0."""

    def end(num, den):
        if den != 0.0:
            return num / den
        return math.inf if num > 0.0 else -math.inf if num < 0.0 else 0.0

    ends = [end(num, den) for num in (num_lo, num_hi) for den in (den_lo, den_hi)]
    return min(ends), max(ends)


def hexed(record) -> tuple:
    """A record's type and fields, floats by float.hex: equal exactly when
    the bits are (nan and -0.0 included)."""
    fields = astuple(record)
    return type(record).__name__, tuple(x.hex() if type(x) is float else x for x in fields)


def _drive(steps, fn):
    """Run one lane: answer each x the generator yields with fn(x), and
    return what the generator returns."""
    try:
        x = next(steps)
        while True:
            x = steps.send(fn(x))
    except StopIteration as done:
        return done.value


def _bisect(lo: float, hi: float, flo=None, fhi=None, *, xtol: float, max_iter: int):
    """Bisection lane on [lo, hi] to xtol; f(lo) and f(hi), asked for only
    if not passed in, must differ in (weak) sign, else ValueError."""
    if flo is None:
        flo = yield lo
    if fhi is None:
        fhi = yield hi
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol or mid == lo or mid == hi:
            break
        fm = yield mid
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)


def _expand(start: float, step: float, f0=None, *, max_expand: int):
    """Expansion lane: step from `start`, doubling `step` each miss, until
    f changes sign (ValueError after max_expand); given f(start) if known.
    Returns (lo, hi, f(lo), f(hi))."""
    if f0 is None:
        f0 = yield start
    if f0 == 0.0:
        return start, start, f0, f0
    x, fx = start, f0
    for _ in range(max_expand):
        x_next = x + step
        f_next = yield x_next
        if f_next == 0.0 or (f_next > 0.0) != (f0 > 0.0):
            return (x, x_next, fx, f_next) if x < x_next else (x_next, x, f_next, fx)
        x, fx = x_next, f_next
        step *= 2.0
    raise ValueError("no sign change found while expanding bracket")


def _descend(start: float, *, xtol: float, step: float = 1.0):
    """Descending-root lane (see `descending_root`): each x is asked once."""
    f0 = yield start
    if f0 == 0.0:
        return start
    lo, hi, flo, fhi = yield from _expand(
        start, step if f0 > 0.0 else -step, f0, max_expand=60
    )
    return (yield from _bisect(lo, hi, flo, fhi, xtol=xtol, max_iter=200))


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden(lo: float, hi: float, *, xtol: float, max_iter: int):
    """Golden-section lane: the minimum of a unimodal function on [lo, hi],
    as (argmin, min value)."""
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc = yield c
    fd = yield d
    for _ in range(max_iter):
        if b - a <= xtol:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = yield c
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = yield d
    if fc <= fd:
        return c, fc
    return d, fd


def _convex_argmin(lo: float, hi: float, *, xtol: float):
    """Minimizer lane: golden-section search on [lo, hi] to xtol (120 steps
    at most), searched again on the bracket widened by its span toward an
    end while the minimizer lies within 2% of the span from that end, 8
    searches at most; returns the last search's minimizer."""
    for _ in range(8):
        found, _ = yield from _golden(lo, hi, xtol=xtol, max_iter=120)
        span = hi - lo
        if found - lo < 0.02 * span:
            lo -= span
        elif hi - found < 0.02 * span:
            hi += span
        else:
            break
    return found


class AitkenAccelerator:
    """Repeated Aitken delta-squared extrapolation of a scalar sequence,
    `depth` rounds chained; degenerate differences give the raw value."""

    def __init__(self, depth: int = 2) -> None:
        self._values: list[float] = []
        self._next = type(self)(depth - 1) if depth > 1 else None

    def push(self, value: float) -> float:
        """Record the next raw value; return the best current estimate."""
        self._values.append(value)
        if len(self._values) < 3:
            return value
        v0, v1, v2 = self._values[-3:]
        d1, d2 = v1 - v0, v2 - v1
        den = d2 - d1
        if abs(den) <= 1e-14 * max(1.0, abs(v2)):
            est = v2
        else:
            est = v2 - d2 * d2 / den
        return self._next.push(est) if self._next is not None else est


# ---------------------------------------------------------------------------
# the ladder of one lane


def _call(request: tuple):
    """Answer one request (fn, *args) with fn(*args)."""
    return request[0](*request[1:])


def _lane(curve):
    """curve at one (a, b), asked as arrays of one lane, as a float."""
    return lambda a, b: float(curve(np.array([a]), np.array([b]))[0])


def _scalar_root(curve, a: float, start: float, step: float, xtol: float):
    """The descending root in b of curve(a, b) by the scalar lane, the
    curve asked one lane at a time, or the ValueError of a bracket
    expansion that found no sign change."""
    try:
        return _drive(_descend(start, xtol=xtol, step=step), lambda b: _lane(curve)(a, b))
    except ValueError as exc:
        return exc


def _root(curve, a: float, start: float, *, step: float, xtol: float):
    """Lane of one root, asked as one request; a failed bracket expansion
    raises NotConverged, with no enclosure."""
    found = yield _scalar_root, curve, a, start, step, xtol
    if isinstance(found, ValueError):
        raise NotConverged(f"root bracket expansion failed: {found}") from found
    return found


def _roots(level: _Curves, a: float, start: float, *, step: float, xtol: float, view=None):
    """Rung lane: the roots of the lower and upper curves (one where the
    level has one curve) and, as a lane run only if needed, the root of
    the ratio curve to xtol / 10."""
    view = view or (lambda curve: curve)
    lower = yield from _root(view(level.lower), a, start, step=step, xtol=xtol)
    if level.one_curve:
        upper = lower
    else:
        upper = yield from _root(view(level.upper), a, start, step=step, xtol=xtol)
    return lower, upper, _root(view(level.ratio), a, start, step=step, xtol=xtol / 10)


def _ladder(rung, first: int, max_level: int, *, tol: float, what: str):
    """One lane's level ladder: rung(n, last) is a lane giving level n's
    (lower, upper, estimate), the estimate None, a float or a lane run
    only while the best bracket is open.  Returns (value, lower, upper,
    level, mode); raises NotConverged with the best enclosure, an
    `Enclosure` at its midpoint, level max_level, mode "enclosure"."""
    best_lo, best_hi = -math.inf, math.inf
    accel = AitkenAccelerator()
    value_prev: float | None = None
    est_prev: float | None = None
    est = math.nan
    for n in range(first, max_level + 1):
        lower, upper, estimate = yield from rung(n, value_prev)
        best_lo, best_hi = max(best_lo, lower), min(best_hi, upper)
        if best_hi <= best_lo:
            return best_hi, best_lo, best_hi, n, "bracket"
        if estimate is None:
            continue
        value = estimate if isinstance(estimate, float) else (yield from estimate)
        est = accel.push(value)
        clamped = min(max(est, best_lo), best_hi)
        if best_hi - best_lo <= tol:
            return clamped, best_lo, best_hi, n, "bracket"
        raw_ok = value_prev is not None and abs(value - value_prev) <= tol
        acc_ok = est_prev is not None and abs(est - est_prev) <= tol
        if raw_ok or acc_ok:
            return clamped, best_lo, best_hi, n, "ratio"
        value_prev, est_prev = value, est
    raise NotConverged(
        f"{what} not within {tol:g} by level {max_level}; "
        f"certified enclosure [{best_lo:.12g}, {best_hi:.12g}], "
        f"last accelerated value {est:.12g}",
        enclosure=Enclosure(0.5 * (best_lo + best_hi), best_lo, best_hi, max_level, "enclosure"),
    )


def pressure(m, phi, *, tol: float = 1e-8, max_level: int = 32) -> Enclosure:
    """`pressure.pressure` on one scalar lane."""
    table = CylinderTable(m, phi, cache_words=SMALL_WORDS)
    z_sup: dict[int, float] = {}

    def rung(n: int, _last):
        level = _Curves(table.level(n), gluing_length(m), table)
        z_sup[n] = yield _lane(level.z_sup), 0.0, 1.0
        lower = yield _lane(level.lower), 0.0, 1.0
        return lower, z_sup[n] / n, None if n == 1 else z_sup[n] - z_sup[n - 1]

    return Enclosure(*_drive(_ladder(rung, 1, max_level, tol=tol, what="pressure"), _call))


def _moran_root(table: CylinderTable, n: int) -> float:
    lo, hi = table.ends(n)
    log_d = np.log(hi - lo)
    return _drive(_descend(0.0, xtol=1e-14), lambda s: log_sum_exp(s * log_d))


def bowen_root(m, *, tol: float = 1e-6, max_level: int = 22) -> Enclosure:
    """`pressure.bowen_root` on one scalar lane."""
    table = CylinderTable(m, None)

    def rung(n: int, _last):
        level = _Curves(table.level(n), gluing_length(m), table)
        if not m.has_parabolic:
            return (yield from _roots(level, 0.0, 0.0, step=8.0, xtol=1e-12, view=_in_s))
        lower = yield from _root(_in_s(level.lower), 0.0, 0.0, step=8.0, xtol=1e-12)
        return lower, math.inf, _moran_root(table, n)

    return Enclosure(*_drive(_ladder(rung, 2, max_level, tol=tol, what="bowen root"), _call))


def b_of_a(m, phi, a: float, *, tol: float = 1e-8, max_level: int = 24, ray_at=None) -> BPoint:
    """`spectrum.b_of_a` on one scalar lane; `ray_at` is the ray start on a
    parabolic map (solved here if not given)."""
    sup_phi = _require_negative(m, phi)
    table = shared_table(m, phi)
    if m.has_parabolic and ray_at is None:
        ray_at = -bowen_root(m, tol=tol, max_level=max_level).value
    a = float(a)
    if ray_at is not None and a <= ray_at + 1e-12:
        n = min(10, max_level)
        f_hi = table.level(n).combined_side(np.array([a]), np.zeros(1), 1)[0]
        upper_pressure = max(log_sum_exp(f_hi) / n, 0.0)
        return BPoint(0.0, 0.0, upper_pressure / -sup_phi, n, "ray", a=a, on_ray=True)

    def rung(n: int, last: float | None):
        level = _Curves(table.level(n), gluing_length(m), table)
        start = 0.0 if last is None else last
        return (yield from _roots(level, a, start, step=1.0, xtol=1e-13))

    ladder = _ladder(rung, 2, max_level, tol=tol, what=f"b({a:g})")
    return BPoint(*_drive(ladder, _call), a=a, on_ray=False)


def b_curve(m, phi, a_values, *, tol: float = 1e-8, max_level: int = 24) -> list:
    """b_of_a at each a, NotConverged kept in place; where the ray start
    does not converge, each a gets its own NotConverged naming it, with no
    enclosure."""
    try:
        ray_at = -bowen_root(m, tol=tol, max_level=max_level).value if m.has_parabolic else None
    except NotConverged as exc:
        return [NotConverged(f"b({a:g}): no ray start: {exc}") for a in a_values]
    out = []
    for a in a_values:
        try:
            out.append(b_of_a(m, phi, a, tol=tol, max_level=max_level, ray_at=ray_at))
        except NotConverged as exc:
            out.append(exc)
    return out


def legendre_spectrum(
    m, phi, alphas, *, tol, max_level, refine_tol=1e-7, a_lo=-4.0, a_hi=4.0, asked=None
):
    """`spectrum.legendre_spectrum` on scalar lanes: one `_convex_argmin`
    lane per alpha, each b(a) solved alone by `b_of_a` and cached by
    round(a, 12) (each new key appended to `asked`, if given), the ray
    start (on a parabolic map) solved once.  Returns its rows (alpha, f,
    f_low, f_high, point), the point at a* = round(a, 12)."""
    ray_at = -bowen_root(m, tol=tol, max_level=max_level).value if m.has_parabolic else None
    cache = {}

    def bp(a: float) -> BPoint:
        key = round(a, 12)
        if key not in cache:
            if asked is not None:
                asked.append(key)
            cache[key] = b_of_a(m, phi, key, tol=tol, max_level=max_level, ray_at=ray_at)
        return cache[key]

    rows = []
    for alpha in np.asarray(alphas, dtype=float).tolist():
        search = _convex_argmin(a_lo, a_hi, xtol=refine_tol)
        a_star = round(_drive(search, lambda a: alpha * bp(a).value - a), 12)
        pt = bp(a_star)
        rows.append((
            alpha, alpha * pt.value - a_star, alpha * pt.lower - a_star,
            alpha * pt.upper - a_star, pt,
        ))
    return rows
