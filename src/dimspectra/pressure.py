"""Topological pressure from finite-level cylinder data.

All quantities here come with certified finite-level enclosures:

    upper: (1/n) log Z_n^sup is an upper bound for every n because sup-sums
        are submultiplicative over word concatenation.
    lower: (log Z_n^inf + k*inf f) / (n + k) is a lower bound, obtained by
        gluing arbitrary n-words with connector words of the fixed length k
        that primitivity of the transition matrix guarantees, and paying the
        worst-case potential value on the k connector symbols.

The bracket width decays like 1/n, which is far too slow for tight targets,
so the reported `value` is the ratio estimate log(Z_n^sup / Z_{n-1}^sup),
Aitken-accelerated and clamped into the bracket.  Under a spectral gap the
ratio converges geometrically; its successive-gap Cauchy test is the
practical (heuristic) stopping rule, while the bracket stays the
certificate.

One ladder, `_ladder`, runs these stops for pressure(), bowen_root() and
spectrum.b_of_a().  Each caller supplies per-level certified bounds and a
lazily computed ratio value, built by `_Curves`, where the gluing floor
above is written once; for the roots, the bounds are the roots of the lower
and upper curves and the value is the root of the ratio curve.  Built
from a level's arrays, `_Curves` also serves the first-return system of
induced.py, held as one level of rows, and `_Curves.root`, every caller's
root lane, turns a failed bracket expansion into NotConverged.  Parabolic
maps have no spectral gap and no finite-level upper certificate for Bowen
roots (the neutral word pins sup-sums at a nonnegative pressure), which is
reported honestly as an infinite upper endpoint; their Bowen estimate is
the Moran root instead.

The ladder is a lane (see numerics) whose requests are curve values
(curve, a, b) or whole roots in b at fixed a (`_Root`).  pressure() and
bowen_root() run one lane with `_drive`; spectrum.b_curve() runs one lane
per a in lockstep, and lanes asking the same root are solved together,
each curve forming its a-term once per solve and adding b*phi per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import NotConverged, NotStrictlyNegative
from .maps import MarkovMap
from .numerics import (
    _CHUNK,
    AitkenAccelerator,
    _call,
    _drive,
    _solve_roots,
    descending_root,
    log_sum_exp,
)
from .symbolic import SMALL_WORDS, CylinderTable, LevelArrays, Potential, _scaled


@dataclass(frozen=True)
class Pressure:
    """Pressure estimate with a certified enclosure.

    `value` is the accelerated ratio estimate clamped into the bracket (its
    upper end once the bracket has closed); `mode` records whether the
    bracket ("bracket") or the heuristic ratio Cauchy gap ("ratio") stopped
    the ladder.  `lower`/`upper` always hold the best certified enclosure
    seen up to `level`.
    """

    value: float
    lower: float
    upper: float
    level: int
    mode: str

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class BowenRoot:
    """Root s of P(-s log|T'|) = 0 with a certified enclosure.

    For parabolic maps `upper` is +inf: the neutral fixed word keeps every
    finite-level sup-sum at nonnegative pressure, so no finite computation
    can certify an upper bound.  `value` is the partition-ratio root for
    hyperbolic maps (geometric convergence) and the Moran-equation root
    sum_w diam(w)^s = 1 for parabolic ones, where cylinders tile the whole
    interval and the equation is exact at every level.
    """

    value: float
    lower: float
    upper: float
    level: int
    parabolic: bool

    @property
    def width(self) -> float:
        return self.upper - self.lower


def gluing_length(m: MarkovMap) -> int:
    """Symbols needed between any two admissible words to rejoin them.

    A^q > 0 gives a path of q edges between any symbol pair, i.e. q - 1
    intermediate symbols; full shifts need none.
    """
    return max(m.aperiodicity_power - 1, 0)


def potential_floor(
    table: CylinderTable, coeff_psi: float, coeff_phi: float = 0.0, held=None
):
    """Certified lower bound for inf of the combined potential on the core
    (one per lane for arrays of coefficients, see `_Curves`)."""
    arr = table.level(1)
    floor = _sum(arr, 0, coeff_psi, coeff_phi, held, lambda f: f.min(axis=-1))
    return floor if np.ndim(floor) else float(floor)


def _per_lane(fn: Callable, count: int, a, b):
    """fn(a, b) on rows of `count` entries per lane.  For arrays a, b of
    one entry per lane it runs on slices of lanes holding at most one
    log-sum-exp chunk of entries, and the results are joined."""
    if np.ndim(a) == 0:
        return fn(a, b)
    rows = max(1, _CHUNK // count)
    if a.size <= rows:
        return fn(a, b)
    return np.concatenate([fn(a[i : i + rows], b[i : i + rows]) for i in range(0, a.size, rows)])


def _sum(arr, side: int, a, b, held, total: Callable):
    """total of the side's brackets of a*psi + b*phi over arr per lane, on
    the a-term `held` for a root solve (see `_Root`) or per chunk of lanes."""
    rows = held and held(
        (id(arr), side), arr.count, lambda a: _scaled(a, arr.psi_lo, arr.psi_hi, side)
    )
    if rows is not None:
        return total(arr.combined_side(a, b, side, rows))
    return _per_lane(lambda a, b: total(arr.combined_side(a, b, side)), arr.count, a, b)


def _log_z(arr, side: int, a, b, held=None):
    """log Z_n over the inf (side 0) or sup (side 1) brackets of a*psi + b*phi."""
    return _sum(arr, side, a, b, held, log_sum_exp)


class _Root(NamedTuple):
    """A root lane's one request, (_Root(curve, step, xtol), a, start): the
    descending root in b of curve(a, b, held), answered for arrays a and
    start by one solve (a failed expansion is a ValueError in its lane's
    place).  a is fixed per lane: held(key, count, make) forms make(a) once
    per solve and gives its rows for the live lanes (a copy), or None where
    lanes x count entries pass one log-sum-exp chunk."""

    curve: Callable
    step: float
    xtol: float

    def __call__(self, a, start):
        lanes, start = np.atleast_1d(np.asarray(a, dtype=float)), np.asarray(start, dtype=float)
        terms: dict = {}
        live = [None]

        def held(key, count: int, make: Callable):
            if lanes.size * count > _CHUNK:
                return None
            if key not in terms:
                terms[key] = make(lanes)
            return terms[key][live[0]]

        def values(at: np.ndarray, b: np.ndarray) -> np.ndarray:
            live[0] = at
            return self.curve(lanes[at], b, held)

        found = _solve_roots(values, np.atleast_1d(start), step=self.step, xtol=self.xtol)
        return found if start.ndim else found[0]


def _in_s(curve: Callable) -> Callable:
    """curve(-s, 0) with s in the b slot, a unused: a Bowen root's curve."""
    return lambda _a, s, _held=None: curve(-s, np.zeros_like(s))


class _Curves:
    """Certified pressure curves of a*psi + b*phi over one level's arrays:
    a cylinder level, with its map's gluing length k and its table (for the
    floor and level n-1), or rows shaped like one, such as the branches of
    an induced system (n = 1, k = 0, no table).

    Each curve takes (a, b) as floats, or as arrays of one entry per lane
    (and in a root solve the solve's `held` a-terms, see `_Root`); then it
    gives one value per lane, bit for bit the scalar call's, so lanes that
    share a level can be answered in one call (`_call_stacked`).
    """

    def __init__(self, arr: LevelArrays, k: int = 0, table: CylinderTable | None = None, prev=None):
        self.arr, self.n, self.k, self.table = arr, arr.n, k, table
        self._prev = prev  # level n-1's arrays, if the caller holds them

    def lower(self, a, b, held=None):
        """(log Z_n^inf + k * inf f) / (n + k)."""
        z_inf = _log_z(self.arr, 0, a, b, held)
        if self.k == 0:  # the floor would only be multiplied by k
            return z_inf / self.n
        return (z_inf + self.k * potential_floor(self.table, a, b, held)) / (self.n + self.k)

    def z_sup(self, a, b, held=None):
        """log Z_n^sup."""
        return _log_z(self.arr, 1, a, b, held)

    def upper(self, a, b, held=None):
        return self.z_sup(a, b, held) / self.n

    def ratio(self, a, b, held=None):
        """log(Z_n^sup / Z_{n-1}^sup), fetching level n-1 on first use
        unless it was handed in."""
        if self._prev is None:
            self._prev = self.table.level(self.n - 1)
        return self.z_sup(a, b, held) - _log_z(self._prev, 1, a, b, held)

    @cached_property
    def one_curve(self) -> bool:
        """No gluing symbols and exact Birkhoff sums: lower is upper.  A
        bracket stored once (hi is lo) is exact without a comparison."""
        arr = self.arr
        return self.k == 0 and all(
            hi is lo or np.array_equal(lo, hi)
            for lo, hi in ((arr.psi_lo, arr.psi_hi), (arr.phi_lo, arr.phi_hi))
        )

    @staticmethod
    def root(curve: Callable, a: float, start: float, *, step: float, xtol: float):
        """Lane of the descending root in b of curve(a, b), asked as one
        request (see `_Root`).  A bracket expansion that finds no sign
        change raises NotConverged, with no enclosure."""
        found = yield _Root(curve, step, xtol), a, start
        if isinstance(found, ValueError):
            raise NotConverged(f"root bracket expansion failed: {found}") from found
        return found

    def roots(self, a: float, start: float, *, step: float, xtol: float, view=None):
        """Rung of a root ladder, as a lane: the roots in b of the lower and
        upper curves at a, which enclose the true root since pressure
        decreases in b, and as the estimate the lane of the ratio-curve
        root to xtol / 10; each solves view(curve) if a view is given."""
        view = view or (lambda curve: curve)
        lower = yield from self.root(view(self.lower), a, start, step=step, xtol=xtol)
        if self.one_curve:
            upper = lower
        else:
            upper = yield from self.root(view(self.upper), a, start, step=step, xtol=xtol)
        return lower, upper, self.root(view(self.ratio), a, start, step=step, xtol=xtol / 10)


def _ladder(
    rung: Callable,
    first: int,
    max_level: int,
    *,
    tol: float,
    what: str,
):
    """The level ladder behind pressure(), bowen_root() and b_of_a(), as a
    lane whose requests are those of its rungs.

    rung(n, last) is a lane giving level n's certified (lower, upper)
    bounds and its ratio estimate: None (no estimate yet), a float, or a
    lane computing it, run only while the best bracket is open; `last` is
    the previous level's raw estimate.  Stops on a closed bracket (value:
    its upper end), a width <= tol ("bracket"), or a raw or
    Aitken-accelerated estimate that moved by <= tol ("ratio", heuristic);
    the value is then the accelerated estimate clamped into the bracket.
    Returns (value, lower, upper, level, mode).

    Raises:
        NotConverged: no stop by `max_level`; the best enclosure rides along.
    """
    best_lo, best_hi = -math.inf, math.inf
    accel = AitkenAccelerator()
    value_prev: float | None = None
    est_prev: float | None = None
    est = math.nan
    for n in range(first, max_level + 1):
        lower, upper, estimate = yield from rung(n, value_prev)
        best_lo, best_hi = max(best_lo, lower), min(best_hi, upper)
        if best_hi <= best_lo:
            # A closed bracket clamps every estimate to best_hi.
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
        enclosure=(best_lo, best_hi),
    )


def pressure(
    m: MarkovMap,
    phi: Potential,
    *,
    tol: float = 1e-8,
    max_level: int = 32,
) -> Pressure:
    """Pressure of a potential by the level ladder; the ratio estimate is
    log(Z_n^sup / Z_{n-1}^sup).

    Raises:
        NotConverged: neither the certified bracket nor the ratio Cauchy gap
            reached `tol` by `max_level`; the best enclosure rides along.
    """
    table = CylinderTable(m, phi, cache_words=SMALL_WORDS)  # one climb
    z_sup: dict[int, float] = {}

    def rung(n: int, _last: float | None):
        level = _Curves(table.level(n), gluing_length(m), table)
        z_sup[n] = yield level.z_sup, 0.0, 1.0
        lower = yield level.lower, 0.0, 1.0
        return lower, z_sup[n] / n, None if n == 1 else z_sup[n] - z_sup[n - 1]

    return Pressure(*_drive(_ladder(rung, 1, max_level, tol=tol, what="pressure"), _call))


def normalize_potential(
    m: MarkovMap,
    phi: Potential,
    *,
    tol: float = 1e-10,
    max_level: int = 32,
    require_negative: bool = True,
) -> Potential:
    """Shift a potential so its pressure vanishes.

    Depth-1 locally constant potentials on full shifts normalize in closed
    form (Z_n factorizes), which is what downstream exact-mode checks rely
    on; anything else goes through the pressure ladder to `tol`.

    Raises:
        NotStrictlyNegative: when `require_negative` and the normalized
            potential is not strictly negative on the symbol space.
    """
    if (
        phi.kind == "locally_constant"
        and phi.depth == 1
        and m.is_full_shift
    ):
        values = np.array([v for _, v in phi.table]) - phi.pressure_shift
        shift = log_sum_exp(values)
    else:
        shift = pressure(m, phi, tol=tol, max_level=max_level).value
    out = phi.shifted_by(shift)
    if require_negative:
        sup = out.bounds(m)[1]
        if sup >= 0.0:
            raise NotStrictlyNegative(
                f"normalized potential has sup {sup:.6g} >= 0 on the symbol space"
            )
    return out


def _moran_root(table: CylinderTable, n: int) -> float:
    """Root of sum_w diam(w)^s = 1 at level n (unique: strictly decreasing)."""
    log_d = np.log(table.level(n).diameters())
    return descending_root(lambda s: log_sum_exp(s * log_d), 0.0, xtol=1e-14)


def bowen_root(
    m: MarkovMap,
    *,
    tol: float = 1e-6,
    max_level: int = 22,
) -> BowenRoot:
    """Dimension-type root of s -> P(-s log|T'|).

    Enclosure endpoints are roots of the certified lower/upper pressure
    curves (both strictly decreasing in s), and the estimate is the
    partition-ratio root, on the shared ladder.  Parabolic maps, whose
    upper endpoint is +inf at any feasible level, take the Moran-equation
    root as their estimate instead, so they stop only on its Cauchy gap.

    Raises:
        NotConverged: neither criterion met by `max_level`.
    """
    table = CylinderTable(m, None, cache_words=SMALL_WORDS)  # one climb
    parabolic = m.has_parabolic
    below = None  # level n-1 for the ratio curve, which the table drops

    def rung(n: int, _last: float | None):
        nonlocal below
        level = _Curves(table.level(n), gluing_length(m), table, below)
        if not parabolic:
            below = level.arr
            return (yield from level.roots(0.0, 0.0, step=8.0, xtol=1e-12, view=_in_s))
        # The Moran root is exact for full-interval parabolic maps; the
        # ratio root would inherit the neutral word's slow drift.  Its
        # bracket never closes (upper is +inf), so it is always needed.
        lower = yield from level.root(_in_s(level.lower), 0.0, 0.0, step=8.0, xtol=1e-12)
        return lower, math.inf, _moran_root(table, n)

    ladder = _ladder(rung, 2, max_level, tol=tol, what="bowen root")
    value, lower, upper, n, _ = _drive(ladder, _call)
    return BowenRoot(value, lower, upper, n, parabolic)
