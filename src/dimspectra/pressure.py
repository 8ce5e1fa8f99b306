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
spectrum.b_curve().  Each caller supplies per-level certified bounds and a
lazily computed ratio value, built by `_Curves`, where the gluing floor
above is written once; for the roots, the bounds are the roots of the lower
and upper curves and the value is the root of the ratio curve.  Built
from a level's arrays, `_Curves` also serves the first-return system of
induced.py, held as one level of rows.  Parabolic maps have no spectral
gap and no finite-level upper certificate for Bowen roots (the neutral
word pins sup-sums at a nonnegative pressure), which is reported honestly
as an infinite upper endpoint; their Bowen estimate is the Moran root
instead.

The ladder holds its lanes' state as arrays and advances every live lane
one level at a time: it asks the level's lower bounds, upper bounds and
estimates each as one array step over the lanes that need it, and applies
the stop tests as masks.  pressure() and bowen_root() are its one-lane
case; spectrum.b_curve() runs one lane per a.  A root step solves all its
lanes together (`_roots_in_b`), each curve forming its a-term once per
solve and adding b*phi per step.  A lane that cannot finish (no stop by
the last level, or a root that found no sign change) ends with its own
NotConverged while the others go on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import NotConverged
from .maps import MarkovMap
from .numerics import (
    _CHUNK,
    _NO_SIGN_CHANGE,
    AitkenAccelerator,
    _solve_roots,
    descending_root,
    log_sum_exp,
)
from .symbolic import SMALL_WORDS, CylinderTable, LevelArrays, Potential, _scaled


def gluing_length(m: MarkovMap) -> int:
    """Symbols needed between any two admissible words to rejoin them.

    A^q > 0 gives a path of q edges between any symbol pair, i.e. q - 1
    intermediate symbols; full shifts need none.
    """
    return max(m.aperiodicity_power - 1, 0)


def potential_floor(
    table: CylinderTable, coeff_psi: np.ndarray, coeff_phi: np.ndarray, held=None
) -> np.ndarray:
    """Certified lower bound for inf of the combined potential on the core,
    one per lane (see `_Curves`)."""
    return _sum(table.level(1), 0, coeff_psi, coeff_phi, held, lambda f: f.min(axis=1))


def _per_lane(fn: Callable, count: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """fn(a, b) on rows of `count` entries per lane, for arrays a, b of one
    entry per lane: it runs on slices of lanes holding at most one
    log-sum-exp chunk of entries, and the results are joined."""
    rows = max(1, _CHUNK // count)
    if a.size <= rows:
        return fn(a, b)
    return np.concatenate([fn(a[i : i + rows], b[i : i + rows]) for i in range(0, a.size, rows)])


def _sum(arr, side: int, a, b, held, total: Callable):
    """total of the side's brackets of a*psi + b*phi over arr per lane, on
    the a-term `held` for a root solve (see `_roots_in_b`) or per chunk of
    lanes."""
    rows = held and held(
        (id(arr), side), arr.count, lambda a: _scaled(a, arr.psi_lo, arr.psi_hi, side)
    )
    if rows is not None:
        return total(arr.combined_side(a, b, side, rows))
    return _per_lane(lambda a, b: total(arr.combined_side(a, b, side)), arr.count, a, b)


def _log_z(arr, side: int, a, b, held=None):
    """log Z_n over the inf (side 0) or sup (side 1) brackets of a*psi + b*phi."""
    return _sum(arr, side, a, b, held, log_sum_exp)


def _roots_in_b(curve: Callable, a: np.ndarray, start: np.ndarray, *, step: float, xtol: float):
    """The descending roots in b of curve(a, b, held), one lane per entry of
    a, from `start`, as (roots, failed) (see `_solve_roots`).  a is fixed
    per lane: held(key, count, make) forms make(a) once per solve and gives
    its rows for the live lanes, taken again only when the live lanes
    change (read-only: b*phi is added out of place), or None where lanes
    x count entries pass one log-sum-exp chunk."""
    terms: dict = {}
    rows: dict = {}  # terms' rows for the live lanes
    live: list = [None, a]  # the live lanes and their a-values

    def held(key, count: int, make: Callable):
        if a.size * count > _CHUNK:
            return None
        if key not in rows:
            if key not in terms:
                terms[key] = make(a)
            rows[key] = terms[key][live[0]]
        return rows[key]

    def values(at: np.ndarray, b: np.ndarray) -> np.ndarray:
        if at is not live[0]:
            live[:] = at, a[at]
            rows.clear()
        return curve(live[1], b, held)

    return _solve_roots(values, start, step=step, xtol=xtol)


def _in_s(curve: Callable) -> Callable:
    """curve(-s, 0) with s in the b slot, a unused: a Bowen root's curve."""
    return lambda _a, s, _held=None: curve(-s, np.zeros_like(s))


class _Curves:
    """Certified pressure curves of a*psi + b*phi over one level's arrays:
    a cylinder level, with its map's gluing length k and its table (for the
    floor and level n-1), or rows shaped like one, such as the branches of
    an induced system (n = 1, k = 0, no table).

    Each curve takes (a, b) as arrays of one entry per lane (and in a root
    solve the solve's `held` a-terms, see `_roots_in_b`) and gives one
    value per lane, each with the bits of its lane alone, so lanes that
    share a level are answered in one call.
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

    def roots(self, a: np.ndarray, start: np.ndarray, *, step: float, xtol: float, view=None):
        """Rung of a root ladder, for lanes with a-values `a` starting from
        `start`: its steps solve the roots in b of the lower and upper
        curves (one root where `one_curve`), which enclose the true root
        since pressure decreases in b, and as the estimate the ratio-curve
        root to xtol / 10; each solves view(curve) if a view is given."""
        view = view or (lambda curve: curve)

        def solve(curve: Callable, xtol: float) -> Callable:
            return lambda live: _roots_in_b(view(curve), a[live], start[live], step=step, xtol=xtol)

        upper = None if self.one_curve else solve(self.upper, xtol)
        return _Rung(solve(self.lower, xtol), upper, solve(self.ratio, xtol / 10))


class _Rung(NamedTuple):
    """Level n of a ladder: steps step(live) -> (values, failed or None)
    over the lanes at indices live, giving their certified lower and upper
    bounds (upper None: the lower bounds are exact) and their estimates
    (None: no estimate at this level)."""

    lower: Callable
    upper: Callable | None
    estimate: Callable | None


class _Lanes:
    """Lanes solved together: the indices of those still live, and each
    finished lane's outcome (its result, or the error it ends with)."""

    def __init__(self, count: int):
        self.live, self.out = np.arange(count), [None] * count

    def leave(self, done: np.ndarray, outcome: Callable) -> None:
        """Retire the live lanes where `done` holds, lane i with outcome(i)."""
        for i in self.live[done].tolist():
            self.out[i] = outcome(i)
        self.live = self.live[~done]

    def ask(self, step: Callable) -> np.ndarray:
        """step(live) -> (values, failed) for the live lanes, if any, spread
        over all lanes (nan elsewhere).  A failed lane's root found no sign
        change: it leaves with a NotConverged that has no enclosure."""
        values = np.full(len(self.out), math.nan)
        if self.live.size:
            values[self.live], failed = step(self.live)
            if failed is not None:
                message = f"root bracket expansion failed: {_NO_SIGN_CHANGE}"
                self.leave(failed, lambda _: NotConverged(message))
        return values


@dataclass(frozen=True)
class Enclosure:
    """A solved number: its estimate `value` in the certified [lower, upper],
    the `level` the solve stopped at and the `mode`, the rule that stopped
    it.

    Ladder modes are "bracket" (the bracket closed, or its width reached
    tol), "ratio" (the heuristic Cauchy gap of the ratio estimate) and
    "enclosure" (no stop by the last level: the NotConverged carries the
    best bracket, with its midpoint as value).  A b(a) on a parabolic ray
    has mode "ray", an induced root "truncation" (its level is the
    truncation), and an alpha range end "cycle" (its level is the word
    length of the cycle search).
    """

    value: float
    lower: float
    upper: float
    level: int
    mode: str

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _ladder(
    rung: Callable, what: list[str], first: int, max_level: int, *, tol: float, record=None
) -> list:
    """The level ladder behind pressure(), bowen_root() and b_curve(), with
    one lane per name in `what`, every live lane advancing a level at a
    time.

    rung(n, last) gives level n's `_Rung`; `last` holds each lane's
    previous raw estimate (None before the first).  The estimate is asked
    only of lanes whose best bracket is still open.  A lane stops on a
    closed bracket (value: its upper end), a width <= tol ("bracket"), or
    a raw or Aitken-accelerated estimate that moved by <= tol ("ratio",
    heuristic); the value is then the accelerated estimate clamped into
    the bracket.  Returns per lane its `Enclosure`, or record(i, *fields)
    for lane i if a record is given, or the NotConverged it ends with: no
    stop by `max_level` (the best enclosure rides along), or a root that
    found no sign change.
    """
    record = record or (lambda _, *fields: Enclosure(*fields))
    lanes = _Lanes(len(what))
    best_lo, best_hi, est = (np.full(len(what), x) for x in (-math.inf, math.inf, math.nan))
    accel = AitkenAccelerator(len(what))
    last = None

    def stop(done: np.ndarray, mode: str) -> None:
        def outcome(i: int):
            lo, hi = best_lo[i].item(), best_hi[i].item()
            # A closed bracket clamps every estimate to best_hi.
            value = hi if hi <= lo else min(max(est[i].item(), lo), hi)
            return record(i, value, lo, hi, n, mode)

        lanes.leave(done, outcome)

    for n in range(first, max_level + 1):
        if not lanes.live.size:
            break
        steps = rung(n, last)
        lower = lanes.ask(steps.lower)
        upper = lower if steps.upper is None else lanes.ask(steps.upper)
        live = lanes.live  # Python's max and min, as the bounds come
        best_lo[live] = np.where(lower[live] > best_lo[live], lower[live], best_lo[live])
        best_hi[live] = np.where(upper[live] < best_hi[live], upper[live], best_hi[live])
        stop(best_hi[live] <= best_lo[live], "bracket")
        if steps.estimate is None:
            continue
        value = lanes.ask(steps.estimate)
        live, est_last, est = lanes.live, est, np.full(len(what), math.nan)
        est[live] = accel.push(live, value[live])
        stop(best_hi[live] - best_lo[live] <= tol, "bracket")
        if last is not None:
            live = lanes.live
            moved = np.abs(value[live] - last[live]) <= tol
            moved |= np.abs(est[live] - est_last[live]) <= tol
            stop(moved, "ratio")
        last = value

    def unsettled(i: int) -> NotConverged:
        lo, hi = best_lo[i].item(), best_hi[i].item()
        return NotConverged(
            f"{what[i]} not within {tol:g} by level {max_level}; "
            f"certified enclosure [{lo:.12g}, {hi:.12g}], "
            f"last accelerated value {est[i].item():.12g}",
            enclosure=Enclosure(0.5 * (lo + hi), lo, hi, max_level, "enclosure"),
        )

    lanes.leave(np.ones(lanes.live.size, dtype=bool), unsettled)
    return lanes.out


def pressure(
    m: MarkovMap,
    phi: Potential,
    *,
    tol: float = 1e-8,
    max_level: int = 32,
) -> Enclosure:
    """Pressure of a potential by the level ladder; the ratio estimate is
    log(Z_n^sup / Z_{n-1}^sup).  Its `value` is the accelerated ratio
    estimate clamped into the bracket (its upper end once the bracket has
    closed).

    Raises:
        NotConverged: neither the certified bracket nor the ratio Cauchy gap
            reached `tol` by `max_level`; the best enclosure rides along.
    """
    table = CylinderTable(m, phi, cache_words=SMALL_WORDS, psi=False)  # one climb, phi alone
    z_sup: dict[int, np.ndarray] = {}
    a, b = np.zeros(1), np.ones(1)  # the one lane: phi alone

    def rung(n: int, _last) -> _Rung:
        level = _Curves(table.level(n), gluing_length(m), table)

        def upper(_live):
            z_sup[n] = level.z_sup(a, b)
            return z_sup[n] / n, None

        ratio = None if n == 1 else lambda _live: (z_sup[n] - z_sup[n - 1], None)
        return _Rung(lambda _live: (level.lower(a, b), None), upper, ratio)

    return _one_lane(_ladder(rung, ["pressure"], 1, max_level, tol=tol))


def _one_lane(found: list):
    """The one lane's result, or its NotConverged raised."""
    if isinstance(found[0], NotConverged):
        raise found[0]
    return found[0]


def normalize_potential(
    m: MarkovMap, phi: Potential, *, tol: float = 1e-10, max_level: int = 32
) -> Potential:
    """Shift a potential so its pressure vanishes, by the pressure ladder
    to `tol`.  A depth-1 locally constant potential on a full shift closes
    its bracket at level 1 (no gluing symbols, exact sums), at the closed
    form log sum_i exp(phi_i), which exact mode's check relies on.  The
    sign of the result is not checked: the solvers that need phi < 0 check
    it themselves.
    """
    return phi.shifted_by(pressure(m, phi, tol=tol, max_level=max_level).value)


def _moran_root(
    table: CylinderTable, n: int, mask: np.ndarray | None = None, *, xtol: float = 1e-14
) -> float:
    """Root of sum_w diam(w)^s = 1 over the level-n words, or the words a
    row mask keeps (unique: strictly decreasing)."""
    lo, hi = table.ends(n)
    log_d = np.log(hi - lo if mask is None else (hi - lo)[mask])
    return descending_root(lambda s: log_sum_exp(s * log_d), 0.0, xtol=xtol)


def bowen_root(
    m: MarkovMap,
    *,
    tol: float = 1e-6,
    max_level: int = 22,
) -> Enclosure:
    """Dimension-type root of s -> P(-s log|T'|).

    Enclosure endpoints are roots of the certified lower/upper pressure
    curves (both strictly decreasing in s), and the estimate is the
    partition-ratio root, on the shared ladder.  Parabolic maps, whose
    upper endpoint is +inf at any feasible level (the neutral fixed word
    keeps every finite-level sup-sum at nonnegative pressure), take the
    Moran-equation root sum_w diam(w)^s = 1 as their estimate instead,
    exact at every level because their cylinders tile the interval, so
    they stop only on its Cauchy gap.

    Raises:
        NotConverged: neither criterion met by `max_level`.
    """
    table = CylinderTable(m, None, cache_words=SMALL_WORDS)  # one climb
    below = None  # level n-1 for the ratio curve, which the table drops
    zero = np.zeros(1)

    def rung(n: int, _last) -> _Rung:
        nonlocal below
        level = _Curves(table.level(n), gluing_length(m), table, below)
        if not m.has_parabolic:
            below = level.arr
            return level.roots(zero, zero, step=8.0, xtol=1e-12, view=_in_s)
        # The Moran root is exact for full-interval parabolic maps; the
        # ratio root would inherit the neutral word's slow drift.  Its
        # bracket never closes (upper is +inf), so it is always needed.
        return _Rung(
            lambda _live: _roots_in_b(_in_s(level.lower), zero, zero, step=8.0, xtol=1e-12),
            lambda _live: (np.array([math.inf]), None),
            lambda _live: (np.array([_moran_root(table, n)]), None),
        )

    return _one_lane(_ladder(rung, ["bowen root"], 2, max_level, tol=tol))
