"""Dimension spectra via the pressure curve b(a) and its Legendre transform.

b(a) is the unique root in b of P(a log|T'| + b phi) = 0 for a strictly
negative normalized potential phi.  Strict negativity makes the pressure
strictly decreasing in b, so roots of the certified lower/upper pressure
curves enclose b(a), while the partition-ratio root supplies the fast value
estimate.  The level ladder and its stopping rules are the ones pressure()
and bowen_root() use (see pressure.py); b_curve() runs it with one lane
per a, and b_of_a() is its one-lane case.

On parabolic maps b(a) hits an affine ray: once a <= -dim(Lambda) the pure
geometric pressure already vanishes and b(a) = 0 identically.  The ray's
start is one Bowen root per (map, tol, max_level), memoised on the map.
Points on the ray get the one-sided enclosure [0, U_n / (-sup phi)] coming
from the Lipschitz bound |dP/db| >= -sup phi.

The local dimension spectrum is the Legendre-type transform

    f(alpha) = inf_a (alpha * b(a) - a),

minimized per alpha by golden-section searches that advance together as
arrays over the alpha grid.  The alpha range endpoints are the extreme
cycle-mean ratios of (-phi-sums)/(log|T'|-sums) on the word digraph,
found by Howard policy iteration: the value is the ratio of a cycle that
attains it, checked against every edge's reduced cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DerivativeUnstable,
    NoParabolicOrbit,
    NotConverged,
    NotStrictlyNegative,
)
from .maps import MarkovMap
from .numerics import log_sum_exp
from .pressure import Enclosure, _Curves, _ladder, _one_lane, bowen_root, gluing_length
from .symbolic import Potential, shared_table


@dataclass(frozen=True)
class BPoint(Enclosure):
    """b(a) at one a: the ladder's `Enclosure`, or on a parabolic ray
    (`on_ray`, mode "ray") b = 0 in [0, U_n / (-sup phi)] at level n."""

    a: float
    on_ray: bool


@dataclass(frozen=True)
class AlphaPoint:
    """Local dimension alpha(a) = 1/b'(a) from central differences."""

    a: float
    alpha: float
    b_prime: float
    spread: float  # disagreement between the two finite-difference steps


@dataclass(frozen=True)
class SpectrumCurve:
    """Sampled Legendre spectrum f(alpha), with the b(a) point at each
    alpha's minimizer a*."""

    alphas: tuple[float, ...]
    f_values: tuple[float, ...]
    f_lowers: tuple[float, ...]  # alpha*b_lo(a*) - a*, not a bound: a* is approximate
    f_uppers: tuple[float, ...]  # certified upper bounds alpha*b_hi(a*) - a*
    points: tuple[BPoint, ...]
    alpha_min: float
    alpha_max: float


def _require_negative(m: MarkovMap, phi: Potential) -> float:
    sup = phi.bounds(m)[1]
    if sup >= 0.0:
        raise NotStrictlyNegative(
            f"spectrum potential must be strictly negative; sup is {sup:.6g}"
        )
    return sup


def _ray_start(m: MarkovMap, tol: float, max_level: int) -> float:
    """a = -dim(Lambda), where the ray b(a) = 0 starts on a parabolic map:
    one Bowen solve per (map, tol, max_level), kept beside the map's
    tables."""
    key = (tol, max_level)
    ray_at = m._ray_cache.get(key)
    if ray_at is None:
        ray_at = m._ray_cache[key] = -bowen_root(m, tol=tol, max_level=max_level).value
    return ray_at


def b_of_a(
    m: MarkovMap,
    phi: Potential,
    a: float,
    *,
    tol: float = 1e-8,
    max_level: int = 24,
) -> BPoint:
    """Root in b of P(a log|T'| + b phi) = 0 with certified enclosure: the
    one-lane case of `b_curve`.

    Args:
        m: the Markov map.
        phi: strictly negative normalized potential.
        a: coefficient on log|T'|.
        tol: stop when the enclosure width or the ratio Cauchy gap is below.
        max_level: cylinder depth cap for the ladder.

    Raises:
        NotStrictlyNegative: sup phi >= 0.
        NotConverged: neither criterion met by max_level (enclosure rides),
            or a root's bracket expansion failed (no enclosure).
    """
    return _one_lane(b_curve(m, phi, [a], tol=tol, max_level=max_level))


def b_curve(
    m: MarkovMap,
    phi: Potential,
    a_values: list[float] | tuple[float, ...] | np.ndarray,
    *,
    tol: float = 1e-8,
    max_level: int = 24,
) -> list[BPoint | NotConverged]:
    """b(a) over a list of a-values on one ladder, one lane per a off the
    parabolic ray: each level's roots are solved for all its live lanes
    together, with the bits a solve of that a alone gives.  An a whose
    ladder does not converge gets its NotConverged (enclosure included,
    unless a root's bracket expansion failed) in place of a BPoint.

    Each level's roots start from the previous level's estimate.  A
    level's curves live only while the ladder is on it, so the table can
    still drop levels past its cache; the ladder hands each level to the
    next rung, whose ratio curve reads it there instead of rebuilding a
    dropped level.

    Raises:
        NotStrictlyNegative: sup phi >= 0.
    """
    sup_phi = _require_negative(m, phi)
    table = shared_table(m, phi)
    a_all = [float(a) for a in a_values]
    try:
        ray_at = _ray_start(m, tol, max_level) if m.has_parabolic else None
    except NotConverged as exc:  # every lane needs the ray start; none has a bracket
        return [NotConverged(f"b({a:g}): no ray start: {exc}") for a in a_all]
    out: list = [None] * len(a_all)
    solve = []  # indices of the a-values off the ray
    for i, a in enumerate(a_all):
        if ray_at is not None and a <= ray_at + 1e-12:
            n = min(10, max_level)
            f_hi = table.level(n).combined_side(a, 0.0, 1)
            upper_pressure = max(log_sum_exp(f_hi) / n, 0.0)
            out[i] = BPoint(0.0, 0.0, upper_pressure / -sup_phi, n, "ray", a=a, on_ray=True)
        else:
            solve.append(i)
    a = np.array([a_all[i] for i in solve], dtype=float)
    below = None  # the previous rung's level arrays

    def rung(n: int, last):
        nonlocal below
        level = _Curves(table.level(n), gluing_length(m), table, below)
        below = level.arr
        start = np.zeros(a.size) if last is None else last
        return level.roots(a, start, step=1.0, xtol=1e-13)

    a_list = a.tolist()

    def record(i: int, *fields) -> BPoint:
        return BPoint(*fields, a=a_list[i], on_ray=False)

    found = _ladder(rung, [f"b({x:g})" for x in a_list], 2, max_level, tol=tol, record=record)
    for i, point in zip(solve, found):
        out[i] = point
    return out


def alpha_of_a(
    m: MarkovMap,
    phi: Potential,
    a: float,
    *,
    step: float = 1e-3,
    tol: float = 1e-10,
    max_level: int = 24,
) -> AlphaPoint:
    """alpha(a) = 1/b'(a) by central differences at two step sizes.

    The two-step spread is the consistency check: if the h and h/2 estimates
    disagree beyond 1% relative (or 1e-6 absolute), the derivative is deemed
    unreliable.

    Raises:
        DerivativeUnstable: inconsistent or nonpositive slope estimates.
    """
    xs = (a - step, a + step, a - step / 2, a + step / 2)
    found = b_curve(m, phi, xs, tol=tol, max_level=max_level)
    for point in found:
        if isinstance(point, NotConverged):
            raise point
    points = dict(zip(xs, found))
    if all(pt.on_ray for pt in points.values()):
        return AlphaPoint(a=a, alpha=math.inf, b_prime=0.0, spread=0.0)
    d1 = (points[a + step].value - points[a - step].value) / (2 * step)
    d2 = (points[a + step / 2].value - points[a - step / 2].value) / step
    spread = abs(d1 - d2)
    if spread > max(0.01 * abs(d2), 1e-6):
        raise DerivativeUnstable(
            f"slope estimates {d1:.9g} and {d2:.9g} disagree at a = {a:g}"
        )
    slope = (4.0 * d2 - d1) / 3.0  # Richardson step removes the h^2 term
    if slope <= 0.0:
        raise DerivativeUnstable(f"slope {slope:.9g} <= 0 at a = {a:g}")
    return AlphaPoint(a=a, alpha=1.0 / slope, b_prime=slope, spread=spread)


# ---------------------------------------------------------------------------
# alpha range from extreme cycle-mean ratios


HOWARD_CAP = 200  # policy iterations; word digraphs need one or two


def _min_cycle_ratio(
    nodes: int,
    tails: np.ndarray,
    heads: np.ndarray,
    num: np.ndarray,
    den: np.ndarray,
) -> float:
    """Minimum of sum(num)/sum(den) over directed cycles, den >= 0.

    Howard policy iteration.  A policy picks one out-edge per node; each
    node takes the ratio lam of the policy cycle it leads to, and potentials
    x with x[tail] = w + x[head] along the policy (0 at the cycle's least
    node), for edge weights w = num - lam*den.  Nodes switch to an edge
    whose head has a smaller lam, or the same lam and an x lower by more
    than that edge's rounding bound tol, until none does.  Zero-denominator
    cycles have ratio +inf and weigh w = -den, the large-lam limit of w/lam.
    The result is the ratio of a policy cycle, returned once one pass has
    checked that every edge's reduced cost w + x[head] - x[tail] is >= -tol
    under it.

    Raises:
        NotConverged: HOWARD_CAP iterations used up, or the check failed.
    """
    if not np.any(den > 0):
        return math.inf
    order = np.argsort(tails, kind="stable")
    tails, heads, num, den = tails[order], heads[order], num[order], den[order]
    if np.any(np.bincount(tails, minlength=nodes) == 0):
        raise ValueError("every node needs an out-edge")
    policy = first = np.searchsorted(tails, np.arange(nodes))
    node = np.arange(nodes)

    def weights(lam) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.where(np.isfinite(lam), num - lam * den, -den)

    for _ in range(HOWARD_CAP):
        succ = heads[policy]
        # 2**bit_length > nodes jumps end on the policy cycle; `low` is the
        # least node passed, so low[jump] names the cycle.
        jump, low = succ, node
        for _ in range(nodes.bit_length()):
            low, jump = np.minimum(low, low[jump]), jump[jump]
        root, on_cycle = low[jump], np.flatnonzero(np.bincount(jump, minlength=nodes))
        sums = [np.bincount(root[on_cycle], v[policy[on_cycle]], nodes) for v in (num, den)]
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = np.where(sums[1] > 0, sums[0] / sums[1], math.inf)[root]
        w = weights(lam[tails])
        x, up = np.where(root == node, 0.0, w[policy]), np.where(root == node, node, succ)
        # Rounding scale: |w| along each policy path, plus |num| + |w|
        # around the cycle it ends on (where lam rounds).
        size = np.abs(x)
        for _ in range(nodes.bit_length()):
            x, size, up = x + x[up], size + size[up], up[up]
        cyc = (np.abs(num) + np.abs(w))[policy[on_cycle]]
        size += np.bincount(root[on_cycle], cyc, nodes)[root]
        lam_head, lam_tail = lam[heads], lam[tails]
        w_head = weights(lam_head)
        value = w_head + x[heads]
        # Per edge, so that a small gap on an edge with small numbers is not
        # taken for rounding on a larger one; the subnormal term is the floor.
        scale = np.abs(num) + np.abs(w_head) + size[heads] + size[tails]
        tol = 8 * nodes * (np.finfo(float).eps * scale + np.finfo(float).smallest_subnormal)
        improves = (lam_head < lam_tail) | ((lam_head == lam_tail) & (value < x[tails] - tol))
        best = np.lexsort((value, lam_head, ~improves, tails))[first]
        better = improves[best] & (best != policy)
        if not np.any(better):
            break
        policy = np.where(better, best, policy)
    else:
        raise NotConverged(f"cycle ratio: no stable policy in {HOWARD_CAP} iterations")
    ratio = float(lam.min())
    reduced = weights(ratio) + x[heads] - x[tails]
    if not np.all(reduced >= -tol):
        raise NotConverged(
            f"cycle ratio {ratio!r}: reduced cost {float(np.min(reduced + tol)):.3g} "
            "beyond its rounding bound"
        )
    return ratio


def spectrum_endpoints(
    m: MarkovMap,
    phi: Potential,
    *,
    level: int = 8,
) -> tuple[Enclosure, Enclosure]:
    """(alpha_min, alpha_max) as extreme cycle-mean ratios, with enclosures
    (mode "cycle", at `level`).

    alpha_max is +inf exactly when the map has a parabolic orbit (Birkhoff
    ratios along orbits approaching it diverge); its enclosure is then
    (inf, inf), of width nan.  Enclosures come from solving the same
    cycle-ratio problem on the outer bracket combinations.  The word
    digraph has the (level-1)-words as nodes and the level-words as edges,
    each weighted by its brackets of S(-phi) and S(log|T'|).
    """
    _require_negative(m, phi)
    table = shared_table(m, phi)
    tails, heads = table.links(level)
    nodes, arr = table.level(level - 1).count, table.level(level)
    num_lo, num_hi = -arr.phi_hi, -arr.phi_lo
    den_lo, den_hi = arr.psi_lo, arr.psi_hi
    mid_num = 0.5 * (num_lo + num_hi)
    mid_den = 0.5 * (den_lo + den_hi)
    a_min = _min_cycle_ratio(nodes, tails, heads, mid_num, mid_den)
    # Outer bracket: smaller numerators with larger denominators, and back.
    a_min_lo = _min_cycle_ratio(nodes, tails, heads, num_lo, den_hi)
    a_min_hi = _min_cycle_ratio(nodes, tails, heads, num_hi, den_lo)
    alpha_min = Enclosure(a_min, a_min_lo, a_min_hi, level, "cycle")
    if m.has_parabolic:
        return alpha_min, Enclosure(math.inf, math.inf, math.inf, level, "cycle")
    a_max = -_min_cycle_ratio(nodes, tails, heads, -mid_num, mid_den)
    a_max_lo = -_min_cycle_ratio(nodes, tails, heads, -num_lo, den_hi)
    a_max_hi = -_min_cycle_ratio(nodes, tails, heads, -num_hi, den_lo)
    ends = (min(a_max_lo, a_max_hi), max(a_max_lo, a_max_hi))
    return alpha_min, Enclosure(a_max, *ends, level, "cycle")


def dimension_at_infinite_alpha(
    m: MarkovMap,
    *,
    tol: float = 1e-6,
    max_level: int = 22,
) -> float:
    """Constant tail value of f(alpha) as alpha -> inf on a parabolic map.

    The tail equals dim(Lambda): on the ray the Legendre objective is -a,
    minimized at the ray onset a = -dim(Lambda).

    Raises:
        NoParabolicOrbit: the map is uniformly expanding, so alpha_max is
            finite and there is no tail.
    """
    if not m.has_parabolic:
        raise NoParabolicOrbit("finite alpha_max: spectrum has no infinite tail")
    return bowen_root(m, tol=tol, max_level=max_level).value


# ---------------------------------------------------------------------------
# Legendre transform

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_CAP = 120  # golden-section steps per search
SEARCHES = 8  # golden-section searches per lane: the first and its widenings
EDGE = 0.02  # share of a bracket's span, at either end, that widens it

# The Legendre search's work, counted over every call of `_convex_argmin`:
# rounds (calls of its objective), searches begun, and points asked only
# for a successor search.
legendre_counts = {"rounds": 0, "searches": 0, "successor_points": 0}


def _convex_argmin(
    f: Callable, lanes: int, lo: float, hi: float, *, xtol: float
) -> np.ndarray:
    """Per lane, the minimizer of a unimodal f(lane, a) by golden-section
    search on [lo, hi] to xtol (at most GOLDEN_CAP steps), searched again on
    the bracket widened by its span toward an end, at most SEARCHES searches
    in all, while the minimizer lies within EDGE of the span from that end.
    Each lane gets the bits of that scalar loop.

    The lanes advance together: each round asks f at every search's new
    points (both interior points where a search starts) in one call
    f(lanes, a, ahead) over arrays, and no round is spent on an outcome
    already decided.  The minimizer lies in the bracket [a, b] a search
    holds, and x - lo rounds monotonically in x, so a search whose [a, b]
    lies in one end's zone widens whatever it finds there: it ends at once,
    unless it is the last.  From its first step on, a search whose [a, b]
    still touches an end's zone runs its widened successor beside it (lane
    i's current search is row i, its successor row lanes + i; after a step
    [a, b] spans at most 0.62 of the bracket and touches one zone at most),
    dropped once [a, b] leaves the zone; a search that widens that way
    hands over to its successor, steps ahead.

    f raises where it cannot evaluate a point, except at entries where
    `ahead` holds (asked only by a successor): there it gives nan, which
    ends that successor."""
    rows = 2 * lanes
    lo, hi = np.full(rows, float(lo)), np.full(rows, float(hi))
    a, b, c, d, fc, fd = (np.zeros(rows) for _ in range(6))
    steps, number = np.zeros(rows, dtype=int), np.ones(rows, dtype=int)
    need_c, need_d = np.zeros(rows, dtype=bool), np.zeros(rows, dtype=bool)  # points to ask
    state = (lo, hi, a, b, c, d, fc, fd, steps, number, need_c, need_d)
    found = np.zeros(lanes)
    toward = np.zeros(lanes, dtype=int)  # successor begun: -1 low, 1 high, 0 not yet
    running = np.zeros(lanes, dtype=bool)  # its successor still steps or waits
    live = np.arange(lanes)  # unfinished lanes, each the row of its current search

    def begin(s: np.ndarray) -> None:
        a[s], b[s], steps[s] = lo[s], hi[s], 0
        c[s] = b[s] - _INV_GOLDEN * (b[s] - a[s])
        d[s] = a[s] + _INV_GOLDEN * (b[s] - a[s])
        need_c[s] = need_d[s] = True
        legendre_counts["searches"] += s.size

    def ended(s: np.ndarray) -> np.ndarray:
        """The searches at rows s that end: before the last search, those
        decided to widen; and those with no point pending that are within
        xtol or at GOLDEN_CAP steps."""
        lo_s, zone = lo[s], EDGE * (hi[s] - lo[s])
        decided = (b[s] - lo_s < zone) | ((a[s] - lo_s >= zone) & (hi[s] - a[s] < zone))
        done = ((b[s] - a[s] <= xtol) | (steps[s] == GOLDEN_CAP)) & ~(need_c[s] | need_d[s])
        return (decided & (number[s] < SEARCHES)) | done

    def step(s: np.ndarray) -> None:
        left = fc[s] <= fd[s]
        t = s[left]  # the minimum is left of d: [a, d] with c the new point
        b[t], d[t], fd[t] = d[t], c[t], fc[t]
        c[t] = b[t] - _INV_GOLDEN * (b[t] - a[t])
        need_c[t] = True
        t = s[~left]  # the minimum is right of c: [c, b] with d the new point
        a[t], c[t], fc[t] = c[t], d[t], fd[t]
        d[t] = a[t] + _INV_GOLDEN * (b[t] - a[t])
        need_d[t] = True
        steps[s] += 1

    def drop(t: np.ndarray) -> None:
        """End the successors of lanes t."""
        running[t] = need_c[t + lanes] = need_d[t + lanes] = False

    def settle(over: np.ndarray) -> np.ndarray:
        """End the current searches of lanes `over`: each lane finishes, or
        widens into its successor, returned, or into a fresh search."""
        nonlocal live
        found[over] = np.where(fc[over] <= fd[over], c[over], d[over])
        span = hi[over] - lo[over]
        low = found[over] - lo[over] < EDGE * span
        high = ~low & (hi[over] - found[over] < EDGE * span)
        widen = (low | high) & (number[over] < SEARCHES)
        live = np.setdiff1d(live, over[~widen], assume_unique=True)
        ready = widen & running[over] & (toward[over] == np.where(low, -1, 1))
        need_c[over] = need_d[over] = False
        for v in state:
            v[over[ready]] = v[over[ready] + lanes]
        drop(over)
        toward[over] = 0
        fresh = widen & ~ready
        over, low, high, span, s = over[fresh], low[fresh], high[fresh], span[fresh], over[ready]
        lo[over] = np.where(low, lo[over] - span, lo[over])
        hi[over] = np.where(high, hi[over] + span, hi[over])
        number[over] += 1
        begin(over)
        return s

    begin(live)
    while live.size:
        ask_c, ask_d = np.flatnonzero(need_c), np.flatnonzero(need_d)
        need_c[ask_c] = need_d[ask_d] = False
        asked = np.concatenate([ask_c, ask_d])
        ahead = asked >= lanes
        values = f(asked % lanes, np.concatenate([c[ask_c], d[ask_d]]), ahead)
        legendre_counts["rounds"] += 1
        legendre_counts["successor_points"] += int(np.count_nonzero(ahead))
        fc[ask_c], fd[ask_d] = values[: ask_c.size], values[ask_c.size :]
        running[asked[ahead & np.isnan(values)] - lanes] = False
        s = np.concatenate([live, np.flatnonzero(running) + lanes])
        step(s[~ended(s)])
        s = np.flatnonzero(running) + lanes  # a decided successor waits, asking nothing
        s = s[ended(s)]
        need_c[s] = need_d[s] = False
        over = live[ended(live)]
        while over.size:
            over = settle(over)
            over = over[ended(over)]
        # Successors of the current searches that stepped, where one follows.
        s = live[(steps[live] > 0) & (number[live] < SEARCHES)]
        span = hi[s] - lo[s]
        zone = EDGE * span
        want = np.where(a[s] - lo[s] < zone, -1, np.where(hi[s] - b[s] < zone, 1, 0))
        drop(s[running[s] & (toward[s] != want)])
        new = (toward[s] == 0) & (want != 0)
        s, want, span = s[new], want[new], span[new]
        t = s + lanes
        lo[t] = np.where(want < 0, lo[s] - span, lo[s])
        hi[t] = np.where(want > 0, hi[s] + span, hi[s])
        number[t], toward[s], running[s] = number[s] + 1, want, True
        begin(t)
    return found


def legendre_spectrum(
    m: MarkovMap,
    phi: Potential,
    alphas: list[float] | tuple[float, ...] | np.ndarray,
    *,
    a_lo: float = -4.0,
    a_hi: float = 4.0,
    tol: float = 1e-8,
    max_level: int = 24,
    refine_tol: float = 1e-7,
) -> SpectrumCurve:
    """f(alpha) = inf_a (alpha*b(a) - a) over a sampled alpha grid.

    The objective is convex in a (b is convex; the ray keeps it so), so each
    alpha is minimized by golden-section search, with the initial [a_lo, a_hi]
    bracket widened automatically while the minimizer sits on its edge.
    The searches advance together (see `_convex_argmin`): each round, the
    a values that no alpha has asked for before (by round(a, 12)) are
    solved in one `b_curve`.  A search already decided to widen ends at
    once, and the widened search it would start runs ahead beside it, so
    each alpha gets the minimizer of the search run alone in fewer rounds.
    A NotConverged from b(a) ends the whole transform once a search reads
    it; at a point only a search running ahead asked, it ends that search
    alone.

    Values outside the admissible alpha range come out negative; they are
    reported as computed (no clamping), matching the convention f < 0 means
    "no points with that local dimension".
    """
    _require_negative(m, phi)
    cache: dict[float, BPoint | NotConverged] = {}  # b(a) by round(a, 12)
    grid = np.asarray(alphas, dtype=float)

    def objective(lanes: np.ndarray, a: np.ndarray, ahead: np.ndarray) -> np.ndarray:
        """alpha*b(a) - a per lane, solving every new a in one b_curve; a
        b(a) that did not converge is raised, or nan where only a successor
        search asked it."""
        keys = [round(x, 12) for x in a.tolist()]
        new = [key for key in dict.fromkeys(keys) if key not in cache]
        cache.update(zip(new, b_curve(m, phi, new, tol=tol, max_level=max_level)))
        points = [cache[key] for key in keys]
        for point, spec in zip(points, ahead.tolist()):
            if isinstance(point, NotConverged) and not spec:
                raise point
        return grid[lanes] * np.array([getattr(pt, "value", math.nan) for pt in points]) - a

    found = _convex_argmin(objective, grid.size, a_lo, a_hi, xtol=refine_tol)
    # Each minimizer's point, solved at a* = round(a, 12), the a it holds.
    rows = [(alpha, cache[round(a, 12)]) for alpha, a in zip(grid, found.tolist())]
    amin, amax = spectrum_endpoints(m, phi)
    return SpectrumCurve(
        alphas=tuple(float(x) for x in alphas),
        f_values=tuple(alpha * pt.value - pt.a for alpha, pt in rows),
        f_lowers=tuple(alpha * pt.lower - pt.a for alpha, pt in rows),
        f_uppers=tuple(alpha * pt.upper - pt.a for alpha, pt in rows),
        points=tuple(pt for _, pt in rows),
        alpha_min=amin.value,
        alpha_max=amax.value,
    )
