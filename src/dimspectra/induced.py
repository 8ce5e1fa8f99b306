"""Truncated first-return systems over a base region.

For a parabolic map, iterating until first return to a base away from the
neutral cylinder produces a countable family of uniformly expanding full
branches, one per return word.  Only branches with return time <= N are
kept, and every output carries a bound for the dropped tail.  The brackets
are wide: on Farey with Bernoulli(1/2) at N = 40, b(1) = 2.277 in
[1.967, 2.601], and for a > 0 the brackets are 0.3-1.4 wide.  The printed
`b` is the root for the midpoint of each branch's Birkhoff brackets, not a
limit of converging bounds.

The base defaults to the union of non-parabolic first-level cylinders.  On
a map with no parabolic orbit the construction degenerates to the map
itself (every return time is 1), which is the cross-check used by tests.

The kept branches are one level of rows (n = 1, no gluing) for
`pressure._Curves`, which gives the lower and upper curves; this module
adds the midpoint estimate and the dropped-tail bound.  `induced_b_curve`
solves its whole a-grid as arrays: each of its steps (ray check, four
roots, two tail checks) is one call over the a-values still live, and an
a that stops leaves, bit for bit what solving each a alone gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .errors import (
    NotConverged,
    NotStrictlyNegative,
    TailDominates,
    TruncationTooSmall,
)
from .maps import MarkovMap
from .numerics import log_sum_exp
from .pressure import Enclosure, _Curves, _Lanes, _log_z, _one_lane, _per_lane, _roots_in_b
from .symbolic import LevelArrays, Potential, word_rows

WORD_CAP = 1 << 20


@dataclass(frozen=True)
class InducedBranch:
    """One return word: domain, return time, and block Birkhoff brackets."""

    word: tuple[int, ...]
    return_time: int
    domain: tuple[float, float]
    psi_bracket: tuple[float, float]
    phi_bracket: tuple[float, float] | None


@dataclass(frozen=True)
class InducedSystem:
    """Truncated first-return system on a base interval."""

    base_symbols: tuple[int, ...]
    base: tuple[float, float]
    truncation: int
    branches: tuple[InducedBranch, ...]
    coverage: float


def _excursion_words(
    m: MarkovMap, base: set[int], max_len: int
) -> list[tuple[int, ...]]:
    """Return words: a base symbol, then excursion symbols, length <= max_len."""
    words: list[tuple[int, ...]] = []
    frontier: list[tuple[int, ...]] = [(s,) for s in sorted(base)]
    for _ in range(max_len):
        nxt: list[tuple[int, ...]] = []
        for w in frontier:
            # admissible return: some base symbol can follow
            if any(m.transition[w[-1], b] for b in base):
                words.append(w)
            for e in range(m.p):
                if e not in base and m.transition[w[-1], e]:
                    nxt.append(w + (e,))
            if len(words) + len(nxt) > WORD_CAP:
                raise TruncationTooSmall(
                    "excursion tree exceeds the word cap; lower the truncation"
                )
        frontier = nxt
    return words


def build_induced(
    m: MarkovMap,
    phi: Potential | None,
    *,
    base_symbols: Sequence[int] | None = None,
    truncation: int = 40,
) -> InducedSystem:
    """First-return system on the base, keeping return times <= truncation.

    Args:
        m: the map.
        phi: potential to sum over return blocks (None for dimension-only
            use).
        base_symbols: first-level cylinders forming the base; default is
            every non-parabolic symbol (the whole space when the map is
            uniformly expanding).
        truncation: largest return time kept.

    Raises:
        TruncationTooSmall: kept branches carry less than half of the base
            mass under the Gibbs weights exp(S phi) (or exp(-S psi) when
            phi is None), so the truncated system misrepresents the base.
    """
    parabolic_first = {orbit.word[0] for orbit in m.parabolic_orbits}
    if base_symbols is None:
        base = set(range(m.p)) - parabolic_first
    else:
        base = set(int(s) for s in base_symbols)
    if not base:
        raise ValueError("base must contain at least one symbol")
    spans = [m.core_spans[s] for s in sorted(base)]
    for (_, a_hi), (b_lo, _) in zip(spans, spans[1:]):
        if b_lo < a_hi - 1e-12:
            raise ValueError("base symbols must have disjoint cylinders")
    base_iv = (spans[0][0], spans[-1][1])

    words = _excursion_words(m, base, truncation)
    lo, hi, psi_lo, psi_hi, phi_lo, phi_hi = word_rows(m, words, phi, terminal=base_iv)
    domains, psis = zip(lo.tolist(), hi.tolist()), zip(psi_lo.tolist(), psi_hi.tolist())
    phis = repeat(None) if phi is None else zip(phi_lo.tolist(), phi_hi.tolist())
    branches = sorted(
        map(InducedBranch, words, map(len, words), domains, psis, phis), key=lambda br: br.domain[0]
    )
    # Conditional Gibbs mass of each return word given the base; the full
    # countable family sums to 1 up to distortion.
    log_weights = -0.5 * (psi_lo + psi_hi) if phi is None else 0.5 * (phi_lo + phi_hi)
    coverage = float(np.exp(log_weights).sum())
    if coverage < 0.5:
        raise TruncationTooSmall(
            f"kept branches cover {coverage:.3f} of the base mass; "
            f"raise the truncation above {truncation}"
        )
    return InducedSystem(
        base_symbols=tuple(sorted(base)),
        base=base_iv,
        truncation=truncation,
        branches=tuple(branches),
        coverage=coverage,
    )


@dataclass(frozen=True)
class InducedBPoint(Enclosure):
    """b(a) from the truncated induced pressure equation, an `Enclosure`
    whose level is the truncation.

    `lower`/`upper` bracket the root: the lower root ignores the dropped
    tail, the upper root adds the geometric tail bound (mode
    "truncation").  `on_ray` (mode "ray") marks parameters where the full
    induced sum stays below 1 at b = 0, the linear-tail regime of the
    direct spectrum.
    """

    a: float
    tail_ratio: float
    on_ray: bool


def _rows(branches) -> LevelArrays:
    """Branches as one level of rows (n = 1, one induced step per branch):
    their domains, Birkhoff brackets and words' end symbols, without a
    prefix code."""
    cols = np.array([br.domain + br.psi_bracket + br.phi_bracket for br in branches]).T
    first, last = np.array([(br.word[0], br.word[-1]) for br in branches], dtype=np.int8).T
    return LevelArrays(1, *cols, None, first, last)


class _Returns:
    """The induced pressure curves of a truncated system.

    `level` holds every kept branch as one level of rows with no gluing
    symbols, so its lower and upper curves are the ladder's; the midpoint
    estimate and the dropped-tail bound are the induced system's own.  Each
    curve takes arrays (a, b) of one entry per lane, bit for bit the
    scalar expression on that a's branches.
    """

    def __init__(self, isys: InducedSystem):
        self.level = _Curves(_rows(isys.branches))
        n = isys.truncation
        # The last four return times that hold branches.
        near = [[br for br in isys.branches if br.return_time == r]
                for r in range(max(1, n - 3), n + 1)]
        self.near = [_rows(brs) for brs in near if brs]
        self.has_last = bool(near[-1])

    def mid(self, a: np.ndarray, b: np.ndarray, held=None) -> np.ndarray:
        """Pressure at the midpoint of every branch's brackets."""
        arr = self.level.arr

        def f_mid(a):
            return 0.5 * (a[:, None] * arr.psi_lo + a[:, None] * arr.psi_hi)

        def at(a, b, f=None):
            f = f_mid(a) if f is None else f
            return log_sum_exp(f + (b[:, None] * 0.5) * (arr.phi_lo + arr.phi_hi))

        rows = held and held((id(arr), "mid"), arr.count, f_mid)
        return _per_lane(at, arr.count, a, b) if rows is None else at(a, b, rows)

    def tail_ratio(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-return-time growth ratio of the upper level sums near N."""
        return _growth(self._level_sums(a, b), b.size)

    def padded(self, a: np.ndarray, b: np.ndarray, held=None) -> np.ndarray:
        """The upper pressure with the geometric bound of the dropped tail
        added; +inf where the level sums do not shrink."""
        sums = self._level_sums(a, b, held)
        ratio = _growth(sums, b.size)
        out = np.full(b.size, math.inf)
        ok = ratio < 1.0
        if ok.any():
            last = sums[-1] if self.has_last else np.full(b.size, -math.inf)
            tail = [
                _tail_log_bound(s, r) for s, r in zip(last[ok].tolist(), ratio[ok].tolist())
            ]
            # held gives rows for every live lane: it serves when all are ok.
            upper = self.level.upper(a[ok], b[ok], held if ok.all() else None)
            out[ok] = np.logaddexp(upper, tail)
        return out

    def _level_sums(self, a: np.ndarray, b: np.ndarray, held=None) -> list[np.ndarray]:
        """Upper log-sums of each kept return-time level near N."""
        return [_log_z(rows, 1, a, b, held) for rows in self.near]


def _growth(sums: list[np.ndarray], lanes: int) -> np.ndarray:
    """exp of the largest step between consecutive level sums (0 with
    fewer than two levels)."""
    if len(sums) < 2:
        return np.zeros(lanes)
    gaps = np.diff(np.stack(sums, axis=1), axis=1).max(axis=1)
    return np.array([float(np.exp(g)) for g in gaps])


def _tail_log_bound(last: float, ratio: float) -> float:
    """log of sum_{r > N} (level sum at N) * ratio^(r - N), geometric bound."""
    if ratio <= 0.0:
        return -math.inf
    return last + math.log(ratio) - math.log1p(-ratio)


def induced_b_curve(
    isys: InducedSystem,
    a_values: Sequence[float],
    *,
    tol: float = 1e-8,
    tail_tol: float = 0.05,
) -> list[InducedBPoint | NotConverged]:
    """Solve the truncated induced pressure equation for b at each a.

    The induced pressure of the countable full shift is the log of the sum
    over branches of exp(a*psi + b*phi) evaluated on the return blocks;
    the root in b is bracketed by solving with and without the dropped-tail
    bound.  The tail is bounded by a geometric extrapolation of the last
    return-time level sums.  Every a is one lane, and each step evaluates
    a curve, or solves its roots, for all lanes still live in one call,
    with the bits a solve of that a alone would give.

    Returns:
        One InducedBPoint per a; where a root's bracket expansion fails,
        a NotConverged in its place (it carries no enclosure).

    Raises:
        ValueError: the system was built without a potential.
        NotStrictlyNegative: the upper Birkhoff bracket of some branch's
            potential block is >= 0.
        TailDominates: at some a the level sums still grow at the kept
            horizon (no geometric tail bound exists), or the tail bound
            moves the upper root by more than tail_tol; raise the
            truncation.  The first such a in grid order is reported.
    """
    if isys.branches[0].phi_bracket is None:
        raise ValueError("induced system was built without a potential")
    sup_bar = max(br.phi_bracket[1] for br in isys.branches)
    if sup_bar >= 0.0:
        raise NotStrictlyNegative(
            f"induced potential must be strictly negative; sup is {sup_bar:.6g}"
        )
    # A genuinely induced system has countably many branches; for b < 0 the
    # dropped tail diverges (block sums of phi grow linearly in the return
    # time), so roots are clamped to b >= 0.  Trivial inducing (all return
    # times 1) is the direct system, where negative roots are meaningful.
    countable = max(br.return_time for br in isys.branches) > 1
    curves = _Returns(isys)
    a = np.array(a_values, dtype=float)
    lanes = _Lanes(a.size)
    if countable:
        # Ray check: if even the tail-padded upper sum stays below 1 at
        # b = 0, the equation has no nonnegative root and b(a) = 0.
        zero = np.zeros(a.size)
        ray = curves.padded(a, zero) <= 0.0
        if ray.any():
            upper0, ratio0 = np.zeros(a.size), np.zeros(a.size)
            upper0[ray] = curves.level.upper(a[ray], zero[ray])
            ratio0[ray] = curves.tail_ratio(a[ray], zero[ray])
            lanes.leave(ray, lambda i: InducedBPoint(
                0.0, 0.0, max(upper0[i].item(), 0.0) / (-sup_bar), isys.truncation, "ray",
                a=a[i].item(), tail_ratio=ratio0[i].item(), on_ray=True,
            ))

    def root(curve) -> np.ndarray:
        return lanes.ask(lambda live: _roots_in_b(
            curve, a[live], np.ones(live.size), step=1.0, xtol=tol
        ))

    def tail(live: np.ndarray):
        b = b_lower[live]  # at max(b_lower, 0.0)
        return curves.tail_ratio(a[live], np.where(0.0 > b, 0.0, b)), None

    b_lower = root(curves.level.lower)
    ratio = lanes.ask(tail)
    # A lane where the tail dominates leaves with the message it raises.
    lanes.leave(ratio[lanes.live] >= 1.0, lambda i: (
        f"level sums grow by {ratio[i]:.3f} per return time at b = {b_lower[i]:.4g}; "
        "raise the truncation"
    ))
    b_plain = root(curves.level.upper)
    b_upper = root(curves.padded)
    lanes.leave(b_upper[lanes.live] - b_plain[lanes.live] > tail_tol, lambda i: (
        f"dropped-tail bound moves the root from {b_plain[i]:.4f} to "
        f"{b_upper[i]:.4f} (> {tail_tol:.3g}); raise the truncation"
    ))
    mid = root(curves.mid)

    def point(i: int) -> InducedBPoint:
        lower, upper, b = b_lower[i].item(), b_upper[i].item(), mid[i].item()
        lo_b, hi_b = min(lower, upper), max(lower, upper)
        if countable:
            lo_b, hi_b = max(lo_b, 0.0), max(hi_b, 0.0)
            b = max(b, 0.0)
        return InducedBPoint(
            min(max(b, lo_b), hi_b), lo_b, hi_b, isys.truncation, "truncation",
            a=a[i].item(), tail_ratio=ratio[i].item(), on_ray=False,
        )

    lanes.leave(np.ones(lanes.live.size, dtype=bool), point)
    for found in lanes.out:
        if isinstance(found, str):
            raise TailDominates(found)
    return lanes.out


def induced_b_point(
    isys: InducedSystem,
    a: float,
    *,
    tol: float = 1e-8,
    tail_tol: float = 0.05,
) -> InducedBPoint:
    """`induced_b_curve` at one a.

    Raises:
        ValueError, NotStrictlyNegative, TailDominates: as `induced_b_curve`.
        NotConverged: a root's bracket expansion failed (no enclosure).
    """
    return _one_lane(induced_b_curve(isys, [a], tol=tol, tail_tol=tail_tol))
