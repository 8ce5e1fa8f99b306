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

`induced_b_curve` solves a grid of a-values in lockstep: each a is one
lane of root solves, and every round evaluates all lanes asking the same
curve in one numpy call, bit for bit what solving each a alone gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    NotConverged,
    TailDominates,
    TruncationTooSmall,
)
from .maps import MarkovMap
from .numerics import _CHUNK, _asking, _call_stacked, _descend, _lockstep, log_sum_exp
from .symbolic import Potential, cylinders

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
    tail_weight: float


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

    branches: list[InducedBranch] = []
    log_weights: list[float] = []
    words = _excursion_words(m, base, truncation)
    for cyl in cylinders(m, words, phi, terminal=base_iv):
        branches.append(
            InducedBranch(
                word=cyl.word,
                return_time=len(cyl.word),
                domain=cyl.interval,
                psi_bracket=cyl.birkhoff_psi,
                phi_bracket=cyl.birkhoff_phi,
            )
        )
        if phi is not None:
            log_weights.append(0.5 * sum(cyl.birkhoff_phi))
        else:
            log_weights.append(-0.5 * sum(cyl.birkhoff_psi))
    branches.sort(key=lambda b: b.domain[0])
    # Conditional Gibbs mass of each return word given the base; the full
    # countable family sums to 1 up to distortion.
    coverage = float(np.exp(log_weights).sum()) if log_weights else 0.0
    if coverage < 0.5:
        raise TruncationTooSmall(
            f"kept branches cover {coverage:.3f} of the base mass; "
            f"raise the truncation above {truncation}"
        )
    last = [b for b in branches if b.return_time == truncation]
    tail_weight = (
        float(np.exp([0.5 * sum(b.phi_bracket) for b in last]).sum())
        if (phi is not None and last)
        else 0.0
    )
    return InducedSystem(
        base_symbols=tuple(sorted(base)),
        base=base_iv,
        truncation=truncation,
        branches=tuple(branches),
        coverage=coverage,
        tail_weight=tail_weight,
    )


@dataclass(frozen=True)
class InducedBPoint:
    """b(a) from the truncated induced pressure equation.

    `lower`/`upper` bracket the root: the lower root ignores the dropped
    tail, the upper root adds the geometric tail bound.  `on_ray` marks
    parameters where the full induced sum stays below 1 at b = 0, the
    linear-tail regime of the direct spectrum.
    """

    a: float
    b: float
    lower: float
    upper: float
    tail_ratio: float
    on_ray: bool


class _Curves:
    """The induced pressure curves of a block of a-values, one row per a.

    Each curve takes arrays of lane rows and b-values and gives one value
    per entry, bit for bit the scalar expression on that a's branches (a
    row of `log_sum_exp` is the 1-d call on it), so every lane asking a
    curve in a round is answered by one call (`_call_stacked`).
    """

    def __init__(self, isys: InducedSystem, a_values: Sequence[float]):
        psi_lo, psi_hi, phi_lo, phi_hi = np.array(
            [br.psi_bracket + br.phi_bracket for br in isys.branches]
        ).T
        a = np.array(a_values, dtype=float)[:, None]
        # a*psi at the bracket end that bounds it from below / above
        self.f_lo = np.where(a >= 0.0, a * psi_lo, a * psi_hi)
        self.f_hi = np.where(a >= 0.0, a * psi_hi, a * psi_lo)
        self.f_mid = 0.5 * (self.f_lo + self.f_hi)
        self.phi_lo, self.phi_hi = phi_lo, phi_hi
        self.phi_sum = phi_lo + phi_hi
        times = np.array([br.return_time for br in isys.branches])
        n = isys.truncation
        # (f_hi, phi_hi) of the last four return times that hold branches.
        masks = [times == r for r in range(max(1, n - 3), n + 1)]
        self.levels = [(self.f_hi[:, k], phi_hi[k]) for k in masks if k.any()]
        self.has_last = bool(masks[-1].any())

    def lower(self, rows: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Pressure of the sums over the lower brackets, dropped tail ignored."""
        return log_sum_exp(self.f_lo[rows] + _times(b, self.phi_lo, self.phi_hi))

    def upper(self, rows: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Pressure of the sums over the upper brackets, dropped tail ignored."""
        return log_sum_exp(self.f_hi[rows] + _times(b, self.phi_hi, self.phi_lo))

    def mid(self, rows: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Pressure at the midpoint of every branch's brackets."""
        return log_sum_exp(self.f_mid[rows] + (b[:, None] * 0.5) * self.phi_sum)

    def tail_ratio(self, rows: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-return-time growth ratio of the upper level sums near N."""
        return _growth(self._level_sums(rows, b), b.size)

    def padded(self, rows: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The upper pressure with the geometric bound of the dropped tail
        added; +inf where the level sums do not shrink."""
        sums = self._level_sums(rows, b)
        ratio = _growth(sums, b.size)
        out = np.full(b.size, math.inf)
        ok = ratio < 1.0
        if ok.any():
            last = sums[-1] if self.has_last else np.full(b.size, -math.inf)
            tail = [
                _tail_log_bound(s, r) for s, r in zip(last[ok].tolist(), ratio[ok].tolist())
            ]
            out[ok] = np.logaddexp(self.upper(rows[ok], b[ok]), tail)
        return out

    def _level_sums(self, rows: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
        """Upper log-sums of each kept return-time level near N."""
        return [log_sum_exp(f[rows] + b[:, None] * phi) for f, phi in self.levels]


def _times(b: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """b*phi, with phi at `pos` for b >= 0 and at `neg` below."""
    b = b[:, None]
    return np.where(b >= 0.0, b * pos, b * neg)


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


def _lane(
    curves: _Curves,
    row: int,
    a: float,
    *,
    countable: bool,
    sup_bar: float,
    tol: float,
    tail_tol: float,
):
    """One a's solve (see `induced_b_curve`), yielding requests
    (curve, row, b)."""

    def root(curve):
        try:
            return (yield from _asking(lambda b: (curve, row, b), _descend(1.0, xtol=tol)))
        except ValueError as exc:
            raise NotConverged("induced pressure root expansion failed") from exc

    if countable:
        # Ray check: if even the tail-padded upper sum stays below 1 at
        # b = 0, the equation has no nonnegative root and b(a) = 0.
        if (yield (curves.padded, row, 0.0)) <= 0.0:
            upper0 = yield (curves.upper, row, 0.0)
            return InducedBPoint(
                a=a,
                b=0.0,
                lower=0.0,
                upper=max(upper0, 0.0) / (-sup_bar),
                tail_ratio=(yield (curves.tail_ratio, row, 0.0)),
                on_ray=True,
            )
    b_lower = yield from root(curves.lower)
    ratio = yield (curves.tail_ratio, row, max(b_lower, 0.0))
    if ratio >= 1.0:
        raise TailDominates(
            f"level sums grow by {ratio:.3f} per return time at b = {b_lower:.4g}; "
            "raise the truncation"
        )
    b_plain = yield from root(curves.upper)
    b_upper = yield from root(curves.padded)
    if b_upper - b_plain > tail_tol:
        raise TailDominates(
            f"dropped-tail bound moves the root from {b_plain:.4f} to "
            f"{b_upper:.4f} (> {tail_tol:.3g}); raise the truncation"
        )
    mid = yield from root(curves.mid)
    lo_b, hi_b = min(b_lower, b_upper), max(b_lower, b_upper)
    if countable:
        lo_b, hi_b = max(lo_b, 0.0), max(hi_b, 0.0)
        mid = max(mid, 0.0)
    return InducedBPoint(
        a=a,
        b=min(max(mid, lo_b), hi_b),
        lower=lo_b,
        upper=hi_b,
        tail_ratio=ratio,
        on_ray=False,
    )


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
    return-time level sums.  Every a's solve runs in lockstep: each round
    evaluates all pending lanes of a curve in one call, with the bits a
    solve of that a alone would give.

    Returns:
        One InducedBPoint per a; where a root's bracket expansion fails,
        a NotConverged in its place (it carries no enclosure).

    Raises:
        ValueError: the system was built without a potential, or its
            potential is not strictly negative.
        TailDominates: at some a the level sums still grow at the kept
            horizon (no geometric tail bound exists), or the tail bound
            moves the upper root by more than tail_tol; raise the
            truncation.  The first such a in grid order is reported.
    """
    if isys.branches[0].phi_bracket is None:
        raise ValueError("induced system was built without a potential")
    sup_bar = max(br.phi_bracket[1] for br in isys.branches)
    if sup_bar >= 0.0:
        raise ValueError("induced potential must be strictly negative")
    # A genuinely induced system has countably many branches; for b < 0 the
    # dropped tail diverges (block sums of phi grow linearly in the return
    # time), so roots are clamped to b >= 0.  Trivial inducing (all return
    # times 1) is the direct system, where negative roots are meaningful.
    countable = max(br.return_time for br in isys.branches) > 1
    a_values = [float(a) for a in a_values]
    # Lanes per block: no curve array holds more than one log-sum-exp chunk.
    per_block = max(1, _CHUNK // len(isys.branches))
    found: list = []
    for i in range(0, len(a_values), per_block):
        block = a_values[i : i + per_block]
        curves = _Curves(isys, block)
        lanes = [
            _lane(curves, row, a, countable=countable, sup_bar=sup_bar,
                  tol=tol, tail_tol=tail_tol)
            for row, a in enumerate(block)
        ]
        found += _lockstep(lanes, _call_stacked, keep=(NotConverged, TailDominates))
    for point in found:
        if isinstance(point, TailDominates):
            raise point
    return found


def induced_b_point(
    isys: InducedSystem,
    a: float,
    *,
    tol: float = 1e-8,
    tail_tol: float = 0.05,
) -> InducedBPoint:
    """`induced_b_curve` at one a.

    Raises:
        ValueError, TailDominates: as `induced_b_curve`.
        NotConverged: a root's bracket expansion failed (no enclosure).
    """
    (point,) = induced_b_curve(isys, [a], tol=tol, tail_tol=tail_tol)
    if isinstance(point, NotConverged):
        raise point
    return point
