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
from .numerics import descending_root, log_sum_exp
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


def _branch_arrays(
    isys: InducedSystem, a: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    psi_lo = np.array([b.psi_bracket[0] for b in isys.branches])
    psi_hi = np.array([b.psi_bracket[1] for b in isys.branches])
    phi_lo = np.array([b.phi_bracket[0] for b in isys.branches])
    phi_hi = np.array([b.phi_bracket[1] for b in isys.branches])
    times = np.array([b.return_time for b in isys.branches], dtype=np.int64)
    if a >= 0.0:
        f_lo, f_hi = a * psi_lo, a * psi_hi
    else:
        f_lo, f_hi = a * psi_hi, a * psi_lo
    return f_lo, f_hi, phi_lo, phi_hi, times


def _tail_ratio(
    f_hi: np.ndarray, phi_hi: np.ndarray, times: np.ndarray, b: float, n_tr: int
) -> float:
    """Per-return-time growth ratio of the upper partition sums near N."""
    def level_sum(r: int) -> float:
        mask = times == r
        if not np.any(mask):
            return -math.inf
        contrib = f_hi[mask] + b * phi_hi[mask]
        return log_sum_exp(contrib)

    top = [level_sum(r) for r in range(max(1, n_tr - 3), n_tr + 1)]
    top = [t for t in top if t > -math.inf]
    if len(top) < 2:
        return 0.0
    gaps = np.diff(top)
    return float(np.exp(np.max(gaps)))


def induced_b_point(
    isys: InducedSystem,
    a: float,
    *,
    tol: float = 1e-8,
    tail_tol: float = 0.05,
) -> InducedBPoint:
    """Solve the truncated induced pressure equation for b at one a.

    The induced pressure of the countable full shift is the log of the sum
    over branches of exp(a*psi + b*phi) evaluated on the return blocks;
    the root in b is bracketed by solving with and without the dropped-tail
    bound.  The tail is bounded by a geometric extrapolation of the last
    return-time level sums.

    Raises:
        TailDominates: the level sums still grow at the kept horizon (no
            geometric tail bound exists), or the tail bound moves the upper
            root by more than tail_tol; raise the truncation.
        NotConverged: root expansion failed (carries the partial bracket).
    """
    if isys.branches[0].phi_bracket is None:
        raise ValueError("induced system was built without a potential")
    f_lo, f_hi, phi_lo, phi_hi, times = _branch_arrays(isys, a)
    sup_bar = float(np.max(phi_hi))
    if sup_bar >= 0.0:
        raise ValueError("induced potential must be strictly negative")
    # A genuinely induced system has countably many branches; for b < 0 the
    # dropped tail diverges (block sums of phi grow linearly in the return
    # time), so roots are clamped to b >= 0.  Trivial inducing (all return
    # times 1) is the direct system, where negative roots are meaningful.
    countable = int(times.max()) > 1

    def upper_pressure(b: float) -> float:
        contrib = f_hi + (b * phi_hi if b >= 0.0 else b * phi_lo)
        return log_sum_exp(contrib)

    def lower_pressure(b: float) -> float:
        contrib = f_lo + (b * phi_lo if b >= 0.0 else b * phi_hi)
        return log_sum_exp(contrib)

    def padded_pressure(b: float) -> float:
        r = _tail_ratio(f_hi, phi_hi, times, b, isys.truncation)
        if r >= 1.0:
            return math.inf
        t = _tail_log_bound(f_hi, phi_hi, times, b, isys.truncation, r)
        return float(np.logaddexp(upper_pressure(b), t))

    if countable:
        # Ray check: if even the tail-padded upper sum stays below 1 at
        # b = 0, the equation has no nonnegative root and b(a) = 0.
        padded0 = padded_pressure(0.0)
        if padded0 <= 0.0:
            return InducedBPoint(
                a=a,
                b=0.0,
                lower=0.0,
                upper=max(upper_pressure(0.0), 0.0) / (-sup_bar),
                tail_ratio=_tail_ratio(f_hi, phi_hi, times, 0.0, isys.truncation),
                on_ray=True,
            )

    def solve(fn) -> float:
        try:
            return descending_root(fn, 1.0, xtol=tol)
        except ValueError as exc:
            raise NotConverged("induced pressure root expansion failed") from exc

    b_lower = solve(lower_pressure)
    ratio = _tail_ratio(f_hi, phi_hi, times, max(b_lower, 0.0), isys.truncation)
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
    mid = solve(
        lambda b: log_sum_exp(0.5 * (f_lo + f_hi) + b * 0.5 * (phi_lo + phi_hi))
    )
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


def _tail_log_bound(
    f_hi: np.ndarray,
    phi_hi: np.ndarray,
    times: np.ndarray,
    b: float,
    n_tr: int,
    ratio: float,
) -> float:
    """log of sum_{r > N} (level sum at N) * ratio^(r - N), geometric bound."""
    mask = times == n_tr
    if not np.any(mask) or ratio <= 0.0:
        return -math.inf
    last = log_sum_exp(f_hi[mask] + b * phi_hi[mask])
    return last + math.log(ratio) - math.log1p(-ratio)
