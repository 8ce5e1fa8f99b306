"""Finitely supported block measures on cylinder words.

A block measure is a probability vector over admissible n-words.  Repeating
independent blocks, joined by fixed connector words of a uniform length k,
yields a measure invariant under the (n+k)-fold shift; averaging its shifts
gives a fully shift-invariant measure whose entropy follows from Abramov's
formula and whose Birkhoff statistics differ from the block statistics by a
connector-dilution term that vanishes as the level grows.

Support words must be uniformly expanding on their cylinders (Birkhoff sum
of log|T'| strictly positive).  On parabolic maps this excludes the words
that never leave the neutral region; without the restriction the glued
concatenations would not stay expanding and none of the error bars would
hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    ConstraintInfeasible,
    EmptyWindow,
    InadmissibleSupport,
    NoConnector,
    NotConverged,
)
from .maps import MarkovMap
from .numerics import log_sum_exp
from .pressure import _moran_root
from .symbolic import (SMALL_WORDS, CylinderTable, Potential, checked_word_count, ratio_bracket,
                       shared_table, word_rows)

CONNECTOR_CAP_SLACK = 8


@dataclass(frozen=True)
class ConnectorTable:
    """Uniform-length connectors for gluing level-n words.

    `words[(s, g)]` is the lexicographically least word w of length k such
    that s + w + g is an admissible path; it joins any eligible word ending
    in s to any word starting with g.  `eligible` marks the level-n words
    whose own expansion lower bracket is strictly positive; only those may
    carry block weight.
    """

    level: int
    k: int
    words: dict[tuple[int, int], tuple[int, ...]]
    eligible: np.ndarray
    excluded: int


def _exact_length_word(
    m: MarkovMap, start: int, goal: int, k: int
) -> tuple[int, ...] | None:
    """Lex-least w with len(w) = k and start + w + goal an admissible path."""
    adj = m.transition.astype(bool)
    # reach[d][s]: goal is exactly d edges from s.
    reach = [np.zeros(m.p, dtype=bool)]
    reach[0][goal] = True
    for _ in range(k + 1):
        reach.append(adj @ reach[-1])
    if not reach[k + 1][start]:
        return None
    word: list[int] = []
    sym = start
    for remaining in range(k, 0, -1):
        sym = min(
            s for s in range(m.p) if m.transition[sym, s] and reach[remaining][s]
        )
        word.append(sym)
    return tuple(word)


def connector_length(table: CylinderTable, n: int) -> ConnectorTable:
    """Smallest uniform connector length for gluing eligible level-n words.

    Searches k = 0, 1, 2, ... until every ordered symbol pair (last symbol,
    next first symbol) admits a length-k join and the glued expansion stays
    strictly positive: the lower Birkhoff bracket of the leading word plus
    the connector's own bracket must exceed zero.  Words failing that bound
    on their own (neutral-orbit words on parabolic maps) are excluded from
    eligibility rather than from the search.  The level-n psi brackets come
    from `table`, whatever its potential (they do not depend on it), so
    callers pass the table they already hold; the connectors' come from
    `word_rows`, which equals the table rows bit for bit.

    Raises:
        NoConnector: no uniform length up to 3 * aperiodicity_power +
            CONNECTOR_CAP_SLACK works.
    """
    m = table.map
    arr = table.level(n)
    eligible = arr.psi_lo > 0.0
    if not np.any(eligible):
        raise NoConnector(f"no level-{n} word has positive expansion bracket")
    min_psi = float(np.min(arr.psi_lo if eligible.all() else arr.psi_lo[eligible]))
    cap = 3 * m.aperiodicity_power + CONNECTOR_CAP_SLACK

    for k in range(cap + 1):
        words: dict[tuple[int, int], tuple[int, ...]] = {}
        ok = True
        for s in range(m.p):
            for g in range(m.p):
                w = _exact_length_word(m, s, g, k)
                if w is None:
                    ok = False
                    break
                words[(s, g)] = w
            if not ok:
                break
        if not ok:
            continue
        con_psi = float(word_rows(m, words.values())[2].min()) if k > 0 else 0.0
        if min_psi + con_psi > 0.0:
            return ConnectorTable(
                level=n,
                k=k,
                words=words,
                eligible=eligible,
                excluded=int(np.sum(~eligible)),
            )
    raise NoConnector(f"no uniform connector length up to {cap} glues level-{n} words")


def _connectors(table: CylinderTable, n: int) -> ConnectorTable:
    """`connector_length(table, n)`, searched once per (table, level): the
    block-weight Newton and the block measure of its weights share it."""
    con = table._connectors.get(n)
    if con is None:
        con = table._connectors[n] = connector_length(table, n)
    return con


@dataclass(frozen=True)
class BlockMeasure:
    """Probability weights on level-n words plus certified statistics.

    Per-symbol brackets (`lyapunov_bracket`, `phi_avg_bracket`) refer to the
    block itself: weighted Birkhoff sums divided by n.  The spread fields
    describe the shift-invariant concatenation measure, whose periods carry
    k extra connector symbols; its entropy rate is Abramov's
    entropy / (n + k), and its averages pick up connector contributions
    bounded by the global per-symbol range.  `lemma_bar` is the crude
    uniform bound k*L/(n+k) + rho_n with L = max(sup psi, sup|phi|), kept
    deliberately untightened so enclosures stay traceable.
    """

    level: int
    connector_k: int
    weights: np.ndarray
    entropy: float
    lyapunov_bracket: tuple[float, float]
    phi_avg_bracket: tuple[float, float]
    alpha_bracket: tuple[float, float]
    spread_entropy: float
    spread_lyapunov_bracket: tuple[float, float]
    spread_phi_bracket: tuple[float, float]
    spread_alpha_bracket: tuple[float, float]
    spread_dim_bracket: tuple[float, float]
    rho: float
    lemma_bar: float
    connectors: dict[tuple[int, int], tuple[int, ...]]


def _dot(q: np.ndarray, x: np.ndarray) -> float:
    """sum(q * x) in numpy's own loop, not BLAS, whose sum order follows its
    thread count: the same bits on every run."""
    return float(np.einsum("i,i->", q, x))


def _entropy(q: np.ndarray) -> float:
    """-sum q log q over the support of q, copying no rows when it is all."""
    positive = q > 0.0
    support = q if positive.all() else q[positive]
    h = np.log(support)
    h *= support
    return float(-np.sum(h)) + 0.0


def block_measure(
    m: MarkovMap,
    phi: Potential | None,
    n: int,
    weights: Sequence[float] | np.ndarray,
) -> BlockMeasure:
    """Wrap a weight vector over level-n words with its certified statistics.

    Args:
        m: the map.
        phi: potential entering the ratio statistics; None for pure
            dimension bookkeeping.
        n: word length.
        weights: one per level-n word, in lexicographic word order (the
            level table's row order).

    Raises:
        InadmissibleSupport: weight on a word with nonpositive expansion
            bracket (gluing such words does not stay expanding).
        ConstraintInfeasible: not one weight per word, negative weights, or
            a sum differing from 1 by more than 1e-9.
        EmptyWindow: no positive weight anywhere.
    """
    table = shared_table(m, phi)
    arr = table.level(n)
    q = np.asarray(weights, dtype=float)
    if q.shape != (arr.count,):
        raise ConstraintInfeasible(f"need {arr.count} weights for level {n}, got shape {q.shape}")
    if np.any(q < 0.0):
        raise ConstraintInfeasible("block weights must be nonnegative")
    total = float(np.sum(q))
    if not np.isfinite(total) or abs(total - 1.0) > 1e-9:
        raise ConstraintInfeasible(f"block weights sum to {total:.12g}, not 1")
    if not np.any(q > 0.0):
        raise EmptyWindow("block measure has empty support")

    con = _connectors(table, n)
    if np.any((q > 0.0) & ~con.eligible):
        raise InadmissibleSupport(
            "weight on a word with nonpositive expansion bracket"
        )

    entropy = _entropy(q)
    phl = arr.phi_lo if arr.phi_lo is not None else np.zeros(arr.count)
    phh = arr.phi_hi if arr.phi_hi is not None else phl
    # A bracket stored once (hi is lo) has one weighted sum and width 0.0.
    psi_lo = _dot(q, arr.psi_lo)
    psi_hi = psi_lo if arr.psi_hi is arr.psi_lo else _dot(q, arr.psi_hi)
    phi_lo = _dot(q, phl)
    phi_hi = phi_lo if phh is phl else _dot(q, phh)

    k = con.k
    lvl1 = table.level(1)
    l1_phl = lvl1.phi_lo if lvl1.phi_lo is not None else np.zeros(lvl1.count)
    l1_phh = lvl1.phi_hi if lvl1.phi_hi is not None else np.zeros(lvl1.count)
    # Connector symbols contribute k values in the global per-symbol range.
    con_psi = (k * float(np.min(lvl1.psi_lo)), k * float(np.max(lvl1.psi_hi)))
    con_phi = (k * float(np.min(l1_phl)), k * float(np.max(l1_phh)))
    period = n + k
    spread_psi = ((psi_lo + con_psi[0]) / period, (psi_hi + con_psi[1]) / period)
    spread_phi = ((phi_lo + con_phi[0]) / period, (phi_hi + con_phi[1]) / period)
    spread_alpha = ratio_bracket(-spread_phi[1], -spread_phi[0], *spread_psi)
    spread_h = entropy / period
    spread_dim = ratio_bracket(spread_h, spread_h, *spread_psi)

    rho = max(
        0.0 if arr.psi_hi is arr.psi_lo else float(np.max(arr.psi_hi - arr.psi_lo)) / n,
        0.0 if phh is phl else float(np.max(phh - phl)) / n,
    )
    sup_l = max(
        float(np.max(np.abs(lvl1.psi_hi))),
        float(np.max(np.abs(l1_phl))),
        float(np.max(np.abs(l1_phh))),
    )
    return BlockMeasure(
        level=n,
        connector_k=k,
        weights=q,
        entropy=entropy,
        lyapunov_bracket=(psi_lo / n, psi_hi / n),
        phi_avg_bracket=(phi_lo / n, phi_hi / n),
        alpha_bracket=ratio_bracket(-phi_hi, -phi_lo, psi_lo, psi_hi),
        spread_entropy=spread_h,
        spread_lyapunov_bracket=spread_psi,
        spread_phi_bracket=spread_phi,
        spread_alpha_bracket=spread_alpha,
        spread_dim_bracket=spread_dim,
        rho=rho,
        lemma_bar=k * sup_l / period + rho,
        connectors=con.words,
    )


NEWTON_CAP = 100  # block-weight Newton steps; interior alphas need about 5


def optimize_block_weights(
    m: MarkovMap,
    phi: Potential,
    n: int,
    alpha: float,
) -> BlockMeasure:
    """Entropy-maximizing block weights with mean ratio alpha at level n.

    Maximizes entropy / (weighted psi sum) subject to the ratio constraint
    (weighted -phi sum) / (weighted psi sum) = alpha, over eligible words.
    The maximizer is exponential-family, q = exp(a*psi + b*phi) at bracket
    midpoints, with log Z(a, b) = 0 and E_q[g] = 0 for g = phi + alpha*psi.
    One 2x2 Newton from (0, 0) solves both, with Jacobian
    [[E psi, E phi], [Cov(g, psi), Cov(g, phi)]] from the same q; a step
    that does not reduce |(log Z, E g)| is halved, and the solve stops once
    the step is below 1e-13 relative.  The attained objective equals
    b*alpha - a, the finite-level mirror of the pressure-equation value.

    Above `SMALL_WORDS` words (smaller levels are cheap and keep the
    table's bits), where the problem is the same at every level
    (`_level_free`), the Newton runs on level 1 alone and the level-n
    answer is its n-th power (`_power_measure`): no level above 1 is
    built.  Where that solve stalls or finds no connectors, the level-n
    table is solved as everywhere else.

    Raises:
        ConstraintInfeasible: alpha outside the reachable ratio range of
            eligible level-n words, or a range no wider than its rounding.
        NotConverged: Newton stalled above rounding or used NEWTON_CAP steps.
        LevelTooLarge: more than WORD_BUDGET level-n words.
    """
    if phi is None:
        raise ConstraintInfeasible("ratio optimization needs a potential")
    table = shared_table(m, phi)
    if checked_word_count(m, n) > SMALL_WORDS and _level_free(m, phi):
        try:
            q1 = _block_newton(table, 1, alpha, as_level=n)
        except (NotConverged, NoConnector):
            pass
        else:
            return _power_measure(block_measure(m, phi, 1, q1), n)
    # The solve's arrays die with it, before block_measure allocates its own.
    return block_measure(m, phi, n, _block_newton(table, n, alpha))


def _midpoints(lo: np.ndarray, hi: np.ndarray, rows) -> np.ndarray:
    """0.5 * (lo + hi) over `rows` (None: every row), in one buffer.  A
    bracket stored once (hi is lo) is its own midpoint, bit for bit."""
    if hi is lo:
        return lo if rows is None else lo[rows]
    mid = lo + hi
    mid *= 0.5
    return mid if rows is None else mid[rows]


def _level_free(m: MarkovMap, phi: Potential) -> bool:
    """Whether the block problem is the same at every level: on a full
    shift of linear branches a depth-1 phi and psi = log|T'| are per-symbol
    constants, so the level-n family exp(a*psi + b*phi) is the level-1 one
    n times over.  Its level-n optimum at any alpha is then the product of
    n copies of the level-1 optimum, with the same (a, b): log Z and E g
    add over the symbols.  A linear branch expands (`build_map` refuses
    |slope| <= 1), so every word of every level is eligible.  Elsewhere
    the answer moves with the level."""
    return (
        m.is_full_shift
        and all(br.family == "linear" for br in m.branches)
        and phi.kind == "locally_constant"
        and phi.depth == 1
    )


def _power_measure(bm: BlockMeasure, n: int) -> BlockMeasure:
    """The level-n block measure whose weights are the n-fold product of the
    level-1 weights of `bm`, on a `_level_free` map.  Its entropy is n
    times theirs; its per-symbol averages, ratio bracket and rho are theirs,
    and a full shift glues with k = 0, so the spread fields, `lemma_bar`
    and the connectors are theirs too.  The weights are written into one
    p^n buffer in the table's row order (first symbol most significant):
    each pass puts one more symbol in front of the rows written so far,
    the rows of symbol 0 last, in place."""
    q1 = bm.weights
    p = q1.size
    q = np.empty(p**n)
    q[:p] = q1
    size = p
    for _ in range(n - 1):
        for i in range(p - 1, 0, -1):
            np.multiply(q[:size], q1[i], out=q[i * size : (i + 1) * size])
        q[:size] *= q1[0]
        size *= p
    return replace(bm, level=n, weights=q, entropy=n * bm.entropy)


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends as a stalled step
def _block_newton(
    table: CylinderTable, n: int, alpha: float, as_level: int | None = None
) -> np.ndarray:
    """The weights of the level-n Newton from (0, 0).  Each state is built
    in one buffer, the ratios in the buffer g takes over, every product in
    one more, and no full-size array outlives the solve.  The ratio range
    is checked as that of level `as_level` (default n), whose ratios are
    level n's on a `_level_free` map, to that level's rounding."""
    arr = table.level(n)
    mask = _connectors(table, n).eligible
    rows = None if mask.all() else mask
    psi = _midpoints(arr.psi_lo, arr.psi_hi, rows)
    phv = _midpoints(arr.phi_lo, arr.phi_hi, rows)
    g = np.negative(phv)
    g /= psi
    r_lo, r_hi = float(np.min(g)), float(np.max(g))
    level = as_level or n
    if alpha <= r_lo or alpha >= r_hi:
        raise ConstraintInfeasible(
            f"alpha = {alpha:g} outside the level-{level} ratio range [{r_lo:.6g}, {r_hi:.6g}]"
        )
    # Each ratio is a quotient of n-term sums, good to about 2*n*eps of itself.
    if r_hi - r_lo <= 2 * level * np.finfo(float).eps * max(abs(r_lo), abs(r_hi)):
        raise ConstraintInfeasible(
            f"the level-{level} ratio range [{r_lo!r}, {r_hi!r}] is only rounding wide"
        )
    np.multiply(psi, alpha, out=g)
    g += phv
    tmp = np.empty_like(g)  # every product a state or a step sums

    def state(a: float, b: float) -> tuple[float, np.ndarray | None, float]:
        q = np.multiply(psi, a)
        q += np.multiply(phv, b, out=tmp)
        try:
            log_z = log_sum_exp(q)
        except ValueError:  # overflowed logits: a trial with no decrease
            return math.inf, None, math.inf
        q -= log_z
        np.exp(q, out=q)
        return log_z, q, _dot(q, g)

    a = b = 0.0
    log_z, q, mean_g = state(a, b)
    for _ in range(NEWTON_CAP):
        mean_psi, mean_phi = _dot(q, psi), _dot(q, phv)
        cov_psi = _dot(q, np.multiply(g, psi, out=tmp)) - mean_g * mean_psi
        cov_phi = _dot(q, np.multiply(g, phv, out=tmp)) - mean_g * mean_phi
        det = mean_psi * cov_phi - mean_phi * cov_psi
        residual, t = math.hypot(log_z, mean_g), 1.0 if det else 0.0
        if det:
            da = (mean_phi * mean_g - cov_phi * log_z) / det
            db = (cov_psi * log_z - mean_psi * mean_g) / det
            if max(abs(da), abs(db)) <= 1e-13 * (1.0 + abs(a) + abs(b)):
                break
        q = None  # the line search holds one state at a time
        while t >= 2.0**-20:
            trial_z, q, trial_g = state(a + t * da, b + t * db)
            if math.hypot(trial_z, trial_g) < residual:
                break
            q = None
            t *= 0.5
        else:  # stalled
            break
        a, b, log_z, mean_g = a + t * da, b + t * db, trial_z, trial_g
    else:
        raise NotConverged(f"block weights at alpha = {alpha:g}, level {n}: {NEWTON_CAP} steps")
    # A vanishing step and a stall alike stop only at the logits' rounding floor.
    if residual > 1e-12 * (1.0 + abs(a) * psi.max() + abs(b) * np.abs(phv).max()):
        raise NotConverged(
            f"block weights at alpha = {alpha:g}, level {n}: Newton stalled "
            f"at residual {residual:.3g}"
        )
    if q is None:
        q = state(a, b)[1]  # rebuilt: the line search dropped it
    q /= q.sum()
    if rows is None:
        return q
    full = np.zeros(arr.count)
    full[rows] = q
    return full


def block_objective(bm: BlockMeasure) -> float:
    """entropy / (weighted psi sum) at bracket midpoints, the quantity
    optimize_block_weights maximizes."""
    mid = 0.5 * (bm.lyapunov_bracket[0] + bm.lyapunov_bracket[1]) * bm.level
    return bm.entropy / mid


def window_mask(
    m: MarkovMap, phi: Potential, n: int, alpha: float, eps: float
) -> np.ndarray:
    """Level-n words whose ratio bracket meets the open window
    (alpha - eps, alpha + eps): the `ratio_bracket` of -S_n phi over
    S_n psi, whose four ends enclose every ratio on the cylinder."""
    if phi is None:
        raise EmptyWindow("ratio window needs a potential")
    arr = shared_table(m, phi).level(n)
    ratio_lo, ratio_hi = ratio_bracket(-arr.phi_hi, -arr.phi_lo, arr.psi_lo, arr.psi_hi)
    return (ratio_lo < alpha + eps) & (ratio_hi > alpha - eps)


def bowen_sn(m: MarkovMap, phi: Potential, n: int, alpha: float, eps: float) -> float:
    """Root s of sum of diam^s over the level-n words in the alpha window.

    The window (`window_mask`) keeps every word whose ratio bracket, an
    enclosure of its ratios, meets (alpha - eps, alpha + eps), so no word
    with a ratio in the window is left out; diameters enter at bracket
    midpoint.  The sum is strictly decreasing in s, so its Moran root
    (`pressure._moran_root` on the window) is bisected to 1e-10; a window
    of one word gives 0.0, where the sum is exactly 1.

    Raises:
        EmptyWindow: no word's ratio bracket meets the window.
        DegenerateCylinder: a cylinder up to level n collapsed below float
            resolution (the ends come from `CylinderTable.ends`).
    """
    mask = window_mask(m, phi, n, alpha, eps)
    if not mask.any():
        raise EmptyWindow(
            f"no level-{n} ratio bracket meets ({alpha - eps:g}, {alpha + eps:g})"
        )
    return _moran_root(shared_table(m, phi), n, mask, xtol=1e-10)
