"""Weak Gibbs measure models: mass brackets, local dimension, sampling.

A weak Gibbs measure assigns every n-cylinder a mass within e^{±n k_n} of
exp(S_n phi), for a normalized potential (zero pressure) and a decreasing
envelope k_n -> 0.  Two models are supported:

    exact: k_n = 0.  Only available where a true Gibbs product measure is
        computable in closed form: depth-1 locally constant potentials on
        full shifts whose weights already sum to 1.
    declared: k_n = c / n^gamma, a user-asserted envelope.  Existence of a
        weak Gibbs measure for continuous potentials is a theorem, but no
        constructive rate comes with it; declaring the law keeps the model
        honest (every output carries the corresponding bracket) and
        testable.  Whether the declared envelope holds for *all* sequences
        rather than almost all is a modeling assumption the artifact cannot
        check.

Everything here reports brackets or flagged estimates, never bare scalars:
a finite computation can spot-check but not certify a limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, PointOutsideCylinder
from .maps import MarkovMap
from .pressure import pressure
from .symbolic import Potential, ratio_bracket, shared_table, word_rows

BOUNDARY_FLAG_THRESHOLD = 0.01


@dataclass(frozen=True)
class WeakGibbsModel:
    """Cylinder-mass model nu with envelope exp(±n·k_n) around exp(S_n phi)."""

    phi: Potential
    mode: str  # "exact" or "declared"
    c: float = 0.0
    gamma: float = 1.0

    def k(self, n: int) -> float:
        """Envelope value k_n."""
        if self.mode == "exact":
            return 0.0
        return self.c / float(n) ** self.gamma


def exact_model(m: MarkovMap, phi: Potential) -> WeakGibbsModel:
    """True Gibbs model (k_n = 0) for a depth-1 weight table on a full shift.

    Raises:
        ConfigError: the potential is not depth-1 locally constant, the
            shift is not full, or the weights do not sum to 1 within 1e-12
            (the measure would not be an exact product measure).
    """
    if phi.kind != "locally_constant" or phi.depth != 1 or not m.is_full_shift:
        raise ConfigError("exact mode needs a depth-1 locally constant potential on a full shift")
    total = pressure(m, phi).value  # the closed form log sum_i exp(phi_i), at level 1
    if abs(total) > 1e-12:
        raise ConfigError(
            f"weights sum to exp({total:.3e}), not 1; normalize the potential first"
        )
    return WeakGibbsModel(phi=phi, mode="exact")


def declared_model(
    m: MarkovMap, phi: Potential, c: float, gamma: float
) -> WeakGibbsModel:
    """Weak Gibbs model with asserted envelope k_n = c / n^gamma.

    Raises:
        ConfigError: c < 0 or gamma <= 0 (k_n must decrease to zero).
    """
    if c < 0.0:
        raise ConfigError("envelope constant c must be nonnegative")
    if gamma <= 0.0:
        raise ConfigError("envelope exponent gamma must be positive")
    return WeakGibbsModel(phi=phi, mode="declared", c=float(c), gamma=float(gamma))


def cylinder_mass_bracket(
    model: WeakGibbsModel, m: MarkovMap, word: Sequence[int]
) -> tuple[float, float]:
    """[exp(-n·k_n + inf S_n phi), exp(n·k_n + sup S_n phi)] for one word."""
    n, k = len(word), model.k(len(word))
    phi_lo, phi_hi = word_rows(m, [word], model.phi)[4:]
    return (math.exp(-n * k + phi_lo[0]), math.exp(n * k + phi_hi[0]))


def _level_mass_midpoints(
    model: WeakGibbsModel, m: MarkovMap, n: int
) -> np.ndarray:
    arr = shared_table(m, model.phi).level(n)
    k = model.k(n)
    return 0.5 * (np.exp(-n * k + arr.phi_lo) + np.exp(n * k + arr.phi_hi))


@dataclass(frozen=True)
class LocalDimension:
    """Local-dimension evidence along one word prefix.

    `levels` lists the window n = N/2 .. N; `ratio_lo/hi` bracket
    -S_n phi / S_n psi per level and `cesaro` averages their midpoints.
    `mass_dim_bracket` brackets log nu(cylinder) / log diameter at the
    deepest level.  `flagged` marks prefixes that fall too close to a
    cylinder boundary somewhere in the window; their limit may differ from
    the Birkhoff ratio, so the estimate should not be trusted silently.
    """

    word: tuple[int, ...]
    levels: tuple[int, ...]
    ratio_lo: np.ndarray
    ratio_hi: np.ndarray
    cesaro: float
    mass_dim_bracket: tuple[float, float]
    boundary_min: float
    flagged: bool


def local_dimension(
    model: WeakGibbsModel,
    m: MarkovMap,
    word: Sequence[int],
    *,
    flag_threshold: float = BOUNDARY_FLAG_THRESHOLD,
) -> LocalDimension:
    """Local-dimension estimate along a word prefix of depth N >= 4.

    Raises:
        ValueError: word shorter than 4 symbols or inadmissible.
        DegenerateCylinder: the deepest cylinder underflows.
        PointOutsideCylinder: the deepest cylinder's midpoint lies outside
            a shallower prefix's cylinder.
    """
    word = tuple(word)
    big_n = len(word)
    if big_n < 4:
        raise ValueError("local dimension needs a word of depth at least 4")
    levels = tuple(range(big_n // 2, big_n + 1))
    lo, hi, s_lo, s_hi, p_lo, p_hi = word_rows(m, [word[:n] for n in levels], model.phi)
    # s_lo = 0 happens on all-neutral prefixes of parabolic maps; the
    # ratio is unbounded there and the bracket top is honestly infinite.
    ratio_lo, ratio_hi = ratio_bracket(-p_hi, -p_lo, s_lo, s_hi)
    # Z_n/D_n in [0, 1/2]: the deepest midpoint's distance to each prefix
    # cylinder's boundary over its diameter.
    x = 0.5 * (lo[-1] + hi[-1])
    out = np.flatnonzero((x < lo - 1e-12) | (x > hi + 1e-12))
    if out.size:
        raise PointOutsideCylinder(f"x = {x:.17g} outside cylinder of {word[: levels[out[0]]]}")
    boundary_min = float((np.maximum(np.minimum(x - lo, hi - x), 0.0) / (hi - lo)).min())
    k = model.k(big_n)
    mass_lo, mass_hi = math.exp(-big_n * k + p_lo[-1]), math.exp(big_n * k + p_hi[-1])
    log_d = math.log(hi[-1] - lo[-1])
    combos = [
        (math.log(mass_lo) if mass_lo > 0.0 else -math.inf) / log_d,
        (math.log(mass_hi) if mass_hi > 0.0 else -math.inf) / log_d,
    ]
    return LocalDimension(
        word=word,
        levels=levels,
        ratio_lo=ratio_lo,
        ratio_hi=ratio_hi,
        cesaro=float(np.mean(0.5 * (ratio_lo + ratio_hi))),
        mass_dim_bracket=(min(combos), max(combos)),
        boundary_min=boundary_min,
        flagged=boundary_min < flag_threshold,
    )


def sample_points(
    model: WeakGibbsModel,
    m: MarkovMap,
    count: int,
    depth: int,
    seed: int,
) -> np.ndarray:
    """Draw `count` words of length `depth` from the cylinder-mass model.

    Symbols are drawn left to right with conditional probabilities
    proportional to the child cylinders' mass midpoints.  Randomness comes
    from one generator stream per sample, spawned from the seed, so results
    are reproducible and independent of chunking.

    Returns:
        int array of shape (count, depth).
    """
    table = shared_table(m, model.phi)
    mass = [None] + [_level_mass_midpoints(model, m, n) for n in range(1, depth + 1)]
    arrs = [None] + [table.level(n) for n in range(1, depth + 1)]

    uniforms = np.empty((count, depth))
    root = np.random.SeedSequence(seed)
    for i, child in enumerate(root.spawn(count)):
        uniforms[i] = np.random.default_rng(child).random(depth)

    words = np.empty((count, depth), dtype=np.int64)
    # Level 1: categorical over first symbols.
    w1 = mass[1] / mass[1].sum()
    cum = np.cumsum(w1)
    rows = np.searchsorted(cum, uniforms[:, 0] * cum[-1], side="right")
    rows = np.minimum(rows, len(w1) - 1)
    words[:, 0] = arrs[1].last[rows]
    for t in range(1, depth):
        # The children of a row are the consecutive next-level rows whose
        # prefix it is, one per allowed next symbol in ascending order.
        parent, _ = table.links(t + 1)
        base = np.searchsorted(parent, rows)
        d = np.searchsorted(parent, rows, side="right") - base
        width = np.arange(m.p)[None, :]  # no symbol has more children
        idx = base[:, None] + width
        valid = width < d[:, None]
        w = np.where(valid, mass[t + 1][np.minimum(idx, len(mass[t + 1]) - 1)], 0.0)
        cum = np.cumsum(w, axis=1)
        u = uniforms[:, t] * cum[:, -1]
        choice = (cum < u[:, None]).sum(axis=1)
        choice = np.minimum(choice, d - 1)
        rows = base + choice
        words[:, t] = arrs[t + 1].last[rows]
    return words
