"""Symbolic dynamics over a Markov map: words, cylinders, Birkhoff brackets.

The central object is :class:`CylinderTable`, which holds, per word length n,
flat arrays over all admissible n-words (in lexicographic order) with the
cylinder interval and certified ranges of the Birkhoff sums S_n(psi) and
S_n(phi) over each cylinder.  Levels are built by prepending a symbol and
applying one inverse branch to the whole previous level at once, so the cost
of level n is O(number of n-words) vectorized operations.

Bracket soundness: every branch family has a monotone derivative, so the
range of log|T'| over an interval is attained at the endpoints, and summing
per-step endpoint ranges encloses the true range of S_n(psi).  The same
argument covers pointwise potentials declared monotone per branch; locally
constant potentials contribute exact summands once the visible word is at
least as long as their depth, with min/max over admissible completions for
the trailing positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DegenerateCylinder,
    InadmissibleSupport,
    LevelTooLarge,
    PointOutsideCylinder,
)
from .maps import MarkovMap

WORD_BUDGET = 1 << 26


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class Potential:
    """A potential on the shift space, in one of three declared forms.

    kinds:
        ``locally_constant``: reads the first `depth` symbols; `table` maps
            every admissible depth-word to a value.
        ``geometric``: coefficient * log|T'|; shares brackets with psi.
        ``pointwise``: one callable per branch, evaluated at the projected
            point; each callable must be monotone on its branch domain for
            the endpoint brackets to be enclosures.

    `pressure_shift` is subtracted from the raw potential; normalization
    stores the computed pressure here so shifted potentials keep their
    structural form.
    """

    kind: str
    depth: int = 1
    table: tuple[tuple[tuple[int, ...], float], ...] = ()
    coefficient: float = 0.0
    funcs: tuple[Callable[[np.ndarray], np.ndarray], ...] = ()
    pressure_shift: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("locally_constant", "geometric", "pointwise"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "locally_constant":
            if self.depth < 1:
                raise ValueError("locally constant potential needs depth >= 1")
            if not self.table:
                raise ValueError("locally constant potential needs a value table")
            for word, _ in self.table:
                if len(word) != self.depth:
                    raise ValueError(f"table word {word} does not match depth {self.depth}")

    def table_dict(self) -> dict[tuple[int, ...], float]:
        return dict(self.table)

    def shifted_by(self, delta: float) -> "Potential":
        """Same potential with `delta` added to the pressure shift."""
        return replace(self, pressure_shift=self.pressure_shift + delta)

    def bounds(self, m: MarkovMap) -> tuple[float, float]:
        """(inf, sup) of the shifted potential over the symbol space."""
        if self.kind == "locally_constant":
            values = [
                v for w, v in self.table if m.admissible(w)
            ]
            if not values:
                raise InadmissibleSupport("potential table covers no admissible word")
            lo, hi = min(values), max(values)
        elif self.kind == "geometric":
            a, b = m.log_deriv_bounds()
            lo, hi = sorted((self.coefficient * a, self.coefficient * b))
        else:
            vals = []
            for f, (lo_x, hi_x) in zip(self.funcs, m.core_spans):
                vals.append(float(f(np.asarray(lo_x))))
                vals.append(float(f(np.asarray(hi_x))))
            lo, hi = min(vals), max(vals)
        return lo - self.pressure_shift, hi - self.pressure_shift


def locally_constant(table: dict[Sequence[int], float], depth: int | None = None) -> Potential:
    """Potential reading the first `depth` symbols, from a word -> value table."""
    items = tuple(sorted((tuple(w), float(v)) for w, v in table.items()))
    if depth is None:
        depth = len(items[0][0])
    return Potential(kind="locally_constant", depth=depth, table=items)


def geometric(coefficient: float) -> Potential:
    """coefficient * log|T'| as a potential."""
    return Potential(kind="geometric", coefficient=float(coefficient))


def pointwise(funcs: Sequence[Callable[[np.ndarray], np.ndarray]]) -> Potential:
    """Per-branch callables; each must be monotone on its branch domain."""
    return Potential(kind="pointwise", funcs=tuple(funcs))


def validate_potential(m: MarkovMap, phi: Potential) -> None:
    """Raise if the potential cannot be evaluated against this map."""
    if phi.kind == "locally_constant":
        table = phi.table_dict()
        for word in words_at_level(m, phi.depth):
            if word not in table:
                raise InadmissibleSupport(
                    f"potential table missing admissible word {word}"
                )
    elif phi.kind == "pointwise":
        if len(phi.funcs) != m.p:
            raise ValueError(
                f"pointwise potential has {len(phi.funcs)} callables for {m.p} branches"
            )


# ---------------------------------------------------------------------------
# word enumeration


def words_at_level(
    m: MarkovMap, n: int, *, budget: int = WORD_BUDGET
) -> Iterator[tuple[int, ...]]:
    """Admissible n-words in lexicographic order (streaming generator).

    Raises:
        LevelTooLarge: if the admissible word count exceeds `budget`.
    """
    if n < 1:
        raise ValueError("word length must be >= 1")
    count = m.word_count(n)
    if count > budget:
        raise LevelTooLarge(f"level {n} holds {count} words, budget is {budget}")
    A = m.transition
    p = m.p
    stack: list[int] = []

    def walk() -> Iterator[tuple[int, ...]]:
        if len(stack) == n:
            yield tuple(stack)
            return
        for j in range(p):
            if not stack or A[stack[-1], j]:
                stack.append(j)
                yield from walk()
                stack.pop()

    return walk()


# ---------------------------------------------------------------------------
# level arrays


@dataclass
class LevelArrays:
    """Flat per-word data for one level, rows in lexicographic word order."""

    n: int
    lo: np.ndarray
    hi: np.ndarray
    psi_lo: np.ndarray
    psi_hi: np.ndarray
    phi_lo: np.ndarray | None
    phi_hi: np.ndarray | None
    first: np.ndarray
    last: np.ndarray
    prefix_code: np.ndarray | None = None  # first (depth-1) symbols, base-p packed

    @property
    def count(self) -> int:
        return self.lo.size

    def diameters(self) -> np.ndarray:
        return self.hi - self.lo

    def combined(self, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
        """Brackets of S_n(a*psi + b*phi) per word."""
        if a >= 0.0:
            f_lo = a * self.psi_lo
            f_hi = a * self.psi_hi
        else:
            f_lo = a * self.psi_hi
            f_hi = a * self.psi_lo
        if b != 0.0:
            if self.phi_lo is None:
                raise ValueError("table was built without a phi potential")
            if b >= 0.0:
                f_lo = f_lo + b * self.phi_lo
                f_hi = f_hi + b * self.phi_hi
            else:
                f_lo = f_lo + b * self.phi_hi
                f_hi = f_hi + b * self.phi_lo
        return f_lo, f_hi


class CylinderTable:
    """Lazy per-level cylinder data for one (map, potential) pair.

    Levels whose word count stays under `cache_words` are cached; above that
    only the most recently built level is kept, so deep parabolic ladders do
    not hold every large level at once.
    """

    def __init__(
        self,
        m: MarkovMap,
        phi: Potential | None = None,
        *,
        budget: int = WORD_BUDGET,
        cache_words: int = 1 << 18,
    ):
        self.map = m
        self.phi = phi
        self.budget = budget
        self.cache_words = cache_words
        if phi is not None:
            validate_potential(m, phi)
        self._levels: dict[int, LevelArrays] = {}
        self._lc = _LocallyConstantPlan(m, phi) if _needs_plan(phi) else None

    def level(self, n: int) -> LevelArrays:
        cached = self._levels.get(n)
        if cached is not None:  # no larger than a level that passed the budget
            return cached
        count = self.map.word_count(n)
        if count > self.budget:
            raise LevelTooLarge(f"level {n} holds {count} words, budget is {self.budget}")
        base_n = max((k for k in self._levels if k < n), default=0)
        arrays = self._levels.get(base_n) or self._base_level()
        for step in range(arrays.n + 1, n + 1):
            arrays = self._extend(arrays)
            self._store(step, arrays)
        return arrays

    def _store(self, n: int, arrays: LevelArrays) -> None:
        if arrays.count > self.cache_words:
            for k in [k for k, v in self._levels.items() if v.count > self.cache_words]:
                del self._levels[k]
        self._levels[n] = arrays

    def _base_level(self) -> LevelArrays:
        m = self.map
        if self._lc is not None and self._lc.depth >= 2:
            arrays = self._lc.base_level()
            self._store(arrays.n, arrays)
            return arrays
        p = m.p
        lo = np.array([m.core_spans[j][0] for j in range(p)])
        hi = np.array([m.core_spans[j][1] for j in range(p)])
        psi_lo = np.empty(p)
        psi_hi = np.empty(p)
        for j, br in enumerate(m.branches):
            a, b = br.log_deriv_range(lo[j], hi[j])
            psi_lo[j], psi_hi[j] = a, b
        phi_lo, phi_hi = self._phi_level1(lo, hi, psi_lo, psi_hi)
        idx = np.arange(p, dtype=np.int8)
        arrays = LevelArrays(1, lo, hi, psi_lo, psi_hi, phi_lo, phi_hi, idx, idx.copy())
        self._store(1, arrays)
        return arrays

    def _phi_level1(self, lo, hi, psi_lo, psi_hi):
        phi = self.phi
        if phi is None:
            return None, None
        shift = phi.pressure_shift
        if phi.kind == "geometric":
            c = phi.coefficient
            if c >= 0:
                return c * psi_lo - shift, c * psi_hi - shift
            return c * psi_hi - shift, c * psi_lo - shift
        if phi.kind == "pointwise":
            a = np.array([float(phi.funcs[j](np.asarray(lo[j]))) for j in range(self.map.p)])
            b = np.array([float(phi.funcs[j](np.asarray(hi[j]))) for j in range(self.map.p)])
            return np.minimum(a, b) - shift, np.maximum(a, b) - shift
        # locally constant, depth 1 (depth >= 2 goes through the plan)
        table = phi.table_dict()
        vals = np.array([table[(j,)] for j in range(self.map.p)])
        return vals - shift, vals - shift

    def _extend(self, prev: LevelArrays) -> LevelArrays:
        m = self.map
        phi = self.phi
        A = m.transition
        parts: list[LevelArrays] = []
        for i in range(m.p):
            mask = A[i, prev.first].astype(bool)
            if not mask.any():
                continue
            br = m.branches[i]
            plo = prev.lo[mask]
            phi_prev_lo = prev.phi_lo[mask] if prev.phi_lo is not None else None
            phi_prev_hi = prev.phi_hi[mask] if prev.phi_hi is not None else None
            a = br.inverse(plo)
            b = br.inverse(prev.hi[mask])
            new_lo, new_hi = (a, b) if br.increasing else (b, a)
            dlo, dhi = br.log_deriv_range(new_lo, new_hi)
            psi_lo = prev.psi_lo[mask] + dlo
            psi_hi = prev.psi_hi[mask] + dhi
            phi_lo = phi_hi = None
            prefix_code = None
            if phi is not None:
                shift = phi.pressure_shift
                if phi.kind == "geometric":
                    c = phi.coefficient
                    inc_lo, inc_hi = (c * dlo, c * dhi) if c >= 0 else (c * dhi, c * dlo)
                    phi_lo = phi_prev_lo + inc_lo - shift
                    phi_hi = phi_prev_hi + inc_hi - shift
                elif phi.kind == "pointwise":
                    fa = np.asarray(phi.funcs[i](new_lo), dtype=float)
                    fb = np.asarray(phi.funcs[i](new_hi), dtype=float)
                    phi_lo = phi_prev_lo + np.minimum(fa, fb) - shift
                    phi_hi = phi_prev_hi + np.maximum(fa, fb) - shift
                elif self._lc is None:  # depth 1: exact summand
                    v = self._depth1_value(i) - shift
                    phi_lo = phi_prev_lo + v
                    phi_hi = phi_prev_hi + v
                else:
                    code = prev.prefix_code[mask]
                    v = self._lc.flat[i * self._lc.stride + code] - shift
                    phi_lo = phi_prev_lo + v
                    phi_hi = phi_prev_hi + v
                    prefix_code = i * self._lc.code_base + code // m.p
            parts.append(
                LevelArrays(
                    prev.n + 1,
                    new_lo,
                    new_hi,
                    psi_lo,
                    psi_hi,
                    phi_lo,
                    phi_hi,
                    np.full(new_lo.size, i, dtype=np.int8),
                    prev.last[mask].copy(),
                    prefix_code,
                )
            )
        out = _concat_levels(parts)
        if float(np.min(out.diameters())) <= 0.0:
            raise DegenerateCylinder(
                f"a level-{out.n} cylinder collapsed below float resolution"
            )
        return out

    def _depth1_value(self, i: int) -> float:
        return self.phi.table_dict()[(i,)]


def _concat_levels(parts: list[LevelArrays]) -> LevelArrays:
    if not parts:
        raise ValueError("no admissible continuations; transition matrix broken")
    if len(parts) == 1:
        return parts[0]
    has_phi = parts[0].phi_lo is not None
    has_code = parts[0].prefix_code is not None
    return LevelArrays(
        parts[0].n,
        np.concatenate([q.lo for q in parts]),
        np.concatenate([q.hi for q in parts]),
        np.concatenate([q.psi_lo for q in parts]),
        np.concatenate([q.psi_hi for q in parts]),
        np.concatenate([q.phi_lo for q in parts]) if has_phi else None,
        np.concatenate([q.phi_hi for q in parts]) if has_phi else None,
        np.concatenate([q.first for q in parts]),
        np.concatenate([q.last for q in parts]),
        np.concatenate([q.prefix_code for q in parts]) if has_code else None,
    )


def _needs_plan(phi: Potential | None) -> bool:
    return phi is not None and phi.kind == "locally_constant" and phi.depth >= 2


class _LocallyConstantPlan:
    """Precomputed lookup data for locally constant potentials of depth >= 2.

    The base level is built at length depth-1 by direct enumeration, with
    per-position min/max over admissible completions for the trailing
    summands; from there each prepended symbol contributes an exact table
    value located through a packed prefix code.
    """

    def __init__(self, m: MarkovMap, phi: Potential):
        if phi.depth > 8:
            raise ValueError("locally constant depth > 8 is not supported")
        self.map = m
        self.phi = phi
        self.depth = phi.depth
        p = m.p
        d = phi.depth
        self.code_base = p ** (d - 2) if d >= 2 else 1
        self.stride = p ** (d - 1)
        table = phi.table_dict()
        flat = np.full(p**d, np.nan)
        for word, v in table.items():
            idx = 0
            for sym in word:
                idx = idx * p + sym
            flat[idx] = v
        self.flat = flat
        self._suffix_range_cache: dict[tuple[int, ...], tuple[float, float]] = {}

    def suffix_range(self, suffix: tuple[int, ...]) -> tuple[float, float]:
        """Range of the table over admissible completions of a short suffix."""
        if suffix in self._suffix_range_cache:
            return self._suffix_range_cache[suffix]
        m, d = self.map, self.depth
        table = self.phi.table_dict()
        lo, hi = math.inf, -math.inf

        def complete(word: tuple[int, ...]) -> None:
            nonlocal lo, hi
            if len(word) == d:
                v = table[word]
                lo, hi = min(lo, v), max(hi, v)
                return
            for j in range(m.p):
                if m.transition[word[-1], j]:
                    complete(word + (j,))

        complete(suffix)
        self._suffix_range_cache[suffix] = (lo, hi)
        return lo, hi

    def base_level(self) -> LevelArrays:
        m = self.map
        n0 = self.depth - 1
        words = list(words_at_level(m, n0))
        size = len(words)
        lo = np.empty(size)
        hi = np.empty(size)
        psi_lo = np.empty(size)
        psi_hi = np.empty(size)
        phi_lo = np.empty(size)
        phi_hi = np.empty(size)
        first = np.empty(size, dtype=np.int8)
        last = np.empty(size, dtype=np.int8)
        code = np.empty(size, dtype=np.int64)
        for r, cyl in enumerate(cylinders(m, words, self.phi)):
            w = cyl.word
            lo[r], hi[r] = cyl.interval
            psi_lo[r], psi_hi[r] = cyl.birkhoff_psi
            phi_lo[r], phi_hi[r] = cyl.birkhoff_phi
            first[r], last[r] = w[0], w[-1]
            c = 0
            for sym in w:
                c = c * m.p + sym
            code[r] = c
        return LevelArrays(n0, lo, hi, psi_lo, psi_hi, phi_lo, phi_hi, first, last, code)


def shared_table(m: MarkovMap, phi: Potential | None = None) -> CylinderTable:
    """CylinderTable memoized on the map, so repeated pressure evaluations
    against the same potential reuse already-built levels."""
    key = phi
    with m._cache_lock:
        table = m._table_cache.get(key)
        if table is None:
            table = CylinderTable(m, phi)
            m._table_cache[key] = table
        return table


# ---------------------------------------------------------------------------
# scalar cylinder path


@dataclass(frozen=True)
class Cylinder:
    """One admissible word with its interval and Birkhoff-sum brackets."""

    word: tuple[int, ...]
    interval: tuple[float, float]
    diameter: float
    birkhoff_psi: tuple[float, float]
    birkhoff_phi: tuple[float, float] | None


def cylinder(
    m: MarkovMap,
    word: Sequence[int],
    phi: Potential | None = None,
    *,
    terminal: tuple[float, float] | None = None,
) -> Cylinder:
    """Cylinder interval and Birkhoff brackets for one word (scalar path).

    The one-word case of :func:`cylinders`, which documents the arguments.
    """
    return cylinders(m, [word], phi, terminal=terminal)[0]


def cylinders(
    m: MarkovMap,
    words: Iterable[Sequence[int]],
    phi: Potential | None = None,
    *,
    terminal: tuple[float, float] | None = None,
) -> list[Cylinder]:
    """Cylinder intervals and Birkhoff brackets for each word (scalar path).

    Each interval is the span of the projected cylinder, computed by
    composing inverse branches right to left starting from the core span of
    the last symbol's follow set.  Brackets accumulate exact per-step
    endpoint ranges.  The state after the symbols word[k:] (interval and
    both partial sums, added in the same order) depends on that suffix
    alone, so words sharing a suffix share its steps: the states are kept
    in a suffix trie for the length of the call.

    Args:
        terminal: replaces the terminal span, restricting to the points whose
            orbit lands in that interval after the word; must lie inside the
            last symbol's follow span.  Used for first-return domains.

    Raises:
        ValueError: inadmissible word.
        DegenerateCylinder: interval collapsed to a point in float arithmetic.
    """
    words = [tuple(w) for w in words]
    for word in words:
        if not word or not m.admissible(word):
            raise ValueError(f"word {word} is not admissible for this map")
    if phi is not None:
        validate_potential(m, phi)
    plan = _LocallyConstantPlan(m, phi) if _needs_plan(phi) else None
    table = phi.table_dict() if phi is not None and phi.kind == "locally_constant" else None

    def step(state, word: tuple[int, ...], k: int):
        br = m.branches[word[k]]
        if state is None:  # the last symbol
            lo, hi = m.core_spans[word[-1]] if terminal is None else terminal
            psi_lo = psi_hi = phi_lo = phi_hi = 0.0
        else:
            lo, hi, psi_lo, psi_hi, phi_lo, phi_hi = state
        if state is not None or terminal is not None:
            lo, hi = br.preimage_interval(lo, hi)
        a, b = br.log_deriv_range(lo, hi)
        psi_lo += float(a)
        psi_hi += float(b)
        if phi is None:
            return lo, hi, psi_lo, psi_hi, phi_lo, phi_hi
        if phi.kind == "geometric":
            c = phi.coefficient
            inc = sorted((c * float(a), c * float(b)))
            phi_lo += inc[0] - phi.pressure_shift
            phi_hi += inc[1] - phi.pressure_shift
        elif phi.kind == "pointwise":
            fa = float(phi.funcs[word[k]](np.asarray(lo)))
            fb = float(phi.funcs[word[k]](np.asarray(hi)))
            phi_lo += min(fa, fb) - phi.pressure_shift
            phi_hi += max(fa, fb) - phi.pressure_shift
        elif plan is None:
            v = table[(word[k],)] - phi.pressure_shift
            phi_lo += v
            phi_hi += v
        else:
            visible = word[k : k + phi.depth]
            if len(visible) == phi.depth:
                v = table[visible]
                phi_lo += v - phi.pressure_shift
                phi_hi += v - phi.pressure_shift
            else:
                rlo, rhi = plan.suffix_range(visible)
                phi_lo += rlo - phi.pressure_shift
                phi_hi += rhi - phi.pressure_shift
        return lo, hi, psi_lo, psi_hi, phi_lo, phi_hi

    trie: dict[int, tuple] = {}  # symbol -> (state, trie of longer suffixes)
    out: list[Cylinder] = []
    for word in words:
        node, state = trie, None
        for k in range(len(word) - 1, -1, -1):
            entry = node.get(word[k])
            if entry is None:
                entry = node[word[k]] = (step(state, word, k), {})
            state, node = entry
        lo, hi, psi_lo, psi_hi, phi_lo, phi_hi = state
        if hi - lo <= 0.0:
            raise DegenerateCylinder(f"cylinder of {word} collapsed to a point")
        out.append(
            Cylinder(
                word=word,
                interval=(lo, hi),
                diameter=hi - lo,
                birkhoff_psi=(psi_lo, psi_hi),
                birkhoff_phi=None if phi is None else (phi_lo, phi_hi),
            )
        )
    return out


# ---------------------------------------------------------------------------
# distortion and boundary diagnostics


@dataclass(frozen=True)
class DistortionReport:
    """Tempered-distortion summary at one level."""

    level: int
    k_n: float
    K_psi: float
    K_phi: float
    rho: float


def distortion_report(
    m: MarkovMap,
    phi: Potential,
    n: int,
    *,
    k_n: float = 0.0,
    table: CylinderTable | None = None,
) -> DistortionReport:
    """Max per-symbol Birkhoff bracket widths at level n, and their max with k_n.

    K_n(f) here is the computable surrogate max_w (sup-inf of S_n f on w)/n;
    rho is max(k_n, K_n(psi), K_n(phi)) and is the quantity every enclosure
    downstream is widened by.
    """
    if table is None:
        table = CylinderTable(m, phi)
    arrays = table.level(n)
    K_psi = float(np.max(arrays.psi_hi - arrays.psi_lo)) / n
    K_phi = float(np.max(arrays.phi_hi - arrays.phi_lo)) / n
    return DistortionReport(
        level=n,
        k_n=k_n,
        K_psi=K_psi,
        K_phi=K_phi,
        rho=max(k_n, K_psi, K_phi),
    )


def boundary_ratio(m: MarkovMap, word: Sequence[int], x: float) -> float:
    """Distance of x to the cylinder boundary, relative to the diameter.

    Returns Z_n/D_n in [0, 1/2]; raises PointOutsideCylinder when x lies
    outside the cylinder interval beyond 1e-12.
    """
    cyl = cylinder(m, word)
    lo, hi = cyl.interval
    if x < lo - 1e-12 or x > hi + 1e-12:
        raise PointOutsideCylinder(
            f"x = {x:.17g} outside cylinder [{lo:.17g}, {hi:.17g}] of {tuple(word)}"
        )
    z = max(min(x - lo, hi - x), 0.0)
    return z / cyl.diameter
