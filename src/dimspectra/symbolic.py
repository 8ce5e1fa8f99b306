"""Symbolic dynamics over a Markov map: words, cylinders, Birkhoff brackets.

One cylinder step, `_Prepend`, carries everything: from the data of a set
of n-words w (cylinder interval, certified ranges of the Birkhoff sums
S_n(psi) and S_n(phi), and for locally constant phi the base-p code of the
first few symbols) it gives the data of the words i·w, by applying the
inverse branch of i to the intervals and adding one summand per sum.

:class:`CylinderTable` applies the step to masked arrays: per word length
n it holds flat arrays over all admissible n-words in lexicographic order,
level 1 one step from each symbol's core span and level n+1 one step from
level n, so the cost of level n is O(number of n-words) vectorized
operations.  :func:`cylinders` applies the same step to scalars, word by
word inside a suffix trie, so a word's scalar data equal its table row
bit for bit.

Bracket soundness: every branch family has a monotone derivative, so the
range of log|T'| over an interval is attained at the endpoints, and summing
per-step endpoint ranges encloses the true range of S_n(psi).  The same
argument covers pointwise potentials declared monotone per branch.  A
locally constant potential of depth d contributes at word position k the
table value of symbols k..k+d-1 once they are visible, and at the last
d-1 positions (every position of a shorter word) the range of the table
over admissible completions, read from per-length range tables built once
per potential.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from itertools import compress, count
from operator import ne
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
# the cylinder step


def _same(col):
    return col


def _range_tables(m: MarkovMap, phi: Potential) -> list:
    """Entry L = 1..d: (min, max) of the shifted table over the admissible
    completions of every L-word, indexed by the word's base-p code; entry d
    is the table itself.  One masked min/max over the next symbol per L."""
    p, d = m.p, phi.depth
    if d > 8:
        raise ValueError("locally constant depth > 8 is not supported")
    vals = np.zeros(p**d)
    ok = np.zeros(p**d, dtype=bool)
    for word, v in phi.table:
        if m.admissible(word):
            idx = 0
            for sym in word:
                idx = idx * p + sym
            vals[idx] = v - phi.pressure_shift
            ok[idx] = True
    tables = [(vals, vals)]
    for _ in range(d - 1):
        lo, hi = tables[0]
        ok = ok.reshape(-1, p)
        tables.insert(0, (
            np.where(ok, lo.reshape(-1, p), np.inf).min(axis=1),
            np.where(ok, hi.reshape(-1, p), -np.inf).max(axis=1),
        ))
        ok = ok.any(axis=1)
    return [None] + tables


def _summed(col, inc, shift: float):
    """col + inc - shift, the shift subtracted in place (x - 0.0 is x)."""
    out = col + inc
    if shift:
        out -= shift
    return out


class _Prepend:
    """The one cylinder step: from the data of n-words w, that of i·w.

    A word's data is the tuple (lo, hi, psi_lo, psi_hi, phi_lo, phi_hi,
    code): its cylinder interval, the brackets of S_n psi and S_n phi (None
    without phi), and for a locally constant phi of depth d >= 2 the base-p
    code of its first min(n, d-1) symbols (None otherwise).  Columns are
    arrays with one row per word (the level table) or scalars (one node of
    the suffix trie in `cylinders`).  Where both ends of a bracket are equal
    by construction (prev's ends are one column and the summand is one
    value), the high column is the low one.
    """

    def __init__(self, m: MarkovMap, phi: Potential | None):
        if phi is not None:
            validate_potential(m, phi)
        self.map = m
        self.phi = phi
        lc = phi is not None and phi.kind == "locally_constant"
        self.ranges = _range_tables(m, phi) if lc else None

    def __call__(self, i: int, prev: tuple, n: int, take=_same, pull=True, images=None) -> tuple:
        """Data of i·w from the data `prev` of the n-words w.

        `take` picks the rows of `prev` that admit i; it is applied to each
        column where that column is used, so no masked copy is held through
        the inverse.  `images` may hold branch i's inverses of the taken
        prev[0] and prev[1].  With pull=False, prev's interval is already
        the cylinder of i·w (a symbol's core span, for n = 0).
        """
        m, phi = self.map, self.phi
        br = m.branches[i]
        if pull:
            a, b = images or (br.inverse(take(prev[0])), br.inverse(take(prev[1])))
            lo, hi = (a, b) if br.increasing else (b, a)
        else:
            lo, hi = take(prev[0]), take(prev[1])
        dlo, dhi = br.log_deriv_range(lo, hi)
        psi_lo = take(prev[2]) + dlo
        # One float (a linear branch) keeps an exact bracket exact.
        psi_hi = psi_lo if dhi is dlo and prev[3] is prev[2] else take(prev[3]) + dhi
        if phi is None:
            return lo, hi, psi_lo, psi_hi, None, None, None
        shift, code = phi.pressure_shift, None
        if self.ranges is not None:
            # The summand at i·w reads its first min(n+1, d) symbols: exact
            # once d are visible, else its range over admissible completions.
            # The tables hold v - shift, which keeps the sum prev + (v - shift).
            d = phi.depth
            idx = i if d == 1 else i * m.p ** min(n, d - 1) + take(prev[6])
            r_lo, r_hi = self.ranges[min(n + 1, d)]
            inc_lo, shift = r_lo[idx], 0.0
            inc_hi = inc_lo if r_hi is r_lo else r_hi[idx]
            code = None if d == 1 else idx if n + 1 < d else idx // m.p
        elif phi.kind == "geometric":
            c = phi.coefficient
            if dhi is dlo:
                inc_lo = inc_hi = dlo * c
            else:  # in place: the psi sums above were dlo's and dhi's last readers
                dlo *= c
                dhi *= c
                inc_lo, inc_hi = (dlo, dhi) if c >= 0 else (dhi, dlo)
        else:  # pointwise, monotone on the branch
            fa = np.asarray(phi.funcs[i](np.asarray(lo)), dtype=float)
            fb = np.asarray(phi.funcs[i](np.asarray(hi)), dtype=float)
            inc_lo, inc_hi = np.minimum(fa, fb), np.maximum(fa, fb)
        phi_lo = _summed(take(prev[4]), inc_lo, shift)
        if inc_hi is inc_lo and prev[5] is prev[4]:
            phi_hi = phi_lo
        else:
            phi_hi = _summed(take(prev[5]), inc_hi, shift)
        return lo, hi, psi_lo, psi_hi, phi_lo, phi_hi, code


# ---------------------------------------------------------------------------
# level arrays


@dataclass
class LevelArrays:
    """Flat per-word data for one level, rows in lexicographic word order.

    The columns lo .. prefix_code are the cylinder step's data (see
    `_Prepend`); `first` and `last` hold each word's end symbols.  An exact
    bracket is stored once: psi_hi is psi_lo on linear branches, and
    phi_hi is phi_lo where every summand of phi is exact as well (a depth-1
    locally constant phi, or a geometric one on linear branches).  Columns
    are read-only: a level is shared by every reader of the table, and one
    write to an exact bracket would move both of its ends.
    """

    n: int
    lo: np.ndarray
    hi: np.ndarray
    psi_lo: np.ndarray
    psi_hi: np.ndarray
    phi_lo: np.ndarray | None
    phi_hi: np.ndarray | None
    prefix_code: np.ndarray | None
    first: np.ndarray
    last: np.ndarray

    @property
    def count(self) -> int:
        return self.lo.size

    def diameters(self) -> np.ndarray:
        return self.hi - self.lo

    def combined_side(self, a, b, side: int) -> np.ndarray:
        """The lower (side 0) or upper (side 1) ends of the brackets of
        S_n(a*psi + b*phi) per word, one product per entry: each coefficient
        picks the psi or phi side its sign calls for, and phi is skipped
        where b == 0.  For arrays a and b of one entry per lane, row i holds
        the ends at (a[i], b[i]), bit for bit what the scalar call gives,
        except that the scalar call also skips psi where a == 0 != b, so a
        zero entry may differ in sign there."""
        if np.ndim(a):
            a, b = np.asarray(a), np.asarray(b)
            f = _scaled(a, self.psi_lo, self.psi_hi, side)
            if b.any():
                if self.phi_lo is None:
                    raise ValueError("table was built without a phi potential")
                on = slice(None) if b.all() else b != 0.0
                f[on] += _scaled(b[on], self.phi_lo, self.phi_hi, side)
            return f
        f = None
        if a != 0.0 or b == 0.0:
            low = (a >= 0.0) == (side == 0)
            f = a * (self.psi_lo if low else self.psi_hi)
        if b != 0.0:
            if self.phi_lo is None:
                raise ValueError("table was built without a phi potential")
            low = (b >= 0.0) == (side == 0)
            g = b * (self.phi_lo if low else self.phi_hi)
            if f is None:
                return g
            f += g
        return f


def _scaled(c: np.ndarray, lo: np.ndarray, hi: np.ndarray, side: int) -> np.ndarray:
    """Rows c[i]*lo where c[i] >= 0 and c[i]*hi elsewhere (side 0), or the
    other way round (side 1).  An exact bracket (hi is lo) has no side."""
    if side:
        lo, hi = hi, lo
    keep = None if hi is lo else c >= 0.0
    if keep is None or keep.all():
        return np.multiply.outer(c, lo)
    return c[:, None] * np.where(keep[:, None], lo, hi)


class CylinderTable:
    """Lazy per-level cylinder data for one (map, potential) pair.

    Level 1 is one cylinder step from each symbol's core span; level n+1
    prepends each symbol to the level-n rows that admit it, the same step
    applied to masked arrays.  Levels whose word count stays under
    `cache_words` are cached; above that only the most recently built level
    is kept, so deep parabolic ladders do not hold every large level at
    once.  The large level before it keeps the four columns the next build
    reads from its grandparent (see `_new_images`): lo, hi, first, last.
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
        self._levels: dict[int, LevelArrays] = {}
        self._ends: LevelArrays | None = None  # lo, hi, first, last of a dropped level
        self._step = _Prepend(m, phi)

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

    def links(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """For each level-n row w (n >= 2), the level-(n-1) rows of w[:-1]
        and of w[1:].  In lexicographic order the children of a word u are
        consecutive, one per symbol u's last symbol admits, and the rows i·v
        run over the v that admit i, symbol by symbol."""
        prev, A = self.level(n - 1), self.map.transition
        prefix = np.repeat(np.arange(prev.count), A.sum(axis=1)[prev.last])
        suffix = np.concatenate([np.flatnonzero(A[i, prev.first]) for i in range(self.map.p)])
        return prefix, suffix

    def _store(self, n: int, arrays: LevelArrays) -> None:
        if arrays.count > self.cache_words:
            self._ends = None
            for k in [k for k, v in self._levels.items() if v.count > self.cache_words]:
                v = self._levels.pop(k)
                if k == n - 1:
                    self._ends = LevelArrays(k, v.lo, v.hi, *[None] * 5, v.first, v.last)
        self._levels[n] = arrays

    def _base_level(self) -> LevelArrays:
        zero = np.zeros(1)
        parts = []
        for j, (lo, hi) in enumerate(self.map.core_spans):
            empty = (np.array([lo]), np.array([hi]), zero, zero, zero, zero, np.zeros(1, np.int64))
            sym = np.full(1, j, dtype=np.int8)
            parts.append(LevelArrays(1, *self._step(j, empty, 0, pull=False), sym, sym.copy()))
        arrays = _concat_levels(parts)
        self._store(1, arrays)
        return arrays

    def _extend(self, prev: LevelArrays) -> LevelArrays:
        data = (
            prev.lo, prev.hi, prev.psi_lo, prev.psi_hi,
            prev.phi_lo, prev.phi_hi, prev.prefix_code,
        )
        parts: list[LevelArrays] = []
        for i, br in enumerate(self.map.branches):
            mask = self.map.transition[i, prev.first].astype(bool)
            if not mask.any():
                continue
            take = _same if mask.all() else lambda col: col[mask]
            # Linear and Farey branches invert in a few flops; Newton does not.
            newton = br.family in ("manneville_pomeau", "power")
            images = self._new_images(i, prev, take) if newton else None
            new = self._step(i, data, prev.n, take, images=images)
            first = np.full(new[0].size, i, dtype=np.int8)
            parts.append(LevelArrays(prev.n + 1, *new, first, take(prev.last)))
            del images, new, first  # the parts alone hold their columns
        out = _concat_levels(parts)
        if float(np.min(out.diameters())) <= 0.0:
            raise DegenerateCylinder(
                f"a level-{out.n} cylinder collapsed below float resolution"
            )
        return out

    def _new_images(self, i: int, prev: LevelArrays, take) -> tuple:
        """Branch i's inverses of the taken prev.lo and prev.hi, inverting
        only inputs that no earlier call has.  The row order says where a
        repeat may sit: the taken rows hold one run of children per cached
        (n-1)-word u that admits i, whose first lo and last hi may equal u's
        (their images are prev's row i·u), and a lo may equal the hi above.
        Reuse needs equal bits, so each image is what `Branch.inverse` gives.
        """
        m, br, before = self.map, self.map.branches[i], self._levels.get(prev.n - 1)
        if before is None and self._ends is not None and self._ends.n == prev.n - 1:
            before = self._ends
        y = take(prev.lo), take(prev.hi)
        x = np.empty_like(y[0]), np.empty_like(y[1])
        new = np.ones(y[0].size, dtype=bool), np.ones(y[1].size, dtype=bool)
        if before is not None:
            adm = m.transition[i, before.first].astype(bool)
            start = int(np.searchsorted(prev.first, i))  # prev's rows i·u, in u order
            images = (prev.lo, prev.hi)[:: 1 if br.increasing else -1]
            runs = m.transition.sum(axis=1)[before.last[adm]]
            last = np.cumsum(runs) - 1
            for k, (at, ends) in enumerate(((last - runs + 1, before.lo), (last, before.hi))):
                hit = y[k][at].view(np.int64) == ends[adm].view(np.int64)
                x[k][at[hit]] = images[k][start + np.flatnonzero(hit)]
                new[k][at[hit]] = False
        shared = np.zeros_like(new[0])
        shared[1:] = new[0][1:] & (y[0][1:].view(np.int64) == y[1][:-1].view(np.int64))
        new[0][shared] = False
        fresh = np.concatenate((y[0][new[0]], y[1][new[1]]))
        if fresh.size:
            x[0][new[0]], x[1][new[1]] = np.split(br.inverse(fresh), [np.count_nonzero(new[0])])
        rows = np.flatnonzero(shared)
        x[0][rows] = x[1][rows - 1]
        return x


def _concat_levels(parts: list[LevelArrays]) -> LevelArrays:
    if not parts:
        raise ValueError("no admissible continuations; transition matrix broken")
    if len(parts) == 1:
        return parts[0]
    # An exact bracket, one array in every part, is joined once.
    exact = {hi for hi in ("psi_hi", "phi_hi")
             if all(getattr(q, hi) is getattr(q, hi[:-2] + "lo") for q in parts)}
    columns = {}
    for f in fields(LevelArrays)[1:]:  # empties the parts as it goes: peak one column
        cols = [getattr(q, f.name) for q in parts]
        if f.name in exact:
            columns[f.name] = columns[f.name[:-2] + "lo"]
        else:
            columns[f.name] = None if cols[0] is None else np.concatenate(cols)
        for q in parts:
            setattr(q, f.name, None)
    return LevelArrays(parts[0].n, **columns)


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

    def boundary_ratio(self, x: float) -> float:
        """Distance of x to the cylinder boundary, relative to the diameter.

        Returns Z_n/D_n in [0, 1/2]; raises PointOutsideCylinder when x lies
        outside the interval beyond 1e-12.
        """
        lo, hi = self.interval
        if x < lo - 1e-12 or x > hi + 1e-12:
            raise PointOutsideCylinder(
                f"x = {x:.17g} outside cylinder [{lo:.17g}, {hi:.17g}] of {self.word}"
            )
        return max(min(x - lo, hi - x), 0.0) / self.diameter


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

    Each word is built right to left by the level table's cylinder step on
    scalars: the last symbol's core span (or the preimage of `terminal`)
    first, then one prepended symbol at a time, so a word's data equals its
    row in the level table bit for bit.  The data after the symbols
    word[k:] depends on that suffix alone, so words sharing a suffix share
    its steps: the data are kept in a suffix trie for the length of the
    call, and each word's walk down the trie resumes from the longest suffix
    it shares with the previous word, so a list of words that grow by one
    symbol costs one step per new suffix, not one lookup per symbol.

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
    step = _Prepend(m, phi)
    trie: dict[int, tuple] = {}  # symbol -> (data, trie of longer suffixes)
    path: list[tuple] = []  # the trie entries of the previous word's suffixes
    last: tuple[int, ...] = ()
    out: list[Cylinder] = []
    for word in words:
        n = len(word)
        # Resume at the longest suffix this word shares with the previous one:
        # the first mismatch from the right, found without a Python loop.
        differ = map(ne, reversed(word), reversed(last))
        shared = next(compress(count(), differ), min(n, len(last)))
        del path[shared:]
        last = word
        if path:
            data, node = path[-1]
        else:
            lo, hi = m.core_spans[word[-1]] if terminal is None else terminal
            data, node = (lo, hi, 0.0, 0.0, 0.0, 0.0, 0), trie
        for k in range(n - 1 - shared, -1, -1):
            entry = node.get(word[k])
            if entry is None:
                pull = k < n - 1 or terminal is not None
                entry = node[word[k]] = (step(word[k], data, n - 1 - k, pull=pull), {})
            data, node = entry
            path.append(entry)
        lo, hi, psi_lo, psi_hi, phi_lo, phi_hi, _ = data
        if hi - lo <= 0.0:
            raise DegenerateCylinder(f"cylinder of {word} collapsed to a point")
        out.append(
            Cylinder(
                word=word,
                interval=(lo, hi),
                diameter=hi - lo,
                birkhoff_psi=(float(psi_lo), float(psi_hi)),
                birkhoff_phi=None if phi is None else (float(phi_lo), float(phi_hi)),
            )
        )
    return out
