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
operations.  :func:`word_rows` applies the same step to any list of words,
one call per symbol per suffix length, so each word's data equal its table
row bit for bit.

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
)
from .maps import _INVERSE_BLOCK, MarkovMap
from .numerics import log_sum_exp

WORD_BUDGET = 1 << 26
SMALL_WORDS = 1 << 10  # levels this small are cached by every table

# A table's work, counted over every level build: levels and words built,
# the rows whose cylinder ends a build made, and the endpoints sent to the
# Newton inverse; and `word_rows`' `_Prepend` calls and the rows they make.
level_counts = {
    "levels": 0, "words": 0, "end_rows": 0, "inverse_points": 0, "sparse_calls": 0, "sparse_rows": 0
}


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

    def closed_form_pressure(self, m: MarkovMap) -> float | None:
        """log sum_i exp(phi_i) for a depth-1 table on a full shift, where
        Z_n = Z_1**n makes it the pressure; None for any other potential."""
        if self.kind != "locally_constant" or self.depth != 1 or not m.is_full_shift:
            return None
        return log_sum_exp(np.array([v for _, v in self.table]) - self.pressure_shift)

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


def ratio_bracket(num_lo, num_hi, den_lo, den_hi) -> tuple:
    """(min, max) of num / den over the four ends of a num and a den
    bracket, entry by entry for arrays; floats for scalar ends.

    The den brackets a Birkhoff sum of log|T'| >= 0, so den >= 0; a zero
    den (a neutral word) gives +inf for num > 0, -inf for num < 0 and 0.0
    for num = 0: the limits of num / den as den falls to 0 from above.
    """
    with np.errstate(all="ignore"):  # x/0 is replaced; an overflow is +-inf
        ends = [
            np.where(den == 0.0, np.where(num > 0.0, np.inf, np.where(num < 0.0, -np.inf, 0.0)),
                     np.divide(num, den))
            for num in (num_lo, num_hi)
            for den in (den_lo, den_hi)
        ]
    lo = hi = ends[0]
    for end in ends[1:]:
        lo, hi = np.minimum(lo, end), np.maximum(hi, end)
    return (float(lo), float(hi)) if np.ndim(lo) == 0 else (lo, hi)


# ---------------------------------------------------------------------------
# word enumeration


def checked_word_count(m: MarkovMap, n: int) -> int:
    """`m.word_count(n)`, or LevelTooLarge if it exceeds WORD_BUDGET."""
    count = m.word_count(n)
    if count > WORD_BUDGET:
        raise LevelTooLarge(f"level {n} holds {count} words, budget is {WORD_BUDGET}")
    return count


def words_at_level(m: MarkovMap, n: int) -> Iterator[tuple[int, ...]]:
    """Admissible n-words in lexicographic order (streaming generator).

    Raises:
        LevelTooLarge: if the admissible word count exceeds WORD_BUDGET.
    """
    if n < 1:
        raise ValueError("word length must be >= 1")
    checked_word_count(m, n)
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


def _summed(col, inc, shift: float, out=None):
    """col + inc - shift (into `out`), the shift in place (x - 0.0 is x)."""
    out = col + inc if out is None else np.add(col, inc, out=out)
    if shift:
        out -= shift
    return out


def _bracket(lo, hi, take, inc_lo, inc_hi, shift: float, out_lo, out_hi) -> tuple:
    """A Birkhoff bracket one summand on (into out_lo, out_hi); the high end
    is the low one where both terms' ends are one (an exact bracket)."""
    new_lo = _summed(take(lo), inc_lo, shift, out_lo)
    if hi is lo and inc_hi is inc_lo:
        return new_lo, new_lo
    return new_lo, _summed(take(hi), inc_hi, shift, out_hi)


class _Prepend:
    """The one cylinder step: from the data of n-words w, that of i·w.

    A word's data is the tuple (lo, hi, psi_lo, psi_hi, phi_lo, phi_hi,
    code): its cylinder interval, the brackets of S_n psi (None with
    psi=False) and S_n phi (None without phi), and for a locally constant
    phi of depth d >= 2 the base-p code of its first min(n, d-1) symbols
    (None otherwise), a row per word of a table level or a `word_rows`
    call, each stepped alone; n enters only as min(n, d-1).  Where both
    ends of a bracket are equal by construction (prev's ends are one column
    and the summand is one value), the high column is the low one.
    """

    def __init__(self, m: MarkovMap, phi: Potential | None, psi: bool = True):
        if phi is not None:
            validate_potential(m, phi)
        self.map = m
        self.phi = phi
        self.psi = psi
        lc = phi is not None and phi.kind == "locally_constant"
        self.ranges = _range_tables(m, phi) if lc else None

    def __call__(
        self, i: int, prev: tuple, n: int, take=_same, pull=True, ends=None, out=(None,) * 7
    ) -> tuple:
        """Data of i·w from the data `prev` of the n-words w.

        `take` picks the rows of `prev` that admit i; it is applied to each
        column where that column is used, so no masked copy is held.  Where
        prev has no ends (None, on linear branches only) neither has i·w.  With
        pull=False, prev's interval is already the cylinder of i·w (a
        symbol's core span, for n = 0).  `ends` may hold (lo, hi, dlo, dhi):
        the cylinders of i·w and the range of log|T_i'| on each.  `out` may
        hold an array per column to write it into, one array for an exact
        bracket; dlo and dhi may be its psi arrays (phi is summed first), or
        without psi a geometric phi's, dlo where coefficient * dlo goes.
        """
        m, phi = self.map, self.phi
        br = m.branches[i]
        if ends is None:
            if prev[0] is None:  # a level without ends: only linear branches,
                lo = hi = None  # whose log|T'| reads none
            elif pull:
                a, b = br.inverse(take(prev[0])), br.inverse(take(prev[1]))
                lo, hi = (a, b) if br.increasing else (b, a)
            else:
                lo, hi = take(prev[0]), take(prev[1])
            dlo, dhi = br.log_deriv_range(lo, hi)
        else:
            lo, hi, dlo, dhi = ends
        phi_lo = phi_hi = code = None
        if phi is not None:
            shift = phi.pressure_shift
            if self.ranges is not None:
                # The summand at i·w reads its first min(n+1, d) symbols:
                # exact once d are visible, else its range over admissible
                # completions.  The tables hold v - shift, which keeps the
                # sum prev + (v - shift).
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
                else:
                    pair = (dlo, dhi) if c >= 0 else (dhi, dlo)
                    inc_lo, inc_hi = (np.multiply(e, c, out=o) for e, o in zip(pair, out[4:6]))
            else:  # pointwise, monotone on the branch
                fa = np.asarray(phi.funcs[i](np.asarray(lo)), dtype=float)
                fb = np.asarray(phi.funcs[i](np.asarray(hi)), dtype=float)
                inc_lo, inc_hi = np.minimum(fa, fb), np.maximum(fa, fb)
            phi_lo, phi_hi = _bracket(prev[4], prev[5], take, inc_lo, inc_hi, shift, *out[4:6])
        psi_lo = psi_hi = None
        if self.psi:  # pressure's table reads phi alone
            psi_lo, psi_hi = _bracket(prev[2], prev[3], take, dlo, dhi, 0.0, *out[2:4])
        for k, col in ((0, lo), (1, hi), (6, code)):  # the columns not summed into out
            if out[k] is not None and col is not out[k]:
                out[k][...] = col
        return lo, hi, psi_lo, psi_hi, phi_lo, phi_hi, code


# ---------------------------------------------------------------------------
# level arrays


@dataclass
class LevelArrays:
    """Flat per-word data for one level, rows in lexicographic word order.

    The columns lo .. prefix_code are the cylinder step's data (see
    `_Prepend`); `first` and `last` hold each word's end symbols.  lo and hi
    are None from level 2 on where no reader of the table reads them (see
    `CylinderTable`); `CylinderTable.ends` gives every level's.  An exact
    bracket is stored once: psi_hi is psi_lo on linear branches, and
    phi_hi is phi_lo where every summand of phi is exact as well (a depth-1
    locally constant phi, or a geometric one on linear branches).  psi_lo
    and psi_hi are None on `pressure`'s table (psi=False).  Columns are
    read-only once the table stores the level (their write flag is
    cleared): a level is shared by every reader of the table, and one write
    to an exact bracket would move both of its ends.
    """

    n: int
    lo: np.ndarray | None
    hi: np.ndarray | None
    psi_lo: np.ndarray | None
    psi_hi: np.ndarray | None
    phi_lo: np.ndarray | None
    phi_hi: np.ndarray | None
    prefix_code: np.ndarray | None
    first: np.ndarray
    last: np.ndarray

    @property
    def count(self) -> int:
        return self.first.size

    def combined_side(self, a, b, side: int, a_term=None) -> np.ndarray:
        """The lower (side 0) or upper (side 1) ends of the brackets of
        S_n(a*psi + b*phi) per word, one product per entry: each coefficient
        picks the psi or phi side its sign calls for, and phi is skipped
        where b == 0.  A lone term at coefficient 1.0 is the column itself,
        not a copy.  For arrays a and b of one entry per lane, row i holds
        the ends at (a[i], b[i]), bit for bit what the scalar call gives,
        except that the scalar call also skips psi where a == 0 != b, so a
        zero entry may differ in sign there; `a_term`, if given, is their
        a*psi rows formed beforehand, which b*phi is added to out of place
        (where every b is 0, they are returned as they are)."""
        if np.ndim(a):
            a, b = np.asarray(a), np.asarray(b)
            f = _scaled(a, *self._psi(), side) if a_term is None else a_term
            nonzero = np.count_nonzero(b)
            if nonzero:
                if self.phi_lo is None:
                    raise ValueError("table was built without a phi potential")
                if nonzero == b.size:
                    return f + _scaled(b, self.phi_lo, self.phi_hi, side)
                on = b != 0.0
                f = f.copy()
                f[on] += _scaled(b[on], self.phi_lo, self.phi_hi, side)
            return f
        f = None
        if a != 0.0 or b == 0.0:
            psi_lo, psi_hi = self._psi()
            col = psi_lo if (a >= 0.0) == (side == 0) else psi_hi
            if b == 0.0:  # one term at coefficient 1.0 is the column itself
                return col if a == 1.0 else a * col
            f = a * col
        if self.phi_lo is None:
            raise ValueError("table was built without a phi potential")
        low = (b >= 0.0) == (side == 0)
        col = self.phi_lo if low else self.phi_hi
        if f is None:
            return col if b == 1.0 else b * col
        f += b * col
        return f

    def _psi(self) -> tuple[np.ndarray, np.ndarray]:
        if self.psi_lo is None:
            raise ValueError("table was built without psi")
        return self.psi_lo, self.psi_hi


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
    applied to masked arrays.  A level asked for is cached while its word
    count stays under `cache_words`, a level built only on the way to a
    deeper one while it stays under SMALL_WORDS as well; above that only
    the newest level asked for is kept, so deep ladders do not hold every
    large level at once.  A reader that climbs the levels once (`pressure`,
    `bowen_root`) builds on a table of its own with cache_words =
    SMALL_WORDS, dropped when it returns; readers that come back to a
    level share the map's table (`shared_table`).  `pressure` reads phi
    alone, so its table has no psi columns (psi=False).

    Cylinder ends are made from level 2 on only where the table's columns
    read them: a Newton or Farey branch (log|T'| ranges), a pointwise
    phi, or a table of neither psi nor phi, whose ends are its only columns.
    On linear branches with any other phi, log|T'| and phi add one value
    per symbol, so levels 2 on hold no ends and make no inverse, clip or
    collapse check; `ends` gives them from a geometry-only table.

    On a full shift of k symbols with a Newton branch and every branch
    increasing, the build of level 2 checks that each word's first child
    starts at its lo and its last child ends at its hi, bit for bit.  Where
    that holds (`_nested`), it holds at every level: every inverse is
    elementwise, so lo(i·u·0) = inv_i(lo(u·0)) = inv_i(lo(u)) = lo(i·u),
    and likewise for the last child's hi.  A Newton branch then takes those
    ends from the parents' images, rows of the level in hand (see
    `_newton_ends`), and keeps nothing of the level before.
    """

    def __init__(
        self,
        m: MarkovMap,
        phi: Potential | None = None,
        *,
        cache_words: int = 1 << 18,
        psi: bool = True,
    ):
        self.map = m
        self.phi = phi
        self.cache_words = cache_words
        self._levels: dict[int, LevelArrays] = {}
        self._nested = False  # children repeat their parent's outer ends; set at level 2
        linear = all(br.family == "linear" for br in m.branches)
        pointwise = phi is not None and phi.kind == "pointwise"
        self._makes_ends = not linear or pointwise or (phi is None and not psi)
        self._geometry: CylinderTable | None = None  # `ends` where levels hold none
        self._connectors: dict = {}  # finite_measures' connector search by level
        self._step = _Prepend(m, phi, psi)

    def level(self, n: int) -> LevelArrays:
        cached = self._levels.get(n)
        if cached is not None:  # no larger than a level that passed the budget
            return cached
        checked_word_count(self.map, n)
        base_n = max((k for k in self._levels if k < n), default=0)
        arrays = self._levels.get(base_n) or self._base_level()
        for step in range(arrays.n + 1, n + 1):
            arrays = self._extend(arrays)
            self._store(arrays, asked=step == n)
        return arrays

    def ends(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The (lo, hi) cylinder ends of the level-n rows.  A level that
        holds its ends gives them; else they come from a table of neither
        psi nor phi, held from the first call on and started from this
        table's level 1, whose climb runs the same steps on the ends alone,
        so every end has the same bits.

        Raises:
            DegenerateCylinder: a cylinder up to level n collapsed below
                float resolution.
        """
        table = self
        if not self._makes_ends and n > 1:
            if self._geometry is None:
                base = self.level(1)
                self._geometry = CylinderTable(self.map, cache_words=self.cache_words, psi=False)
                self._geometry._levels[1] = LevelArrays(
                    1, base.lo, base.hi, *(None,) * 5, base.first, base.last
                )
            table = self._geometry
        arr = table.level(n)
        return arr.lo, arr.hi

    def links(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """For each level-n row w (n >= 2), the level-(n-1) rows of w[:-1]
        and of w[1:].  In lexicographic order the children of a word u are
        consecutive, one per symbol u's last symbol admits, and the rows i·v
        run over the v that admit i, symbol by symbol."""
        prev, A = self.level(n - 1), self.map.transition
        prefix = np.repeat(np.arange(prev.count), A.sum(axis=1)[prev.last])
        suffix = np.concatenate([np.flatnonzero(A[i, prev.first]) for i in range(self.map.p)])
        return prefix, suffix

    def _store(self, arrays: LevelArrays, asked=True) -> None:
        """Store a level just built; `asked` is False for a level built only
        on the way to a deeper one."""
        level_counts["levels"] += 1
        level_counts["words"] += arrays.count
        level_counts["end_rows"] += 0 if arrays.lo is None else arrays.count
        for f in fields(LevelArrays)[1:]:
            if getattr(arrays, f.name) is not None:
                getattr(arrays, f.name).setflags(write=False)
        cap = self.cache_words
        if arrays.count > cap:  # the level held past the cache goes
            self._levels = {k: v for k, v in self._levels.items() if v.count <= cap}
        if asked or arrays.count <= min(cap, SMALL_WORDS):
            self._levels[arrays.n] = arrays

    def _base_level(self) -> LevelArrays:
        """Level 1: the step from each symbol's core span.  A bracket every
        symbol leaves exact is stored once, here and at every later level:
        only linear branches and a depth-1 or linear geometric phi make one."""
        m = self.map
        spans, zero = np.array(m.core_spans), np.zeros(m.p)
        data = (spans[:, 0], spans[:, 1], zero, zero, zero, zero, np.zeros(m.p, dtype=np.int64))
        parts = [self._step(j, data, 0, lambda col: col[j : j + 1], pull=False) for j in range(m.p)]
        cols = [None if col[0] is None else np.concatenate(col) for col in zip(*parts)]
        for k in (3, 5):
            cols[k] = cols[k - 1] if all(q[k] is q[k - 1] for q in parts) else cols[k]
        arrays = LevelArrays(1, *cols, np.arange(m.p, dtype=np.int8), np.arange(m.p, dtype=np.int8))
        self._store(arrays)
        return arrays

    def _extend(self, prev: LevelArrays) -> LevelArrays:
        """Level n+1, each branch's rows written into its columns.  Newton
        branches invert only the ends new since level n-1 (`_newton_ends`);
        closed forms invert every end in a few flops; a table that makes no
        ends (see the class) inverts none."""
        m, n, A = self.map, prev.n, self.map.transition
        data = tuple(getattr(prev, f.name) for f in fields(LevelArrays)[1:8])
        if not self._makes_ends:  # level 1's spans seed no deeper ends
            data = (None, None) + data[2:]
        sizes = np.diff(np.searchsorted(prev.first, np.arange(m.p + 1, dtype=np.int8)))
        # Columns as prev's: an exact bracket stays one array (`_base_level`).
        fresh: dict[int, np.ndarray] = {}
        for c in data + (prev.first, prev.last):
            if c is not None and id(c) not in fresh:
                fresh[id(c)] = np.empty(int((A @ sizes).sum()), c.dtype)
        cols = [None if c is None else fresh[id(c)] for c in data + (prev.first, prev.last)]
        at = 0
        for i, br in enumerate(m.branches):
            mask, size = np.repeat(A[i].astype(bool), sizes), int(A[i] @ sizes)
            take = _same if size == prev.count else lambda col: col[mask]
            rows = slice(at, at + size)
            views, ends = tuple(None if c is None else c[rows] for c in cols[:7]), None
            if br.family == "power":  # increasing
                parent = None
                if self._nested:  # a full shift: every row admits i
                    start = int(sizes[:i].sum())
                    par = slice(start, start + int(sizes[i]))  # prev's rows i·u
                    parent = (prev.lo[par], prev.hi[par], m.p)
                out = views[:2] + self._d_out(views)
                ends = _newton_ends(br, take(prev.lo), take(prev.hi), parent, out)
            self._step(i, data, n, take, ends=ends, out=views)
            # A branch at a time: a smaller mask.
            if self._makes_ends and np.less_equal(views[1], views[0]).any():
                raise DegenerateCylinder(
                    f"a level-{n + 1} cylinder collapsed below float resolution"
                )
            cols[7][rows], cols[8][rows] = i, take(prev.last)
            at += size
        brs = m.branches
        if n == 1 and m.is_full_shift and all(br.increasing for br in brs) and any(
            br.family == "power" for br in brs
        ):  # the level-2 check that sets `_nested` (see the class)
            k, p_lo, p_hi, lo, hi = m.p, *(c.view(np.int64) for c in (*data[:2], *cols[:2]))
            self._nested = bool((lo[::k] == p_lo).all() and (hi[k - 1 :: k] == p_hi).all())
        return LevelArrays(n + 1, *cols)

    def _d_out(self, views: tuple) -> tuple:
        """Where a Newton branch's log|T'| ranges (dlo, dhi) go: the psi
        views; without psi a geometric phi's views (two: a power branch
        leaves no bracket exact), dlo where coefficient * dlo goes, so
        `_Prepend` scales and sums in place; else a scratch pair."""
        if views[2] is not None:
            return views[2:4]
        if self.phi is not None and self.phi.kind == "geometric":
            return views[4:6] if self.phi.coefficient >= 0.0 else views[5:3:-1]
        return np.empty(views[0].size), np.empty(views[0].size)


def _repeats(lo: np.ndarray, hi: np.ndarray, linked_top: bool, k: int | None) -> tuple:
    """Which ends of the rows lo, hi (a block of a level's rows that admit a
    branch) repeat bits whose image is in hand: a row's lo may be the hi
    above it (`linked_top`: the first row's lo is that of the row before
    the block), and on a nested table (k not None) the rows run in runs of
    k children of one parent, each run starting at its parent's lo and
    ending at its hi, whose images are rows of the level.  Returns the rows
    whose lo and hi are new, (rows, parents) of the unlinked first
    children, the rows of the last children, and the rows whose lo is not
    the hi above, as index arrays or slices (no parent rows for k None)."""
    linked = np.empty(lo.size, dtype=bool)
    linked[0] = linked_top
    np.equal(lo[1:].view(np.int64), hi[:-1].view(np.int64), out=linked[1:])
    unlinked = np.flatnonzero(~linked)
    if k is None:
        return unlinked, slice(None), (unlinked[:0],) * 2, unlinked[:0], unlinked
    first = unlinked % k == 0
    new_hi = slice(0, None, k) if k == 2 else np.flatnonzero(np.arange(lo.size) % k != k - 1)
    firsts = unlinked[first]
    return unlinked[~first], new_hi, (firsts, firsts // k), slice(k - 1, None, k), unlinked


def _newton_ends(br, lo, hi, parent, out: tuple) -> tuple:
    """An increasing branch's cylinders of the rows lo, hi into out[0:2] and
    the range of log|T'| on each into out[2:4].  Only the ends `_repeats`
    calls new are inverted; given `parent` = (src_lo, src_hi, k) on a
    nested table (see `CylinderTable`), the rows run in runs of k children,
    and src_lo and src_hi are the images of their parents' ends, which the
    first child's lo and the last child's hi repeat.  log|T'| is
    evaluated once per image, but at the unlinked rows' lo.  Rows go in
    blocks of 2 * _INVERSE_BLOCK runs (k = 1 without `parent`), each with
    its own gather, inverse, scatter and ranges, so no temporary grows with
    the level; on a two-branch full shift a block has about 2 *
    _INVERSE_BLOCK new ends (blocks half this size measured slower, from
    numpy's cost per call).  A block recomputes the log|T'| of the row
    above it."""
    a, b, dlo, dhi = out[:4]
    src_lo, src_hi, k = parent or (lo[:0], lo[:0], 1)
    width, bits_lo, bits_hi = 2 * _INVERSE_BLOCK * k, lo.view(np.int64), hi.view(np.int64)
    for s in range(0, lo.size, width):
        e, top = min(s + width, lo.size), max(s - 1, 0)  # top: the row above, if any
        rows, runs = slice(s, e), slice(s // k, e // k)
        linked_top = s > 0 and bits_lo[s] == bits_hi[s - 1]
        new_lo, new_hi, (lo_rows, lo_par), hi_rows, unlinked = _repeats(
            lo[rows], hi[rows], linked_top, None if parent is None else k
        )
        aa, bb = a[rows], b[rows]
        y = lo[rows][new_lo]
        x = br.inverse(np.concatenate((y, hi[rows][new_hi])))
        level_counts["inverse_points"] += x.size
        bb[new_hi], bb[hi_rows] = x[y.size :], src_hi[runs]
        a[top + 1 : e] = b[top : e - 1]  # a row's lo is the hi above it, but at the unlinked rows
        aa[new_lo], aa[lo_rows] = x[: y.size], src_lo[runs][lo_par]
        del x, y
        lb = br.log_abs_derivative(b[top:e])
        np.minimum(lb[:-1], lb[1:], out=dlo[top + 1 : e])
        np.maximum(lb[:-1], lb[1:], out=dhi[top + 1 : e])
        if unlinked.size:
            lb, la = lb[s - top :][unlinked], br.log_abs_derivative(aa[unlinked])
            dlo[rows][unlinked], dhi[rows][unlinked] = np.minimum(la, lb), np.maximum(la, lb)
    return out[:4]


def shared_table(m: MarkovMap, phi: Potential | None = None) -> CylinderTable:
    """CylinderTable memoized on the map, so readers that come back to a
    level (b(a) lanes, the Legendre search, endpoints, block measures)
    reuse the levels already built for the same potential."""
    table = m._table_cache.get(phi)
    if table is None:
        table = m._table_cache[phi] = CylinderTable(m, phi)
    return table


# ---------------------------------------------------------------------------
# sparse words


def word_rows(
    m: MarkovMap,
    words: Iterable[Sequence[int]],
    phi: Potential | None = None,
    *,
    terminal: tuple[float, float] | None = None,
) -> tuple:
    """The columns (lo, hi, psi_lo, psi_hi, phi_lo, phi_hi) of the words'
    cylinders and Birkhoff brackets in input order, phi's None without phi.

    Each word is built right to left from its last symbol's core span (or
    the preimage of `terminal`, inside that symbol's follow span), each
    distinct suffix once.  A suffix another extends is made at its step, in
    one `_Prepend` call per symbol and one inverse call for its ends; whole
    words wait, and those prepending one symbol share one call at the end.
    Every inverse point iterates alone: each row is the table's bit for bit.

    Raises:
        ValueError: inadmissible word.
        DegenerateCylinder: interval collapsed to a point in float arithmetic.
    """
    words = [tuple(w) for w in words]
    base = np.array(m.core_spans if terminal is None else [terminal])
    # Suffix rows follow the base rows, in a trie (row of w, i) -> row of
    # i·w.  A word's walk resumes at the longest suffix it shares with the
    # word before; a new row checks its first pair.
    trie, path, prev, final, rows = {}, [], (), [], []  # rows: (i, row of w, len(w))
    for word in words:
        if not word:
            raise ValueError("word () is not admissible for this map")
        n = len(word)
        shared = next(compress(count(), map(ne, reversed(word), reversed(prev))), min(n, len(prev)))
        del path[shared:]
        row, prev = path[-1] if path else word[-1] if terminal is None else 0, word
        for k in range(n - 1 - shared, -1, -1):
            new = len(base) + len(rows)
            up, row = row, trie.setdefault((row, word[k]), new)
            if row == new:
                if not m.admissible(word[k : k + 2]):
                    raise ValueError(f"word {word} is not admissible for this map")
                rows.append((word[k], up, n - 1 - k))
            path.append(row)
        final.append(row)
    # One call per (stage, symbol, n, pull): rows another extends at stage
    # len(w), whole words after them all, where n enters `_Prepend` only as
    # min(n, d - 1); pull is False where a core span is the cylinder.
    step = _Prepend(m, phi)
    d = 1 if step.ranges is None else phi.depth
    extended, calls = {up for _, up, _ in rows}, {}
    for row, (i, up, t) in enumerate(rows, len(base)):
        waits, pull = row not in extended, t > 0 or terminal is not None
        key = (waits, 0 if waits else t, i, min(t, d - 1) if waits else t, pull)
        calls.setdefault(key, []).append((row, up))
    cols = [*np.zeros((6, len(base) + len(rows))), np.zeros(len(base) + len(rows), np.int64)]
    cols[0][: len(base)], cols[1][: len(base)] = base.T
    for (*_, i, n, pull), pairs in sorted(calls.items()):
        (own, up), br = np.array(pairs).T, m.branches[i]
        lo, hi = cols[0][up], cols[1][up]
        if pull:
            x = br.inverse(np.concatenate((lo, hi)))
            lo, hi = (x[: up.size], x[up.size :])[:: 1 if br.increasing else -1]
        ends = (lo, hi, *br.log_deriv_range(lo, hi))
        for col, data in zip(cols, step(i, cols, n, lambda col: col[up], ends=ends)):
            if data is not None:
                col[own] = data
        level_counts["sparse_calls"] += 1
        level_counts["sparse_rows"] += up.size
    lo, hi, *sums = (col[final] for col in cols[:6])
    collapsed = np.flatnonzero(hi - lo <= 0.0)
    if collapsed.size:
        raise DegenerateCylinder(f"cylinder of {words[collapsed[0]]} collapsed to a point")
    return lo, hi, *sums[:2], *(sums[2:] if phi is not None else (None, None))
