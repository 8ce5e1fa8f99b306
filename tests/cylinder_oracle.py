"""The scalar cylinder path that `symbolic.word_rows` replaced, kept as its
oracle.

`cylinders` applies the table's step `symbolic._Prepend` to scalars, word by
word inside a suffix trie: a word's data are built right to left, the last
symbol's core span (or the preimage of `terminal`) first, then one
prepended symbol at a time.  Each inverse point is stepped alone, so a
word's scalar data equal its table row, and its `word_rows` row, bit for
bit.  `cylinder` is the one-word case, and `Cylinder.columns` gives a list
of cylinders as `word_rows` gives its columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from operator import ne
from typing import Iterable, Sequence

import numpy as np

from dimspectra.errors import DegenerateCylinder
from dimspectra.maps import MarkovMap
from dimspectra.symbolic import Potential, _Prepend


@dataclass(frozen=True)
class Cylinder:
    """One admissible word with its interval and Birkhoff-sum brackets."""

    word: tuple[int, ...]
    interval: tuple[float, float]
    diameter: float
    birkhoff_psi: tuple[float, float]
    birkhoff_phi: tuple[float, float] | None

    @staticmethod
    def columns(cyls: Sequence["Cylinder"]) -> tuple:
        """(lo, hi, psi_lo, psi_hi, phi_lo, phi_hi) over `cyls`, as arrays;
        the phi columns None where the cylinders carry no phi."""
        cols = [np.array([c.interval[k] for c in cyls]) for k in (0, 1)]
        cols += [np.array([c.birkhoff_psi[k] for c in cyls]) for k in (0, 1)]
        if cyls and cyls[0].birkhoff_phi is None:
            return (*cols, None, None)
        return (*cols, *(np.array([c.birkhoff_phi[k] for c in cyls]) for k in (0, 1)))


def cylinder(
    m: MarkovMap,
    word: Sequence[int],
    phi: Potential | None = None,
    *,
    terminal: tuple[float, float] | None = None,
) -> Cylinder:
    """The one-word case of :func:`cylinders`."""
    return cylinders(m, [word], phi, terminal=terminal)[0]


def cylinders(
    m: MarkovMap,
    words: Iterable[Sequence[int]],
    phi: Potential | None = None,
    *,
    terminal: tuple[float, float] | None = None,
) -> list[Cylinder]:
    """Cylinder intervals and Birkhoff brackets for each word, on scalars.

    The data after the symbols word[k:] depend on that suffix alone, so
    words sharing a suffix share its steps: the data are kept in a suffix
    trie for the length of the call, and each word's walk down the trie
    resumes from the longest suffix it shares with the previous word.

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
        # Resume at the longest suffix this word shares with the previous one.
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
