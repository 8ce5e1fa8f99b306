"""The scalar root generators that the array root solver
(`numerics._solve_roots`) replaced, kept as its oracle.

Each is a lane: a generator that yields every x it needs and is sent back
f(x); run one with `numerics._drive`.  `_descend` is what
`descending_root` computes, one x at a time.
"""

from __future__ import annotations


def _bisect(lo: float, hi: float, flo=None, fhi=None, *, xtol: float, max_iter: int):
    """Bisection lane on [lo, hi] to xtol; f(lo) and f(hi), asked for only
    if not passed in, must differ in (weak) sign, else ValueError."""
    if flo is None:
        flo = yield lo
    if fhi is None:
        fhi = yield hi
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol or mid == lo or mid == hi:
            break
        fm = yield mid
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)


def _expand(start: float, step: float, f0=None, *, max_expand: int):
    """Expansion lane: step from `start`, doubling `step` each miss, until
    f changes sign (ValueError after max_expand); given f(start) if known.
    Returns (lo, hi, f(lo), f(hi))."""
    if f0 is None:
        f0 = yield start
    if f0 == 0.0:
        return start, start, f0, f0
    x, fx = start, f0
    for _ in range(max_expand):
        x_next = x + step
        f_next = yield x_next
        if f_next == 0.0 or (f_next > 0.0) != (f0 > 0.0):
            return (x, x_next, fx, f_next) if x < x_next else (x_next, x, f_next, fx)
        x, fx = x_next, f_next
        step *= 2.0
    raise ValueError("no sign change found while expanding bracket")


def _descend(start: float, *, xtol: float, step: float = 1.0):
    """Descending-root lane (see `descending_root`): each x is asked once."""
    f0 = yield start
    if f0 == 0.0:
        return start
    lo, hi, flo, fhi = yield from _expand(
        start, step if f0 > 0.0 else -step, f0, max_expand=60
    )
    return (yield from _bisect(lo, hi, flo, fhi, xtol=xtol, max_iter=200))
