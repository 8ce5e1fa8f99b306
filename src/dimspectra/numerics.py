"""Low-level numeric helpers: log-sum-exp, Aitken extrapolation, root finding.

All reductions here are deterministic: chunk boundaries are fixed by array
length, within-chunk sums use numpy's pairwise reduction, and the chunk
sums of a row are added exactly rounded (`math.fsum`).  Repeated runs on
the same machine therefore produce identical bits.

`log_sum_exp` reduces a 1-d array as a single row, so on a 2-d array it
gives, for each row, the bits the 1-d call on that row gives: a solve
that evaluates many lanes in one call (see `_solve_roots`) computes what
solving each lane alone would.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

# Fixed chunk size for log-sum-exp reductions, a constant of the build.
_CHUNK = 1 << 15


def log_sum_exp(values: np.ndarray) -> float:
    """log(sum(exp(values))) with max shifting, safe against overflow.

    Args:
        values: 1-d float array, reduced as one row; -inf entries
            contribute zero mass.  A 2-d array is reduced along its last
            axis, one result per row, each bit for bit the 1-d call's on
            that row.

    Returns:
        The log-sum, or -inf for an empty / all -inf input; an array of
        them for a 2-d input.

    Raises:
        ValueError: a nan or +inf entry (in any row).
    """
    values = np.asarray(values, dtype=float)
    lse_counts["calls"] += 1
    lse_counts["entries"] += values.size
    rows = values if values.ndim == 2 else values.reshape(1, -1)
    m = rows.max(axis=1, initial=-math.inf)  # empty rows: -inf
    finite = np.isfinite(m)  # tested once, for both paths
    shift = m
    if not finite.all():
        if not np.all(finite | (m == -math.inf)):
            raise ValueError("log_sum_exp received a non-finite (nan or +inf) entry")
        shift = np.where(finite, m, 0.0)
    if rows.shape[1] <= _CHUNK:
        sums = np.exp(rows - shift[:, None]).sum(axis=1)
    else:  # a chunk at a time, in chunk order; the chunk sums exactly rounded
        sums = np.array([
            math.fsum(float(np.exp(row[i : i + _CHUNK] - s).sum())
                      for i in range(0, row.size, _CHUNK))
            for row, s in zip(rows, shift.tolist())
        ])
    if shift is not m:
        sums[~finite] = 1.0  # empty and all -inf rows: -inf + log 1
    # math.log per row: np.log may differ from it in the last bit.
    out = m + np.fromiter(map(math.log, sums.tolist()), float, sums.size)
    return out if values.ndim == 2 else float(out[0])


class AitkenAccelerator:
    """Repeated Aitken delta-squared extrapolation of one sequence per lane,
    the live lanes pushing together.

    One round collapses a geometric error mode; parabolic ladders carry a
    slower secondary mode, so two rounds are chained (the first feeds the
    second's input).  Degenerate differences fall back to the raw value, so
    exact sequences pass through unchanged.  Each entry takes the IEEE
    operations of the scalar update, with Python's max(1.0, |v2|).
    """

    __slots__ = ("_rounds", "_lanes")

    def __init__(self, lanes: int) -> None:
        self._lanes = lanes
        self._rounds: list[list[np.ndarray]] = [[], []]

    def push(self, live: np.ndarray, value: np.ndarray) -> np.ndarray:
        """Record the next raw values of the lanes at indices live, which
        must be every lane that pushed before and has not left; return
        their best current estimates."""
        for values in self._rounds:
            row = np.full(self._lanes, math.nan)
            row[live] = value
            values.append(row)
            if len(values) < 3:
                return value
            v0, v1, v2 = (v[live] for v in values[-3:])
            with np.errstate(all="ignore"):  # Python floats do not warn
                d1, d2 = v1 - v0, v2 - v1
                den, scale = d2 - d1, np.abs(v2)
                flat = np.abs(den) <= 1e-14 * np.where(scale > 1.0, scale, 1.0)
                value = np.where(flat, v2, v2 - d2 * d2 / den)
        return value


# A solve's work, counted over every call of `_solve_roots`.
root_counts = {"solves": 0, "lane_evals": 0, "curve_calls": 0}

# `log_sum_exp`'s work, counted over every call: calls (a 2-d call is one)
# and entries reduced.
lse_counts = {"calls": 0, "entries": 0}


# ---------------------------------------------------------------------------
# solvers

_NO_SIGN_CHANGE = "no sign change found while expanding bracket"


def _solve_roots(
    values: Callable, start: np.ndarray, *, step: float, xtol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Descending roots of many lanes (see `descending_root`), as (roots,
    failed); values(live, x) gives f at x for the lanes at indices live,
    once per step on the lanes still live.  Each lane takes the scalar
    steps: f at its start; a doubling walk to a sign change (60 steps, else
    it has failed); bisection at 0.5*(lo + hi) until hi - lo <= xtol, the
    midpoint meets an end, or 200 steps.  An exact zero ends a lane at
    that x."""
    root_counts["solves"] += start.size

    def ask(live: np.ndarray, x: np.ndarray) -> np.ndarray:
        root_counts["lane_evals"] += live.size
        root_counts["curve_calls"] += 1
        return values(live, x)

    roots = start.copy()
    f = ask(np.arange(start.size), start)
    walk = np.flatnonzero(f != 0.0)
    x, up = start[walk], f[walk] > 0.0  # walk forward while f > 0
    dx = np.where(up, step, -step)
    # A sign change needs x_next != x, and the walk steps forward exactly
    # where f > 0, so every bracket has f(lo) > 0 > f(hi).
    live, lo, hi = [walk[:0]], [x[:0]], [x[:0]]
    for _ in range(60):
        if not walk.size:
            break
        x_next = x + dx
        f = ask(walk, x_next)
        zero = f == 0.0
        turned = zero | ((f > 0.0) != up)
        if np.count_nonzero(turned):
            roots[walk[zero]] = x_next[zero]
            new, ahead = turned & ~zero, x < x_next
            live.append(walk[new])
            lo.append(np.where(ahead, x, x_next)[new])
            hi.append(np.where(ahead, x_next, x)[new])
            keep = ~turned
            walk, x_next, up, dx = walk[keep], x_next[keep], up[keep], dx[keep]
        x, dx = x_next, dx * 2.0
    live, lo, hi = (np.concatenate(v) for v in (live, lo, hi))
    # The midpoint meets an end only where the ends are equal or adjacent
    # floats: at most max(2**-1074, 2**-52 * max |end|) apart, and the
    # brackets only shrink.  Where xtol covers that, the width test alone
    # ends those lanes (a nan end keeps both tests).
    reach = np.maximum(-lo.min(), hi.max()) if live.size else 0.0
    meets = not (xtol > 0.0 and xtol >= 2.0**-52 * reach)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        done = hi - lo <= xtol
        if meets:
            done |= (mid == lo) | (mid == hi)
        if np.count_nonzero(done):
            roots[live[done]] = mid[done]
            keep = ~done
            live, lo, hi, mid = (v[keep] for v in (live, lo, hi, mid))
        if not live.size:
            break
        f = ask(live, mid)
        if np.count_nonzero(f) < live.size:  # exact zeros end at the midpoint
            keep = f != 0.0
            roots[live[~keep]] = mid[~keep]
            live, lo, hi, mid, f = (v[keep] for v in (live, lo, hi, mid, f))
        take = f > 0.0  # the midpoint replaces lo
        lo, hi = np.where(take, mid, lo), np.where(take, hi, mid)
    roots[live] = 0.5 * (lo + hi)
    failed = np.zeros(start.size, dtype=bool)
    failed[walk] = True
    return roots, failed


def descending_root(fn: Callable[[float], float], start: float, *, xtol: float) -> float:
    """Root of a strictly decreasing function, bracketed by walking from
    `start` (forward while fn > 0, backward while fn < 0) with a doubling
    step from 1.0, then bisected to `xtol`: one lane of `_solve_roots`.

    Raises:
        ValueError: no sign change within 60 doublings of the step.
    """
    (root,), (failed,) = _solve_roots(
        lambda _, x: np.array([fn(x.item())]), np.array([float(start)]), step=1.0, xtol=xtol
    )
    if failed:
        raise ValueError(_NO_SIGN_CHANGE)
    return root.item()

