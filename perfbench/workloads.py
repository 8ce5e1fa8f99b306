"""The benchmark's workloads: seeded YAML configs and the checks on their CSVs.

Seed 0 gives exactly the inputs the workloads were chosen for; any other
seed draws the Bernoulli weight p, the geometric coefficient and the grid
offsets from ranges narrow enough that every command keeps seed 0's exit
code and stopping rule (checked by `record_reference.py` for the shipped
seeds).
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path

LOG2 = math.log(2.0)

# Enclosures recorded at the reference commit are accumulated in
# round-to-nearest and not widened outward (ROADMAP item 4), so a value that
# agrees to rounding with a zero-width reference enclosure must still count
# as inside it.
REFERENCE_SLACK = 1e-12
# The spectrum runs at tol 1e-10 on b; f = alpha*b - a inherits up to
# alpha_max * tol, so ten times tol is the oracle's miss threshold.
ORACLE_TOL = 1e-9
# blockopt takes no tol; it bisects its multiplier b to this xtol
# (finite_measures.optimize_block_weights).
BLOCKOPT_XTOL = 1e-11


def reference_pad(command: dict) -> float:
    """Absolute padding of the reference enclosures of one command.

    spectrum and blockopt record zero-width brackets, and a correct solver
    may land anywhere within the accuracy the command asks for, so each
    reference bracket is widened by ten times that accuracy (f and the
    blockopt dimension inherit the solved variable's error times alpha).
    """
    return 10.0 * command.get("tol", BLOCKOPT_XTOL if command["name"] == "blockopt" else 0.0)


# (value, lower, upper) columns checked per command: the value must lie in
# its own bracket and in the reference's.  A value of None stands for the
# bracket's midpoint, for brackets without a value column.  blockopt's
# `objective` is the unspread block objective while its dim bracket belongs
# to the spread measure: the two agree only to rounding (1 ulp apart at
# p = 0.2574), so the objective is not checked against that bracket.
BRACKETS = {
    "pressure": (("value", "lower", "upper"),),
    "bcurve": (("b", "b_low", "b_high"),),
    "spectrum": (("b", "b_low", "b_high"), ("f", "f_low", "f_high")),
    "endpoints": (
        ("alpha_min", "alpha_min_low", "alpha_min_high"),
        ("alpha_max", "alpha_max_low", "alpha_max_high"),
    ),
    "blockopt": ((None, "dim_low", "dim_high"),),
    "induce": (("b", "b_low", "b_high"),),
    "localdim": ((None, "ratio_low", "ratio_high"), (None, "mass_dim_low", "mass_dim_high")),
}
# (lower, upper) columns of the headline result, for certified digits.
DIGITS = {
    "pressure": ("lower", "upper"),
    "spectrum": ("f_low", "f_high"),
    "endpoints": ("alpha_min_low", "alpha_min_high"),
    "blockopt": ("dim_low", "dim_high"),
    "induce": ("b_low", "b_high"),
}


@dataclass(frozen=True)
class Params:
    p: float  # Bernoulli weight of symbol 0
    coefficient: float  # geometric potential on Manneville-Pomeau
    alpha_shift: tuple[float, float]  # shift of the alpha grid's relative ends
    induce_stop: float  # last a of the induced grid


def params(seed: int) -> Params:
    """Seed 0 is the reference input.  The coefficient range keeps the
    Manneville-Pomeau ladder stopping at level 19 by the ratio rule (it stops
    at 20 below about -0.703 and at 18 above about -0.679).  The Farey
    endpoint search has none of these inputs, so it is the same on every
    seed."""
    if seed == 0:
        return Params(0.25, -0.7, (0.0, 0.0), 2.0)
    rng = random.Random(seed)
    return Params(
        p=round(rng.uniform(0.22, 0.28), 4),
        coefficient=round(rng.uniform(-0.700, -0.682), 4),
        alpha_shift=(round(rng.uniform(-0.01, 0.01), 4), round(rng.uniform(-0.01, 0.01), 4)),
        induce_stop=round(rng.uniform(1.9, 2.1), 4),
    )


def _bernoulli(p: float) -> dict:
    return {
        "kind": "locally_constant",
        "depth": 1,
        "table": {"0": math.log(p), "1": math.log(1.0 - p)},
    }


def alpha_range(p: float) -> tuple[float, float]:
    """Exact (alpha_min, alpha_max) of Bernoulli(p, 1-p) on the doubling map."""
    a, b = -math.log(p) / LOG2, -math.log(1.0 - p) / LOG2
    return min(a, b), max(a, b)


def oracle_f(p: float, alpha: float) -> float:
    """Closed-form f(alpha) = H(t)/log 2 for Bernoulli(p, 1-p) on doubling,
    where t is the frequency of symbol 0 with local dimension alpha."""
    lp, lq = math.log(p), math.log(1.0 - p)
    t = (alpha * LOG2 + lq) / (lq - lp)
    if t <= 0.0 or t >= 1.0:
        return 0.0 if t in (0.0, 1.0) else -math.inf
    return -(t * math.log(t) + (1.0 - t) * math.log(1.0 - t)) / LOG2


# Relative positions of the shipped 0.45..1.95 grid inside (alpha_min,
# alpha_max) for p = 1/4; other seeds keep them, shifted slightly.
_LO0, _HI0 = alpha_range(0.25)
_REL = ((0.45 - _LO0) / (_HI0 - _LO0), (1.95 - _LO0) / (_HI0 - _LO0))


def alpha_grid(par: Params) -> dict:
    lo, hi = alpha_range(par.p)
    ends = [round(lo + (r + s) * (hi - lo), 6) for r, s in zip(_REL, par.alpha_shift)]
    return {"start": ends[0], "stop": ends[1], "count": 50}


def commands(workload: str, seed: int) -> list[dict]:
    """The workload's configs without their output section, in run order."""
    par = params(seed)
    if workload == "spectrum_linear":
        return [{
            "map": {"family": "doubling"},
            "potential": _bernoulli(par.p),
            "command": {
                "name": "spectrum",
                "alpha_grid": alpha_grid(par),
                "tol": 1.0e-10,
                "max_level": 16,
            },
        }]
    if workload == "parabolic":
        return [{
            "map": {"family": "manneville_pomeau", "s": 0.5},
            "potential": {"kind": "geometric", "coefficient": par.coefficient},
            "command": {"name": "pressure", "tol": 1.0e-6, "max_level": 22},
        }, {
            "map": {"family": "farey"},
            "potential": _bernoulli(0.5),
            "command": {
                "name": "induce",
                "truncation": 300,
                "a_grid": {"start": 0.0, "stop": par.induce_stop, "count": 21},
                "tol": 1.0e-10,
            },
        }]
    if workload == "finite_level":
        return [{
            "map": {"family": "farey"},
            "potential": _bernoulli(0.5),
            "command": {"name": "endpoints", "level": 11},
        }, {
            "map": {"family": "linear_full_branch", "slopes": [2.0, 4.0]},
            "potential": _bernoulli(par.p),
            "command": {"name": "blockopt", "level": 18, "alpha": 1.0},
        }]
    raise KeyError(workload)


WORKLOADS = ("spectrum_linear", "parabolic", "finite_level")


# ---------------------------------------------------------------------------
# checks


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _inside(x: float, lo: float, hi: float, slack: float = 0.0, pad: float = 0.0) -> bool:
    if x == lo or x == hi:  # covers equal infinities
        return True
    pad_lo = pad + slack * max(1.0, abs(lo)) if math.isfinite(lo) else 0.0
    pad_hi = pad + slack * max(1.0, abs(hi)) if math.isfinite(hi) else 0.0
    return lo - pad_lo <= x <= hi + pad_hi


def _unconverged(row: dict[str, str], value_col: str | None) -> bool:
    return row.get("mode") == "enclosure" or (
        value_col is not None and math.isnan(float(row[value_col]))
    )


def row_failures(
    name: str,
    rows: list[dict[str, str]],
    reference: list[dict[str, str]] | None,
    oracle_p: float | None,
    pad: float = 0.0,
) -> tuple[list[str], float]:
    """One reason string per failed row, and the largest oracle error.

    A row fails if its value lies outside its own bracket, if it fell to an
    enclosure where the reference converged, if its value lies outside the
    reference enclosure widened by `pad` (see `reference_pad`), or if it
    misses the closed form.
    """
    failures: list[str] = []
    oracle_err = 0.0
    if reference is not None and len(rows) != len(reference):
        return [f"{name}: {len(rows)} rows, reference has {len(reference)}"] * max(
            len(rows), len(reference)
        ), math.nan
    for i, row in enumerate(rows):
        why = []
        ref = reference[i] if reference is not None else None
        for value_col, lo_col, hi_col in BRACKETS[name]:
            lo, hi = float(row[lo_col]), float(row[hi_col])
            label = value_col or f"mid({lo_col}, {hi_col})"
            x = float(row[value_col]) if value_col else 0.5 * (lo + hi)
            if ref is not None and _unconverged(row, value_col) and not _unconverged(ref, value_col):
                why.append(f"{label} fell to an enclosure")
                continue
            if math.isnan(x):  # an enclosure row, as in the reference
                continue
            if not (lo <= hi and _inside(x, lo, hi)):
                why.append(f"{label}={x!r} outside own [{lo!r}, {hi!r}]")
            if ref is not None:
                rlo, rhi = float(ref[lo_col]), float(ref[hi_col])
                if not _inside(x, rlo, rhi, REFERENCE_SLACK, pad):
                    why.append(f"{label}={x!r} outside reference [{rlo!r}, {rhi!r}]")
        if oracle_p is not None:
            err = abs(float(row["f"]) - oracle_f(oracle_p, float(row["alpha"])))
            oracle_err = max(oracle_err, err)
            if not err <= ORACLE_TOL:
                why.append(f"f misses the closed form by {err:.3g}")
        if why:
            failures.append(f"{name} row {i}: " + "; ".join(why))
    return failures, oracle_err


def certified_digits(name: str, rows: list[dict[str, str]]) -> float:
    """Mean over rows of -log10(max(upper - lower, 1e-16)); rows whose bracket
    is not finite (an infinite alpha_max) are skipped."""
    lo_col, hi_col = DIGITS[name]
    digits = []
    for row in rows:
        width = float(row[hi_col]) - float(row[lo_col])
        if math.isfinite(width):
            digits.append(-math.log10(max(width, 1e-16)))
    return sum(digits) / len(digits) if digits else math.nan
