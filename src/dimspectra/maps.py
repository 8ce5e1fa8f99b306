"""Markov interval maps built from monotone expanding branches.

A map is a finite family of analytic branches on closed subintervals of
[0, 1] together with a 0/1 transition matrix.  Branches may have parabolic
(derivative-one) fixed points; everything downstream distinguishes maps
with and without them.  A map's geometry is immutable after construction,
but it memoizes its cylinder tables and ray starts without a lock, so one
map is not for sharing across threads.

Supported branch families:

* ``linear``:       T(x) = slope * x + offset
* ``power``:        T(x) = x + c * x**(1+s) - lift  (lift in Z; Manneville-Pomeau: c = 1)
* ``farey_left``:   T(x) = x / (1 - x)
* ``farey_right``:  T(x) = (1 - x) / x

The integer lift of the power family is derived from the declared image,
so "mod 1" branches are written naturally.  Every family has a monotone
derivative on its domain; interval ranges of log|T'| are therefore
exact from endpoint evaluations, which the cylinder machinery relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ContractionViolation,
    MarkovViolation,
    NotTransitive,
    OutOfImage,
)

ENDPOINT_TOL = 1e-12
NEWTON_SWEEPS = 120
_INVERSE_BLOCK = 4096

# The power-branch inverse's work, counted over every call: the sum over
# Newton sweeps of the points each sweep steps.
newton_counts = {"point_sweeps": 0}

_FAMILIES = ("linear", "power", "farey_left", "farey_right")


@dataclass(frozen=True)
class Branch:
    """One monotone expanding branch T_i restricted to its domain.

    Args:
        family: one of the supported family tags.
        domain: closed interval [lo, hi] the branch is defined on.
        image: closed interval the branch maps its domain onto.
        slope, offset: linear family parameters.
        s, c: exponent and prefactor of the power family.

    The integer lift of a power branch is computed in __post_init__
    from the declared image and stored on the instance.
    """

    family: str
    domain: tuple[float, float]
    image: tuple[float, float]
    slope: float | None = None
    offset: float = 0.0
    s: float | None = None
    c: float | None = None
    lift: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown branch family {self.family!r}")
        lo, hi = self.domain
        if not (lo < hi):
            raise ValueError(f"branch domain must be nondegenerate, got {self.domain}")
        ilo, ihi = self.image
        if not (ilo < ihi):
            raise ValueError(f"branch image must be nondegenerate, got {self.image}")
        if self.family == "linear":
            if self.slope is None or self.slope == 0.0:
                raise ValueError("linear branch requires a nonzero slope")
        elif self.family == "power":
            if self.s is None or self.s <= 0.0:
                raise ValueError("power-law branch requires s > 0")
            if self.c is None or self.c <= 0.0:
                raise ValueError("power branch requires c > 0")
            if lo < 0.0:
                raise ValueError("power-law branch domain must lie in [0, inf)")
            # Integer lift so that the raw increasing formula lands on the image.
            raw_lo = lo + self.c * lo ** (1.0 + self.s)
            object.__setattr__(self, "lift", float(round(raw_lo - ilo)))
        elif self.family == "farey_left":
            if hi >= 1.0:
                raise ValueError("farey_left domain must stay left of 1")
        elif self.family == "farey_right":
            if lo <= 0.0:
                raise ValueError("farey_right domain must stay right of 0")

    # -- orientation ------------------------------------------------------

    @property
    def increasing(self) -> bool:
        if self.family == "linear":
            return self.slope > 0.0
        return self.family != "farey_right"

    # -- forward map, derivative ------------------------------------------

    def value(self, x):
        """T_i(x); accepts scalars or arrays, no domain check."""
        x = np.asarray(x, dtype=float)
        if self.family == "linear":
            out = self.slope * x + self.offset
        elif self.family == "power":
            out = x + self.c * x ** (1.0 + self.s) - self.lift
        elif self.family == "farey_left":
            out = x / (1.0 - x)
        else:  # farey_right
            out = (1.0 - x) / x
        return out if out.ndim else float(out)

    def derivative(self, x):
        """T_i'(x); signed."""
        x = np.asarray(x, dtype=float)
        if self.family == "linear":
            out = np.full_like(x, self.slope)
        elif self.family == "power":
            out = 1.0 + self.c * (1.0 + self.s) * x**self.s
        elif self.family == "farey_left":
            out = (1.0 - x) ** -2.0
        else:
            out = -(x**-2.0)
        return out if out.ndim else float(out)

    def log_abs_derivative(self, x):
        """log|T_i'(x)|, clipped below at 0 only by the caller if needed."""
        x = np.asarray(x, dtype=float)
        if self.family == "linear":
            out = np.full_like(x, math.log(abs(self.slope)))
        elif self.family == "power":  # in one array
            out = np.power(x, self.s, out=np.empty_like(x))
            out *= self.c * (1.0 + self.s)
            out = np.log1p(out, out=out)
        elif self.family == "farey_left":
            out = -2.0 * np.log1p(-x)
        else:
            out = -2.0 * np.log(x)
        return out if out.ndim else float(out)

    def log_deriv_range(self, lo, hi):
        """Exact range of log|T'| on [lo, hi] (derivative is monotone per
        family); one float for linear branches, where it is constant."""
        if self.family == "linear":
            c = math.log(abs(self.slope))
            return c, c
        a = self.log_abs_derivative(lo)
        b = self.log_abs_derivative(hi)
        low = np.minimum(a, b)
        # Array ends are fresh here, so the maximum can take a's storage.
        same = np.ndim(a) and np.shape(a) == np.shape(b)
        return low, np.maximum(a, b, out=a if same else None)

    # -- inverse ----------------------------------------------------------

    def inverse(self, y, *, clamp_tol: float = 1e-9):
        """Preimage under T_i.

        Linear and Farey branches invert in closed form.  The power family
        runs a vector Newton iteration until each point settles, then solve
        again by bisection every point whose residual |x + c*x**(1+s) - z|
        exceeds 1e-12 * max(|z|, x), where z = y + lift.

        Args:
            y: point(s) in the branch image.
            clamp_tol: values this far outside the image are clamped to the
                image endpoint; anything farther raises OutOfImage.

        Raises:
            OutOfImage: if some y is not finite, or lies outside the image
                beyond clamp_tol.
        """
        y = np.asarray(y, dtype=float)
        y_min, y_max = float(y.min()), float(y.max())
        ilo, ihi = self.image
        # Stated so that NaN, which fails every comparison, is rejected too.
        if not (ilo - clamp_tol <= y_min and y_max <= ihi + clamp_tol):
            raise OutOfImage(
                f"point outside branch image [{ilo}, {ihi}]: range [{y_min}, {y_max}]"
            )
        if not (ilo <= y_min and y_max <= ihi):  # an array inside is not copied
            y = np.clip(y, ilo, ihi)
        lo, hi = self.domain
        if self.family == "linear":
            out = y - self.offset
            out /= self.slope
        elif self.family == "farey_left":
            out = y / (1.0 + y)
        elif self.family == "farey_right":
            out = 1.0 / (1.0 + y)
        else:
            y = y + self.lift  # rebound, so an unclipped argument can be freed
            out = _power_inverse(self.c, self.s, y, lo, hi)
        out = out.clip(lo, hi, out=out if out.ndim else None)
        return out if out.ndim else float(out)

    def preimage_interval(self, lo: float, hi: float) -> tuple[float, float]:
        """Preimage of [lo, hi] as a sorted interval (handles orientation)."""
        a = self.inverse(lo)
        b = self.inverse(hi)
        return (a, b) if a <= b else (b, a)


def _power_inverse(c: float, s: float, z, lo: float, hi: float):
    """Solve x + c*x**(1+s) = z on [lo, hi] (increasing convex) by Newton.

    Starts at the right endpoint so convexity makes the iteration decrease
    monotonically onto the root; a bisection sweep catches any stragglers.

    The result is that of NEWTON_SWEEPS full sweeps, but a point leaves the
    sweep as soon as that value is known: at a fixed point of the Newton
    step, or on a 2-cycle between adjacent floats, where the parity of the
    remaining sweeps picks the member.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim == 0:
        return _power_inverse_block(c, s, z[None], lo, hi)[0]
    # Every point iterates alone, so solving in blocks changes no bit; it
    # keeps the sweep's temporaries small on million-point levels.
    x = np.empty_like(z)
    for i in range(0, z.size, _INVERSE_BLOCK):
        block = slice(i, i + _INVERSE_BLOCK)
        x[block] = _power_inverse_block(c, s, z[block], lo, hi)
    return x


def _power_inverse_block(c: float, s: float, z: np.ndarray, lo: float, hi: float):
    """`_power_inverse` on a 1-d array."""
    x = np.empty_like(z)
    live = np.arange(z.size)
    xs, zs = np.full_like(z, hi), z
    back = np.nan  # the iterate two sweeps back
    for k in range(1, NEWTON_SWEEPS + 1):
        newton_counts["point_sweeps"] += zs.size
        # One expression, so that no temporary outlives the step.
        step = np.clip(
            xs - (xs + c * xs ** (1.0 + s) - zs) / (1.0 + c * (1.0 + s) * xs**s), lo, hi
        )
        fixed = step == xs
        settled = fixed | (step == back)
        if settled.any():
            last = step if (NEWTON_SWEEPS - k) % 2 == 0 else xs
            x[live[settled]] = np.where(fixed, step, last)[settled]
            keep = ~settled
            live, zs, back, xs = live[keep], zs[keep], xs[keep], step[keep]
            if not live.size:
                break
        else:
            back, xs = xs, step
    x[live] = xs
    resid = np.abs(x + c * x ** (1.0 + s) - z)
    bad = resid > 1e-12 * np.maximum(np.abs(z), x)
    if np.any(bad):
        xlo = np.full(int(bad.sum()), lo)
        xhi = np.full(int(bad.sum()), hi)
        zb = z[bad]
        for _ in range(120):
            xm = 0.5 * (xlo + xhi)
            below = xm + c * xm ** (1.0 + s) < zb
            xlo = np.where(below, xm, xlo)
            xhi = np.where(below, xhi, xm)
        xb = 0.5 * (xlo + xhi)
        for _ in range(10):  # Newton polish from the bisection seed
            fb = xb + c * xb ** (1.0 + s) - zb
            xb = np.clip(xb - fb / (1.0 + c * (1.0 + s) * xb**s), lo, hi)
        x[bad] = xb
    return x


@dataclass(frozen=True)
class ParabolicOrbit:
    """A parabolic orbit: a point where |T'| = 1 that its own increasing
    branch fixes, read off the branch family in closed form.

    Attributes:
        word: branch indices (i_1, ..., i_m) coding the orbit.
        points: orbit points, points[k] in the domain of branch word[k].
        multiplier: |(T^m)'| at the orbit, exactly 1 for every family.
        beta: one-sided degeneracy exponent of ||(T^m)'| - 1| ~ L*|x - w|**beta.
        L: prefactor of the power law above.  (beta, L) is (s, c(1+s)) for
            power-law branches and (1, 2) for farey_left.
    """

    word: tuple[int, ...]
    points: tuple[float, ...]
    multiplier: float
    beta: float
    L: float


class MarkovMap:
    """Validated Markov interval map.  Construct via :func:`build_map`."""

    def __init__(
        self,
        branches: tuple[Branch, ...],
        transition: np.ndarray,
        aperiodicity_power: int,
        parabolic_orbits: tuple[ParabolicOrbit, ...],
        core_spans: tuple[tuple[float, float], ...],
    ):
        self.branches = branches
        transition = np.array(transition, dtype=np.int8)
        transition.setflags(write=False)
        self.transition = transition
        self._pairs = frozenset(zip(*(ix.tolist() for ix in np.nonzero(transition))))
        self.is_full_shift = len(self._pairs) == len(branches) ** 2
        self.aperiodicity_power = aperiodicity_power
        self.parabolic_orbits = parabolic_orbits
        self.core_spans = core_spans
        self._table_cache: dict = {}
        self._ray_cache: dict = {}

    # -- basic queries ------------------------------------------------------

    @property
    def p(self) -> int:
        return len(self.branches)

    @property
    def has_parabolic(self) -> bool:
        return bool(self.parabolic_orbits)

    def admissible(self, word: Sequence[int]) -> bool:
        """True when every symbol is in range and every consecutive pair of
        symbols is allowed."""
        if len(word) == 0:
            return True
        if min(word) < 0 or max(word) >= self.p:
            return False
        return self.is_full_shift or set(zip(word, word[1:])) <= self._pairs

    def word_count(self, n: int) -> int:
        """Number of admissible words of length n (exact integer arithmetic)."""
        if n < 1:
            raise ValueError("word length must be >= 1")
        p = self.p
        rows = [[int(self.transition[i, j]) for j in range(p)] for i in range(p)]
        vec = [1] * p
        for _ in range(n - 1):
            vec = [sum(rows[i][j] * vec[j] for j in range(p)) for i in range(p)]
        return sum(vec)

    def log_deriv_bounds(self) -> tuple[float, float]:
        """(inf, sup) of log|T'| over the core spans, exact per family."""
        lows, highs = [], []
        for br, (lo, hi) in zip(self.branches, self.core_spans):
            a, b = br.log_deriv_range(lo, hi)
            lows.append(float(a))
            highs.append(float(b))
        return min(lows), max(highs)

    def __repr__(self) -> str:  # terse; maps appear in error messages
        tag = "parabolic" if self.has_parabolic else "uniformly expanding"
        return f"MarkovMap(p={self.p}, {tag}, k={self.aperiodicity_power})"


def _hull(intervals: Iterable[tuple[float, float]]) -> tuple[float, float]:
    intervals = list(intervals)
    if not intervals:
        raise MarkovViolation("a branch has an empty follow set (zero row in A)")
    return min(a for a, _ in intervals), max(b for _, b in intervals)


# ---------------------------------------------------------------------------
# construction and validation


def build_map(branches: Sequence[Branch], transition=None) -> MarkovMap:
    """Validate branches, derive/verify the transition matrix, find parabolics.

    Args:
        branches: branch specs ordered left to right by domain.
        transition: 0/1 matrix A with A[i,j] = 1 when T_i(J_i) covers J_j;
            pass None to derive it from the declared images.

    Returns:
        An immutable MarkovMap.

    Raises:
        MarkovViolation: overlapping domains, endpoint mismatches, or a
            transition matrix inconsistent with the images.
        ContractionViolation: |T'| < 1 at a domain end, a linear
            |slope| <= 1, or a point where |T'| = 1 (0 on power-law and
            farey_left branches, 1 on farey_right) that its own increasing
            branch does not fix and whose orbit reaches no such fixed point
            within p steps.
        NotTransitive: no power A^(k+1) is strictly positive.
    """
    branches = tuple(branches)
    if not branches:
        raise ValueError("need at least one branch")
    _check_domains_disjoint(branches)
    for i, br in enumerate(branches):
        _check_endpoints(i, br)
    A = _derive_or_check_transition(branches, transition)
    k = _aperiodicity_power(A)
    _check_expansion(branches)
    core = _core_spans(branches, A)
    return MarkovMap(branches, A, k, _parabolic_orbits(branches), core)


def _check_domains_disjoint(branches: tuple[Branch, ...]) -> None:
    order = sorted(range(len(branches)), key=lambda i: branches[i].domain[0])
    if list(order) != list(range(len(branches))):
        raise MarkovViolation("branches must be listed left to right by domain")
    for i in range(len(branches) - 1):
        if branches[i].domain[1] > branches[i + 1].domain[0] + ENDPOINT_TOL:
            raise MarkovViolation(
                f"domains of branches {i} and {i + 1} overlap beyond tolerance"
            )


def _check_endpoints(i: int, br: Branch) -> None:
    lo, hi = br.domain
    ilo, ihi = br.image
    va, vb = br.value(lo), br.value(hi)
    lo_target, hi_target = (ilo, ihi) if br.increasing else (ihi, ilo)
    if abs(va - lo_target) > 1e-9 or abs(vb - hi_target) > 1e-9:
        raise MarkovViolation(
            f"branch {i}: endpoints map to ({va:.17g}, {vb:.17g}), "
            f"declared image is ({ilo:.17g}, {ihi:.17g})"
        )


def _derive_or_check_transition(branches: tuple[Branch, ...], transition) -> np.ndarray:
    p = len(branches)
    derived = np.zeros((p, p), dtype=np.int8)
    for i, bi in enumerate(branches):
        ilo, ihi = bi.image
        for j, bj in enumerate(branches):
            jlo, jhi = bj.domain
            if jlo >= ilo - ENDPOINT_TOL and jhi <= ihi + ENDPOINT_TOL:
                derived[i, j] = 1
            elif jhi > ilo + ENDPOINT_TOL and jlo < ihi - ENDPOINT_TOL:
                raise MarkovViolation(
                    f"image of branch {i} cuts through the interior of domain {j}; "
                    "not a Markov partition"
                )
    if transition is None:
        A = derived
    else:
        A = np.array(transition, dtype=np.int8)
        if A.shape != (p, p) or not np.isin(A, (0, 1)).all():
            raise MarkovViolation(f"transition must be a {p}x{p} 0/1 matrix")
        if not np.array_equal(A, derived):
            bad = np.argwhere(A != derived)
            i, j = bad[0]
            raise MarkovViolation(
                f"transition[{i},{j}]={A[i, j]} contradicts the branch images "
                f"(image coverage says {derived[i, j]})"
            )
    if np.any(A.sum(axis=1) == 0):
        raise MarkovViolation("every branch image must cover at least one domain")
    return A


def _aperiodicity_power(A: np.ndarray) -> int:
    p = A.shape[0]
    # Wielandt: a primitive matrix satisfies A^(p^2 - 2p + 2) > 0.
    bound = max(p * p - 2 * p + 2, 1)
    power = np.array(A, dtype=object)
    for q in range(1, bound + 1):
        if np.all(power > 0):
            return q
        power = power @ A
    raise NotTransitive(
        f"no power A^q with q <= {bound} is strictly positive; "
        "the subshift is not topologically mixing"
    )


def _check_expansion(branches: tuple[Branch, ...]) -> None:
    """|T'| >= 1 on every branch.  |T'| is monotone on every family, so its
    minimum over a domain sits at one of the two ends."""
    for i, br in enumerate(branches):
        if br.family == "linear" and abs(br.slope) <= 1.0 + 1e-9:
            if abs(br.slope) < 1.0 - ENDPOINT_TOL:
                raise ContractionViolation(f"branch {i}: |slope| < 1")
            raise ContractionViolation(
                f"branch {i}: |slope| = 1 makes a whole interval non-expanding"
            )
        d, x_bad = min((abs(float(br.derivative(x))), x) for x in br.domain)
        if d < 1.0 - ENDPOINT_TOL:
            raise ContractionViolation(f"branch {i}: |T'({x_bad:.17g})| = {d:.17g} < 1")


def _core_spans(branches: tuple[Branch, ...], A: np.ndarray) -> tuple[tuple[float, float], ...]:
    """The per-symbol spans of the repeller, in round-to-nearest.

    Iterates span_i <- T_i^{-1}(hull of follow spans) from the full domains.
    In exact arithmetic the iteration is monotone decreasing and stays an
    outer approximation, so stopping early would only widen downstream
    brackets.  The preimages are rounded to nearest, not outward, so the
    spans are not yet outer enclosures: on MP(0.5) span 0 ends at the
    float just below the true split point and span 1 starts at the float
    just above it, so neither contains it (ROADMAP item 23).
    """
    spans = [br.domain for br in branches]
    p = len(branches)
    for _ in range(500):
        new_spans = []
        moved = 0.0
        for i in range(p):
            hull = _hull([spans[j] for j in range(p) if A[i, j]])
            cand = branches[i].preimage_interval(*hull)
            old = spans[i]
            cand = (max(cand[0], old[0]), min(cand[1], old[1]))
            moved = max(moved, old[0] - cand[0], cand[0] - old[0], abs(cand[1] - old[1]))
            new_spans.append(cand)
        spans = new_spans
        if moved < 1e-15:
            break
    return tuple(spans)


def _unit_point(br: Branch) -> float | None:
    """The one point of br's domain where |T'| = 1, if it has one: 0 for
    power-law and farey_left branches whose domain starts there, 1 for a
    farey_right branch whose domain ends there.  |T'| is monotone on every
    family and exceeds 1 elsewhere; a linear |slope| = 1 is refused."""
    lo, hi = br.domain
    if br.family == "farey_right":
        return 1.0 if hi == 1.0 else None
    return 0.0 if br.family != "linear" and lo == 0.0 else None


def _parabolic_orbits(branches: tuple[Branch, ...]) -> tuple[ParabolicOrbit, ...]:
    """The |T'| = 1 points that their own increasing branch fixes.

    |T'| >= 1 everywhere, so |(T^m)'| = 1 on a cycle only if |T'| = 1 at
    each of its points.  Every other |T'| = 1 point must land on a neutral
    fixed point within p steps; a longer cycle of them never does, so it is
    refused by the same check.
    """
    orbits, strays = [], []
    for i, br in enumerate(branches):
        w = _unit_point(br)
        if w is None:
            continue
        if br.increasing and br.value(w) == w:
            beta, L = (1.0, 2.0) if br.family == "farey_left" else (br.s, br.c * (1.0 + br.s))
            orbits.append(ParabolicOrbit((i,), (w,), abs(float(br.derivative(w))), beta, L))
        else:
            strays.append((i, w))
    fixed = [o.points[0] for o in orbits]
    for i, w in strays:
        if not _lands_on(branches, w, fixed, len(branches)):
            raise ContractionViolation(
                f"|T'| = 1 at x = {w:.17g} (branch {i}) but the forward "
                "orbit never reaches a detected parabolic orbit"
            )
    return tuple(orbits)


def _lands_on(
    branches: tuple[Branch, ...], x: float, targets: Sequence[float], steps: int
) -> bool:
    """True when x or one of its next `steps` images lies within 1e-6 of a
    target."""
    for _ in range(steps + 1):
        if any(abs(x - w) <= 1e-6 for w in targets):
            return True
        for br in branches:
            lo, hi = br.domain
            if lo - ENDPOINT_TOL <= x <= hi + ENDPOINT_TOL:
                x = float(br.value(min(max(x, lo), hi)))
                break
        else:  # x left every domain
            return False
    return False


def _periodic_point(
    branches: tuple[Branch, ...],
    A: np.ndarray,
    core: tuple[tuple[float, float], ...],
    word: tuple[int, ...],
) -> float | None:
    """Fixed point of the inverse-branch composition along `word`.

    The composition F = T_{w1}^{-1} o ... o T_{wm}^{-1} is 1-Lipschitz, so
    h(x) = F(x) - x is monotone nonincreasing and bisection is reliable even
    at parabolic points where direct iteration crawls.
    """
    p = len(branches)
    last = word[-1]
    hull = _hull([core[j] for j in range(p) if A[last, j]])

    def compose(x: float) -> float:
        for sym in reversed(word):
            x = float(branches[sym].inverse(x, clamp_tol=1e-6))
        return x

    lo, hi = hull
    h_lo = compose(lo) - lo
    h_hi = compose(hi) - hi
    if h_lo < -1e-12 or h_hi > 1e-12:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if compose(mid) - mid >= 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    # Reject pseudo-fixed points produced by clamping at the hull edge.
    if abs(compose(x) - x) > 1e-9:
        return None
    return x


# ---------------------------------------------------------------------------
# stock examples


def doubling_map() -> MarkovMap:
    """x -> 2x mod 1 with branches on [0, 1/2] and [1/2, 1]."""
    return build_map(
        [
            Branch("linear", (0.0, 0.5), (0.0, 1.0), slope=2.0, offset=0.0),
            Branch("linear", (0.5, 1.0), (0.0, 1.0), slope=2.0, offset=-1.0),
        ]
    )


def linear_full_branch_map(slopes: Sequence[float]) -> MarkovMap:
    """Full-shift map whose branch i is linear with the given slope onto [0, 1].

    Domains are consecutive intervals of width 1/|slope_i| starting at 0.
    When the widths sum to less than 1 the repeller is a Cantor set; they
    may not exceed 1.
    """
    widths = [1.0 / abs(s) for s in slopes]
    if sum(widths) > 1.0 + 1e-12:
        raise ValueError("sum of 1/|slope_i| exceeds 1; domains cannot fit in [0, 1]")
    branches = []
    left = 0.0
    for s, w in zip(slopes, widths):
        right = left + w
        if s > 0:
            offset = -s * left
        else:
            offset = -s * right
        branches.append(Branch("linear", (left, right), (0.0, 1.0), slope=float(s), offset=offset))
        left = right
    return build_map(branches)


def golden_mean_map() -> MarkovMap:
    """Doubling-slope branches with the 11-count forbidden (A = [[1,1],[1,0]])."""
    return build_map(
        [
            Branch("linear", (0.0, 0.5), (0.0, 1.0), slope=2.0, offset=0.0),
            Branch("linear", (0.5, 0.75), (0.0, 0.5), slope=2.0, offset=-1.0),
        ],
        transition=[[1, 1], [1, 0]],
    )


def manneville_pomeau_map(s: float = 0.5) -> MarkovMap:
    """T(x) = x + x**(1+s) mod 1 (power branches, c = 1), split at the preimage of 1."""
    if s <= 0.0:
        raise ValueError("s must be positive")

    def raw(x: float) -> float:
        return x + x ** (1.0 + s) - 1.0

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if raw(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    split = 0.5 * (lo + hi)
    return build_map(
        [
            Branch("power", (0.0, split), (0.0, 1.0), s=s, c=1.0),
            Branch("power", (split, 1.0), (0.0, 1.0), s=s, c=1.0),
        ]
    )


def farey_map() -> MarkovMap:
    """x/(1-x) on [0, 1/2] and (1-x)/x on [1/2, 1]."""
    return build_map(
        [
            Branch("farey_left", (0.0, 0.5), (0.0, 1.0)),
            Branch("farey_right", (0.5, 1.0), (0.0, 1.0)),
        ]
    )
