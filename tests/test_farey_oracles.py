"""Oracles that need no reference run: closed forms on the Farey family.

Constants, and where they come from:

- The first return of the Farey map to [1/2, 1] is the Gauss map
  v -> 1/v mod 1 in the coordinate v = 1/x - 1, so x = 1/(1 + v), and the
  return time of a point is its continued-fraction digit.  The branch of
  digit k has domain [k/(k+1), (k+1)/(k+2)], the image of the Gauss
  cylinder [1/(k+1), 1/k].
- Bernoulli(1/2) on the Farey coding is the Minkowski question-mark
  measure: every Farey n-cylinder (a Stern-Brocot interval) has mass 2^-n,
  so -phi = log 2 per step.  A periodic orbit's ratio of -phi-sums to
  log|T'|-sums is a local dimension that is attained, so alpha_min is at
  most the ratio at the fixed point 1/gamma of the second branch (gamma
  the golden mean), where |T'| = gamma^2: log 2 / (2 log gamma) =
  0.7202100452...  Over all cycles up to period 12 the Lyapunov exponent
  is largest there, so this is alpha_min.  Kessebohmer and Stratmann
  analyse this measure's spectrum in "A multifractal analysis for
  Stern-Brocot intervals, continued fractions and Diophantine growth
  rates", J. reine angew. Math. 605 (2007).
- On Manneville-Pomeau with s = 0.5 the derivative is largest, 2.5, at
  the fixed point x = 1, so alpha_min = log 2 / log 2.5 with the same
  potential.
"""

from __future__ import annotations

import math

import pytest

from dimspectra import build_induced, locally_constant, spectrum_endpoints

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
ALPHA_MIN_FAREY = math.log(2.0) / (2.0 * math.log(GOLDEN))  # 0.7202100452062782
ALPHA_MIN_MP = math.log(2.0) / math.log(2.5)  # 0.75647079736603
HALF = locally_constant({(0,): math.log(0.5), (1,): math.log(0.5)})


def test_farey_first_return_is_the_gauss_map(farey):
    # Branch k (in domain order) is the Gauss cylinder of digit k under
    # x = 1/(1+v), to within one rounding of its ends (the largest error is
    # 1.1e-16), and returns after k steps.
    isys = build_induced(farey, None, truncation=300)
    assert len(isys.branches) == 300
    for k, branch in enumerate(isys.branches, start=1):
        assert branch.return_time == k
        lo, hi = branch.domain
        assert abs(lo - k / (k + 1)) <= 2.2e-16, k
        assert abs(hi - (k + 1) / (k + 2)) <= 2.2e-16, k


@pytest.mark.parametrize("level", range(6, 13))
def test_alpha_min_enclosure_holds_the_closed_form(farey, mp, level):
    # The alpha_min enclosure contains the closed form on both maps, with no
    # slack.  Its rounding is not yet directed outward, so the MP lower end,
    # which lies on the closed form, is pinned as computed: equal bit for
    # bit at even levels up to 8, and 1-2 ulps below it at levels 10-12.
    alpha_min = spectrum_endpoints(farey, HALF, level=level)[0]
    lo, hi = alpha_min.lower, alpha_min.upper
    assert lo <= ALPHA_MIN_FAREY <= hi
    alpha_min = spectrum_endpoints(mp, HALF, level=level)[0]
    lo, hi = alpha_min.lower, alpha_min.upper
    assert lo <= ALPHA_MIN_MP <= hi
    below = (ALPHA_MIN_MP - lo) / math.ulp(ALPHA_MIN_MP)
    if level in (6, 8):
        assert lo == ALPHA_MIN_MP
    elif level >= 10:
        assert below in (1.0, 2.0)
