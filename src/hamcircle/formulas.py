"""Closed-form action counts, used as independent oracles for the enumerator.

These formulas count Hamiltonian circle actions without building a single
graph: the ruled-surface count, the equal-blowup-size counts (with the
correction term for blowup size exactly half the fiber, where blowups from
opposite fat vertices land at the same height and collide), and the factorial
upper bound together with the sufficient conditions under which it is attained.
All arithmetic is exact; the ceilings are rational ceilings.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .vectors import (
    BlowupVector,
    BundleType,
    as_q,
    require_cone,
)


def indicator(a: Fraction, b: Fraction) -> int:
    """1 if a < b strictly, 0 otherwise."""
    return 1 if a < b else 0


def count_ruled(lambda_f: Fraction, lambda_b: Fraction, bundle: BundleType) -> int:
    """Number of circle actions on the ruled surface itself (k = 0).

    ceil(lambda_b / lambda_f) for the trivial bundle and
    ceil((lambda_b - lambda_f/2) / lambda_f) for the non-trivial one, floored
    at zero: a non-trivial bundle with lambda_b <= lambda_f/2 admits none.
    """
    lf, lb = as_q(lambda_f), as_q(lambda_b)
    if lf <= 0 or lb <= 0:
        raise ValueError("lambda_f and lambda_b must be positive")
    if bundle is BundleType.TRIVIAL:
        return math.ceil(lb / lf)
    return max(0, math.ceil((lb - lf / 2) / lf))


def count_equal_sizes(
    lambda_f: Fraction,
    lambda_b: Fraction,
    epsilon: Fraction,
    k: int,
    bundle: BundleType = BundleType.TRIVIAL,
) -> int:
    """Number of actions after k blowups of one common size epsilon.

    Stated for 2*epsilon <= lambda_f only; in that regime every blowup happens
    at a fat vertex, so an action is a distribution of j blowups to the top
    and k - j to the bottom of one of the initial graphs, subject to the fat
    areas staying positive.  When 2*epsilon == lambda_f, top and bottom
    blowups land at the same height and different distributions can coincide;
    the double sums subtracted at the end remove those duplicates.  On the
    non-trivial bundle that boundary regime needs one further subtraction:
    with every chain flip-symmetric, the distribution with c = twist + j can
    also collide with the one at c' = k - c under a flip, and no symmetric
    initial graph exists there to absorb the identification (see the matching
    enumerator test with lambda_f = 7/4, epsilon = 7/8, lambda_b = 49/16,
    k = 3, where the count is 2, not 3).
    """
    lf, lb, eps = as_q(lambda_f), as_q(lambda_b), as_q(epsilon)
    if k < 1:
        raise ValueError("need at least one blowup; the k = 0 count is count_ruled")
    if 2 * eps > lf:
        raise ValueError("no closed form for 2*epsilon > lambda_f")
    require_cone(BlowupVector(lf, lb, (eps,) * k))

    # Write the seeds' fat areas as lb + half + n*lf (bottom) and
    # lb - half - n*lf (top): half = 0 and n >= 1 on the trivial bundle, where
    # n = 0 is its own flip and is counted apart, and half = lf/2 and n >= 0
    # on the non-trivial one.  For a fixed j the two strict area tests bound n
    # from below and from above, so each sum over n counts the integers in an
    # open interval.
    trivial = bundle is BundleType.TRIVIAL
    half = 0 if trivial else lf / 2
    total = sum(
        _integers_between(((k - j) * eps - lb - half) / lf, (lb - half - j * eps) / lf, 1 if trivial else 0)
        for j in range(k + 1)
    )
    if trivial:
        total += sum(indicator(j * eps, lb) * indicator((k - j) * eps, lb) for j in range(k // 2 + 1))
    if 2 * eps == lf:
        # the duplicates of the boundary regime, again one interval per j
        total -= sum(
            _integers_between(((k - 2 - j) * eps - lb - half) / lf + 1, (lb - half - j * eps) / lf, 1)
            for j in range(k - 1)
        )
        if not trivial:
            # flip coincidences between the diagonals c and k - c (both realized
            # exactly when both fat areas stay positive); only c strictly between
            # k/2 and k contributes, so this is empty for k <= 2
            total -= sum(indicator(c * eps, lb) * indicator((k - c) * eps, lb) for c in range(k // 2 + 1, k))
    return total


def _integers_between(low: Fraction, high: Fraction, first: int) -> int:
    """Number of integers n >= first with low < n < high."""
    return max(0, math.ceil(high) - max(first, math.floor(low) + 1))


def max_count(lambda_f: Fraction, lambda_b: Fraction, k: int) -> int:
    """Upper bound (ceil(lambda_b/lambda_f) - 1/2) * (k+1)! on the action count.

    Always an integer because (k+1)! is even for k >= 1.
    """
    lf, lb = as_q(lambda_f), as_q(lambda_b)
    if lf <= 0 or lb <= 0:
        raise ValueError("lambda_f and lambda_b must be positive")
    if k < 1:
        raise ValueError("the bound is stated for k >= 1")
    return (2 * math.ceil(lb / lf) - 1) * math.factorial(k + 1) // 2


def max_count_conditions(v: BlowupVector) -> bool:
    """Do the deltas shrink fast enough for the factorial bound to be attained?

    The paper states four strict conditions: the deltas sum below the fiber
    area; below every initial top fat area; each delta exceeds the sum of all
    later ones; and each delta exceeds every Fibonacci-weighted partial sum of
    the later ones (weights F2, F3, ... = 1, 2, 3, 5, ...).  Under these, every
    blowup site stays available at every stage and no two results ever
    collide, so each stage multiplies the count by the number of sites.  Three
    checks suffice: the first two, and the fourth on the full sum of the later
    deltas only, which implies the third and the fourth's shorter sums.
    """
    if v.bundle is not BundleType.TRIVIAL:
        raise ValueError("the sharpness conditions are stated for the trivial bundle")
    if v.k < 1:
        raise ValueError("need at least one blowup")
    require_cone(v)
    d = v.deltas
    total = sum(d, start=Fraction(0))
    if not total < v.lambda_f:
        return False
    # the initial top fat areas are lambda_b - i*lambda_f while positive; the last is the least
    if not total < v.lambda_b - (math.ceil(v.lambda_b / v.lambda_f) - 1) * v.lambda_f:
        return False
    # The full weighted sum of the later deltas bounds their plain sum, since
    # every weight is at least 1, and every shorter weighted sum, since the
    # deltas are positive in the cone; so it is the only sum tested.
    for j in range(v.k - 1):
        weighted, weight, following = Fraction(0), 1, 2
        for later in d[j + 1 :]:
            weighted += weight * later
            weight, following = following, weight + following
        if not weighted < d[j]:
            return False
    return True
