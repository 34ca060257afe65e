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

    total = 0
    if bundle is BundleType.TRIVIAL:
        for n in range(1, math.ceil(lb / lf)):
            for j in range(k + 1):
                total += indicator(j * eps, lb - n * lf) * indicator((k - j) * eps, lb + n * lf)
        for j in range(k // 2 + 1):
            total += indicator(j * eps, lb) * indicator((k - j) * eps, lb)
        if 2 * eps == lf:
            for n in range(1, math.ceil(lb / lf)):
                for j in range(k - 1):
                    total -= indicator(j * eps, lb - n * lf) * indicator(
                        (k - 2 - j) * eps, lb + (n - 1) * lf
                    )
        return total

    bound = math.ceil((lb - lf / 2) / lf)
    for n in range(max(0, bound)):
        shift = Fraction(2 * n + 1, 2) * lf
        for j in range(k + 1):
            total += indicator(j * eps, lb - shift) * indicator((k - j) * eps, lb + shift)
    if 2 * eps == lf:
        for n in range(1, bound):
            shift = Fraction(2 * n + 1, 2) * lf
            prev_shift = Fraction(2 * (n - 1) + 1, 2) * lf
            for j in range(k - 1):
                total -= indicator(j * eps, lb - shift) * indicator(
                    (k - 2 - j) * eps, lb + prev_shift
                )
        # flip coincidences between the diagonals c and k - c (both realized
        # exactly when both fat areas stay positive); only c strictly between
        # k/2 and k contributes, so this is empty for k <= 2
        for c in range(k // 2 + 1, k):
            total -= indicator(c * eps, lb) * indicator((k - c) * eps, lb)
    return total


def max_count(lambda_f: Fraction, lambda_b: Fraction, k: int) -> int:
    """Upper bound (ceil(lambda_b/lambda_f) - 1/2) * (k+1)! on the action count.

    Always an integer because (k+1)! is even for k >= 1.
    """
    lf, lb = as_q(lambda_f), as_q(lambda_b)
    if lf <= 0 or lb <= 0:
        raise ValueError("lambda_f and lambda_b must be positive")
    if k < 1:
        raise ValueError("the bound is stated for k >= 1")
    value = (math.ceil(lb / lf) - Fraction(1, 2)) * math.factorial(k + 1)
    assert value.denominator == 1
    return int(value)


def _fibs(count: int) -> list[int]:
    # F[1] = F[2] = 1, so F[i+1] weights run 1, 2, 3, 5, ...
    fibs = [0, 1, 1]
    while len(fibs) <= count:
        fibs.append(fibs[-1] + fibs[-2])
    return fibs


def max_count_conditions(v: BlowupVector) -> bool:
    """Do the deltas shrink fast enough for the factorial bound to be attained?

    Four strict conditions: the deltas sum below the fiber area; below every
    initial top fat area; each delta exceeds the sum of all later ones; and
    each delta exceeds every Fibonacci-weighted partial sum of the later ones
    (weights F2, F3, ... = 1, 2, 3, 5, ...).  Under these, every blowup site
    stays available at every stage and no two results ever collide, so each
    stage multiplies the count by the number of sites.
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
    i = 0
    while v.lambda_b - i * v.lambda_f > 0:
        if not total < v.lambda_b - i * v.lambda_f:
            return False
        i += 1
    for j in range(1, v.k + 1):
        if not sum(d[j:], start=Fraction(0)) < d[j - 1]:
            return False
    fibs = _fibs(v.k + 1)
    for j in range(1, v.k + 1):
        for s in range(1, v.k - j + 1):
            weighted = sum((fibs[i + 1] * d[j + i - 1] for i in range(1, s + 1)), start=Fraction(0))
            if not weighted < d[j - 1]:
                return False
    return True
