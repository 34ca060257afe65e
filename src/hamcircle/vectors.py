"""Exact arithmetic on the vectors encoding blowup forms on ruled surfaces.

A symplectic blowup form on a k-fold blowup of an S^2-bundle over a surface
of positive genus is described by the vector (lambda_f, lambda_b; d1, ..., dk):
the fiber area, a base parameter, and the k blowup sizes.  Everything here is
exact rational arithmetic.  Downstream, decorated graphs are deduplicated by
exact equality and action counts come out of ceilings, so a single float would
poison every comparison; decimal input such as "1.9" therefore parses exactly
as 19/10.

The normal form machinery lives here as well: the defect, the raw quadratic
transform ``cremona`` (an involution), the guarded-and-sorted ``cremona_move``,
and the fixed-point iteration ``cremona_reduce`` that lands on the unique
reduced representative of a symplectomorphism class.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction


def as_q(value: int | str | Fraction) -> Fraction:
    """Convert to an exact rational; floats are refused outright."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}: pass an int, a string or a Fraction")
    return Fraction(value)


class BundleType(Enum):
    """The two S^2-bundles over a fixed base surface."""

    TRIVIAL = "trivial"
    NONTRIVIAL = "nontrivial"

    def other(self) -> "BundleType":
        return BundleType.NONTRIVIAL if self is BundleType.TRIVIAL else BundleType.TRIVIAL


@dataclass(frozen=True)
class BlowupVector:
    """(lambda_f, lambda_b; deltas) together with the bundle type and genus.

    ``deltas`` may be empty (the ruled surface itself).  The genus must be a
    positive integer: this library only covers positive-genus bases.
    """

    lambda_f: Fraction
    lambda_b: Fraction
    deltas: tuple[Fraction, ...] = ()
    bundle: BundleType = BundleType.TRIVIAL
    genus: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambda_f", as_q(self.lambda_f))
        object.__setattr__(self, "lambda_b", as_q(self.lambda_b))
        object.__setattr__(self, "deltas", tuple(as_q(d) for d in self.deltas))
        if not isinstance(self.bundle, BundleType):
            raise TypeError(f"bundle must be a BundleType, got {self.bundle!r}")
        if isinstance(self.genus, bool) or not isinstance(self.genus, int) or self.genus < 1:
            raise ValueError(f"genus must be a positive integer, got {self.genus!r}")

    @property
    def k(self) -> int:
        """Number of blowups."""
        return len(self.deltas)


@dataclass(frozen=True)
class ConeReport:
    """Outcome of the blowup-form test, with every violated condition named."""

    in_cone: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.in_cone


class NotBlowupFormError(ValueError):
    """The vector fails the positivity or volume conditions for a blowup form."""

    def __init__(self, report: ConeReport):
        super().__init__("not a blowup form: " + ", ".join(report.violations))
        self.report = report


def volume(v: BlowupVector) -> Fraction:
    """The symplectic volume lambda_f*lambda_b - (d1^2 + ... + dk^2)/2."""
    return v.lambda_f * v.lambda_b - sum((d * d for d in v.deltas), start=Fraction(0)) / 2


def check_cone(v: BlowupVector) -> ConeReport:
    """Decide whether ``v`` encodes a blowup form.

    Requires all entries positive, every delta strictly below the fiber area,
    and positive volume.  All inequalities are strict; a zero-area exceptional
    sphere is not a blowup.
    """
    bad: list[str] = []
    if v.lambda_f <= 0:
        bad.append("lambda_f_positive")
    if v.lambda_b <= 0:
        bad.append("lambda_b_positive")
    for i, d in enumerate(v.deltas, start=1):
        if d <= 0:
            bad.append(f"delta_{i}_positive")
        if d >= v.lambda_f:
            bad.append(f"delta_{i}_below_lambda_f")
    if volume(v) <= 0:
        bad.append("volume_positive")
    return ConeReport(not bad, tuple(bad))


def require_cone(v: BlowupVector) -> None:
    report = check_cone(v)
    if not report:
        raise NotBlowupFormError(report)


def defect(v: BlowupVector) -> Fraction:
    """d1 + d2 - lambda_f, computed on the first two entries as given."""
    if v.k < 2:
        raise ValueError("defect undefined for k<2")
    return v.deltas[0] + v.deltas[1] - v.lambda_f


def cremona(v: BlowupVector) -> BlowupVector:
    """The raw quadratic transform; an involution on vectors with k >= 2.

    Subtracts the defect from lambda_b and from the first two deltas, turning
    them into (lambda_f - d2, lambda_f - d1).  Applied unconditionally and
    without re-sorting; the guarded, sorting variant is ``cremona_move``.
    """
    shift = defect(v)
    d1, d2 = v.deltas[0], v.deltas[1]
    new_deltas = (v.lambda_f - d2, v.lambda_f - d1) + v.deltas[2:]
    return replace(v, lambda_b=v.lambda_b - shift, deltas=new_deltas)


def sort_deltas(v: BlowupVector) -> BlowupVector:
    """Re-order the deltas non-increasingly; everything else untouched."""
    return replace(v, deltas=tuple(sorted(v.deltas, reverse=True)))


def cremona_move(v: BlowupVector) -> BlowupVector:
    """Apply ``cremona`` when the defect is positive, then sort the deltas."""
    moved = cremona(v) if defect(v) > 0 else v
    return sort_deltas(moved)


@dataclass(frozen=True)
class ReduceResult:
    """The trace of every vector from the input to its reduced form.

    ``steps[0]`` is the sorted input; each further entry is the outcome of one
    move of the loop, so ``iterations == len(steps) - 1``, and the last entry
    is the reduced ``vector``.
    """

    steps: tuple[BlowupVector, ...]

    @property
    def vector(self) -> BlowupVector:
        return self.steps[-1]

    @property
    def iterations(self) -> int:
        return len(self.steps) - 1


def cremona_reduce(v: BlowupVector) -> ReduceResult:
    """Iterate ``cremona_move`` until the vector is reduced.

    Sorts first; a sorted vector is not reduced exactly when its defect is
    positive, so every move applies ``cremona``.  Each move preserves
    lambda_f and the volume, every delta that ever appears lies in the finite
    set {d_i} U {lambda_f - d_i} of the input, and the sorted delta tuples
    strictly decrease, so the loop terminates.  Every vector inside the cone
    is accepted; one with k <= 1 is its own normal form.
    """
    require_cone(v)
    steps = [sort_deltas(v)]
    while not is_g_reduced(steps[-1]):
        steps.append(cremona_move(steps[-1]))
    return ReduceResult(tuple(steps))


def is_g_reduced(v: BlowupVector) -> bool:
    """True when d1 >= ... >= dk and d1 + d2 <= lambda_f; vacuous for k <= 1."""
    if v.k <= 1:
        return True
    d = v.deltas
    ordered = all(d[i] >= d[i + 1] for i in range(v.k - 1))
    return ordered and d[0] + d[1] <= v.lambda_f


def swap_bundle(v: BlowupVector) -> BlowupVector:
    """Re-encode the same symplectic manifold over the other S^2-bundle.

    Replaces the first delta by its fiber complement and shifts lambda_b by
    lambda_f/2 - d1; the deltas of the result are re-sorted so downstream
    operations always see non-increasing order.
    """
    if v.k < 1:
        raise ValueError("bundle duality needs at least one blowup")
    require_cone(v)
    d1 = v.deltas[0]
    swapped = BlowupVector(
        v.lambda_f,
        v.lambda_b + v.lambda_f / 2 - d1,
        (v.lambda_f - d1,) + v.deltas[1:],
        v.bundle.other(),
        v.genus,
    )
    return sort_deltas(swapped)


@dataclass(frozen=True, order=True, repr=False)
class ExceptionalClass:
    """One of the exceptional homology classes E_i or F - E_i."""

    index: int
    fiber_complement: bool = False

    def __post_init__(self) -> None:
        operator.index(self.index)
        if self.index < 1:
            raise ValueError("exceptional classes are indexed from 1")

    def __str__(self) -> str:
        return f"F-E{self.index}" if self.fiber_complement else f"E{self.index}"

    __repr__ = __str__


def E(i: int) -> ExceptionalClass:
    return ExceptionalClass(i)


def F_minus_E(i: int) -> ExceptionalClass:
    return ExceptionalClass(i, fiber_complement=True)


def exceptional_areas(v: BlowupVector) -> dict[ExceptionalClass, Fraction]:
    """Areas of all 2k exceptional classes: E_i has area d_i, F - E_i has lambda_f - d_i."""
    areas: dict[ExceptionalClass, Fraction] = {}
    for i, d in enumerate(v.deltas, start=1):
        areas[E(i)] = d
        areas[F_minus_E(i)] = v.lambda_f - d
    return areas


class EminCase(Enum):
    """Which branch of the minimal-class classification applies."""

    K1_SMALL = "k1_case1"
    K1_LARGE = "k1_case2"
    K1_HALF = "k1_case3"
    TAIL = "case1a"
    ALL_HALF = "case1b"
    BIG_FIRST_TAIL = "case2a"
    BIG_FIRST_TIE = "case2b"


@dataclass(frozen=True)
class EminResult:
    """The exceptional classes of minimal area, with the matching case.

    ``tail_start`` is the number of leading deltas strictly above the common
    final value: deltas[tail_start:] are all equal and deltas[tail_start - 1]
    (if any) is strictly larger.
    """

    classes: frozenset[ExceptionalClass]
    case: EminCase
    tail_start: int


def equal_tail_start(deltas: tuple[Fraction, ...]) -> int:
    """Smallest j >= 0 such that deltas[j:] is constant (deltas non-increasing)."""
    j = len(deltas) - 1
    while j > 0 and deltas[j - 1] == deltas[-1]:
        j -= 1
    return j


def emin(v: BlowupVector) -> EminResult:
    """Classify the exceptional classes of minimal symplectic area.

    Needs at least one blowup, a cone vector, and (for k >= 2) deltas in
    reduced order; under those assumptions the answer is read off from how d1
    and dk sit relative to half the fiber area.  Always agrees with the brute
    force argmin over ``exceptional_areas``.
    """
    if v.k < 1:
        raise ValueError("no exceptional classes without blowups")
    require_cone(v)
    if not is_g_reduced(v):
        raise ValueError("minimal-area classification needs a reduced vector; reduce first")
    half = v.lambda_f / 2
    d1, dk = v.deltas[0], v.deltas[-1]
    tail = equal_tail_start(v.deltas)
    if v.k == 1:
        if d1 < half:
            return EminResult(frozenset({E(1)}), EminCase.K1_SMALL, 0)
        if d1 > half:
            return EminResult(frozenset({F_minus_E(1)}), EminCase.K1_LARGE, 0)
        return EminResult(frozenset({E(1), F_minus_E(1)}), EminCase.K1_HALF, 0)
    if d1 <= half:
        if dk < half:
            classes = frozenset(E(i) for i in range(tail + 1, v.k + 1))
            return EminResult(classes, EminCase.TAIL, tail)
        # dk == half forces every delta equal to half the fiber area
        classes = frozenset(exceptional_areas(v))
        return EminResult(classes, EminCase.ALL_HALF, tail)
    if v.lambda_f - d1 > dk:
        classes = frozenset(E(i) for i in range(tail + 1, v.k + 1))
        return EminResult(classes, EminCase.BIG_FIRST_TAIL, tail)
    # lambda_f - d1 == dk: reducedness squeezes d2 = ... = dk = lambda_f - d1
    classes = frozenset({F_minus_E(1)} | {E(i) for i in range(2, v.k + 1)})
    return EminResult(classes, EminCase.BIG_FIRST_TIE, tail)


@dataclass(frozen=True)
class GromovWidth:
    """Exact squared width plus which bound won; ``approx`` is display-only."""

    width_squared: Fraction
    capped_by_fiber: bool
    approx: float


def gromov_width(v: BlowupVector) -> GromovWidth:
    """Supremum of embeddable ball capacities, as an exact square.

    A ball of capacity a embeds iff 0 < a < lambda_f and the volume stays
    positive after a blowup of size a, so the supremum is
    min(lambda_f, sqrt(2*lambda_f*lambda_b - sum d_i^2)); whether it is
    attained is not decided here.  The square root is usually irrational,
    hence the exact value returned is the square.
    """
    require_cone(v)
    by_volume = 2 * volume(v)
    by_fiber = v.lambda_f * v.lambda_f
    capped = by_fiber <= by_volume
    squared = by_fiber if capped else by_volume
    # squared may lie beyond the float range while its root does not.  Dividing
    # by 4**shift and multiplying the root by 2**shift are exact in floating point,
    # so where float(squared) fits this is bit for bit math.sqrt(squared).  A root
    # beyond the float range itself is approximated by inf.
    shift = max(0, squared.numerator.bit_length() - squared.denominator.bit_length()) // 2
    try:
        approx = math.ldexp(math.sqrt(squared / 4**shift), shift)
    except OverflowError:
        approx = math.inf
    return GromovWidth(squared, capped, approx)


def packing_number(v: BlowupVector) -> int:
    """Least N such that N equal balls can fully pack the manifold.

    Equals ceil(2 * volume / lambda_f^2), taken with exact rational ceiling.
    """
    require_cone(v)
    return math.ceil(2 * volume(v) / (v.lambda_f * v.lambda_f))
