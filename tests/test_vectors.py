"""Vector-level operations: cone test, normal form, duality, invariants."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from conftest import brute_force_min_classes, cone_vectors
from hamcircle import (
    BlowupVector,
    BundleType,
    E,
    EminCase,
    F_minus_E,
    NotBlowupFormError,
    check_cone,
    cremona,
    cremona_move,
    cremona_reduce,
    defect,
    emin,
    exceptional_areas,
    gromov_width,
    is_g_reduced,
    packing_number,
    sort_deltas,
    swap_bundle,
    volume,
)

NT = BundleType.NONTRIVIAL


def bv(lf, lb, *deltas, bundle=BundleType.TRIVIAL, genus=1):
    return BlowupVector(lf, lb, tuple(deltas), bundle, genus)


# --- cone -------------------------------------------------------------------


def test_cone_accepts_small_equal_blowups():
    assert check_cone(bv(2, 1, 1, 1)).in_cone


def test_cone_accepts_ruled_surface():
    assert check_cone(bv(1, 1)).in_cone


def test_cone_rejects_negative_volume_and_names_it():
    report = check_cone(bv(4, 1, 3, 1))
    assert not report.in_cone
    assert report.violations == ("volume_positive",)


def test_cone_names_every_violation():
    report = check_cone(bv(1, -1, 2))
    assert "lambda_b_positive" in report.violations
    assert "delta_1_below_lambda_f" in report.violations
    report = check_cone(bv(0, 1, -1))
    assert report.violations == ("lambda_f_positive", "delta_1_positive", "volume_positive")
    # a bundle outside BundleType never reaches the cone test
    with pytest.raises(TypeError, match="BundleType"):
        bv(1, 1, bundle="trivial")


def test_volume_examples():
    assert volume(bv(2, 1, 1, 1)) == 1
    assert volume(bv(1, 1)) == 1
    assert volume(bv(2, 10, F("1.9"), F("1.9"), F("1.9"), F("1.9"))) == F(639, 50)


# --- defect and cremona -----------------------------------------------------


def test_defect_values():
    assert defect(bv(3, 3, 2, 2)) == 1
    assert defect(bv(3, 2, 1, 1)) == -1


@pytest.mark.parametrize("lam", [F(1), F(1, 2), F(7, 3)])
def test_defect_vanishes_on_symmetric_vectors(lam):
    assert defect(bv(2 * lam, lam, lam, lam)) == 0


def test_defect_needs_two_blowups():
    with pytest.raises(ValueError, match="k<2"):
        defect(bv(2, 1, 1))


def test_cremona_example():
    assert cremona(bv(3, 3, 2, 2)) == bv(3, 2, 1, 1)


def test_cremona_applies_even_with_negative_defect():
    # raw transform: no defect guard, may leave the cone
    assert cremona(bv(12, 2, 3, 3)) == bv(12, 8, 9, 9)


@given(cone_vectors(min_k=2))
def test_cremona_is_an_involution(v):
    assert cremona(cremona(v)) == v


def test_sort_deltas():
    assert sort_deltas(bv(3, 3, 1, 2)) == bv(3, 3, 2, 1)
    assert sort_deltas(bv(3, 3, 2, 2)) == bv(3, 3, 2, 2)
    assert sort_deltas(bv(5, 4, 1, 3, 2)) == bv(5, 4, 3, 2, 1)


def test_cremona_move_examples():
    assert cremona_move(bv(3, 3, 2, 2)) == bv(3, 2, 1, 1)
    assert cremona_move(bv(12, 2, 3, 3)) == bv(12, 2, 3, 3)
    nineteen = F("1.9")
    moved = cremona_move(bv(2, 10, nineteen, nineteen, nineteen, nineteen))
    assert moved == bv(2, F(41, 5), nineteen, nineteen, F(1, 10), F(1, 10))


@given(cone_vectors(min_k=2))
def test_cremona_move_preserves_fiber_volume_and_cone(v):
    moved = cremona_move(v)
    assert moved.lambda_f == v.lambda_f
    assert volume(moved) == volume(v)
    assert check_cone(moved).in_cone


@given(cone_vectors(min_k=2))
def test_cremona_move_weakly_decreases_sorted_deltas(v):
    v = sort_deltas(v)
    moved = cremona_move(v)
    if moved == v:
        return
    pairs = list(zip(moved.deltas, v.deltas))
    assert all(after <= before for after, before in pairs)
    assert any(after < before for after, before in pairs)


@given(cone_vectors(min_k=2))
def test_cremona_move_fixed_points_are_the_reduced_vectors(v):
    assert (cremona_move(v) == v) == is_g_reduced(v)


# --- reduction ---------------------------------------------------------------


def test_reduce_demo_pair():
    result = cremona_reduce(bv(3, 3, 2, 2))
    assert result.vector == bv(3, 2, 1, 1)
    assert result.iterations == 1


def test_reduce_fixed_point():
    result = cremona_reduce(bv(12, 2, 3, 3))
    assert result.vector == bv(12, 2, 3, 3)
    assert result.iterations == 0


def test_reduce_two_steps_with_trace():
    nineteen = F("1.9")
    start = bv(2, 10, nineteen, nineteen, nineteen, nineteen)
    result = cremona_reduce(start)
    assert result.vector == bv(2, F(32, 5), F(1, 10), F(1, 10), F(1, 10), F(1, 10))
    assert result.iterations == 2
    assert result.steps[1] == bv(2, F(41, 5), nineteen, nineteen, F(1, 10), F(1, 10))
    assert all(volume(step) == volume(start) for step in result.steps)


def test_reduce_rejects_non_cone_vectors():
    with pytest.raises(NotBlowupFormError):
        cremona_reduce(bv(4, 1, 3, 1))


def test_reduce_k_at_most_one_is_its_own_normal_form():
    for v in (bv(2, 1), bv(2, 1, 1), bv(2, 1, F(3, 2), bundle=NT)):
        assert cremona_reduce(v).steps == (v,)


@given(cone_vectors(min_k=0))
@settings(max_examples=150)
def test_reduce_moves_exactly_the_non_reduced_vectors(v):
    reduced = cremona_reduce(v).vector
    assert is_g_reduced(reduced)
    assert (reduced == v) == is_g_reduced(v)


@given(cone_vectors(min_k=2))
@settings(max_examples=150)
def test_reduce_terminates_on_a_reduced_vector_and_is_idempotent(v):
    result = cremona_reduce(v)
    out = result.vector
    assert is_g_reduced(out)
    assert check_cone(out).in_cone
    assert out.lambda_f == v.lambda_f
    assert volume(out) == volume(v)
    assert cremona_reduce(out).iterations == 0
    # every delta along the way comes from the finite seed set
    seed = set(v.deltas) | {v.lambda_f - d for d in v.deltas}
    assert all(d in seed for step in result.steps for d in step.deltas)


@given(cone_vectors(min_k=2))
@settings(max_examples=150)
def test_reduced_form_is_independent_of_generating_moves(v):
    reduced = cremona_reduce(v).vector
    assert cremona_reduce(sort_deltas(v)).vector == reduced
    crossed = cremona(v)
    if check_cone(crossed).in_cone:
        assert cremona_reduce(crossed).vector == reduced


# --- reduced test ------------------------------------------------------------


def test_is_g_reduced_examples():
    assert is_g_reduced(bv(3, 2, 1, 1))
    assert not is_g_reduced(bv(3, 3, 2, 2))
    assert is_g_reduced(bv(6, 1, 2, 1))
    assert is_g_reduced(bv(2, 1, 1))
    assert is_g_reduced(bv(1, 1))
    assert not is_g_reduced(bv(3, 3, 1, 2))  # unsorted


# --- bundle duality ----------------------------------------------------------


def test_swap_bundle_examples():
    assert swap_bundle(bv(2, 3, F(1, 2), bundle=NT)) == bv(2, F(7, 2), F(3, 2))
    assert swap_bundle(bv(3, 3, 2, 2)) == bv(3, F(5, 2), 2, 1, bundle=NT)


def test_swap_bundle_needs_a_blowup():
    with pytest.raises(ValueError):
        swap_bundle(bv(1, 1))


def test_swap_bundle_rejects_non_cone():
    with pytest.raises(NotBlowupFormError):
        swap_bundle(bv(4, 1, 3, 1))


@given(cone_vectors(min_k=1))
def test_swap_bundle_preserves_volume_and_cone_and_toggles(v):
    swapped = swap_bundle(v)
    assert swapped.bundle == v.bundle.other()
    assert volume(swapped) == volume(v)
    assert check_cone(swapped).in_cone


@given(cone_vectors(min_k=1))
def test_swap_bundle_is_an_involution_on_reduced_vectors(v):
    v = cremona_reduce(v).vector
    swapped = swap_bundle(v)
    assert is_g_reduced(swapped)
    assert swap_bundle(swapped) == v


# --- exceptional classes -----------------------------------------------------


def test_exceptional_areas_examples():
    with pytest.raises(ValueError, match="indexed from 1"):
        E(0)
    assert exceptional_areas(bv(2, 1, 1)) == {E(1): 1, F_minus_E(1): 1}
    assert exceptional_areas(bv(6, 1, 2, 1)) == {
        E(1): 2,
        E(2): 1,
        F_minus_E(1): 4,
        F_minus_E(2): 5,
    }
    assert exceptional_areas(bv(1, 1)) == {}


@given(cone_vectors(min_k=1))
def test_exceptional_areas_positive_in_cone(v):
    assert all(area > 0 for area in exceptional_areas(v).values())


def test_emin_examples():
    half_fiber = emin(bv(2, 1, 1))
    assert half_fiber.classes == frozenset({E(1), F_minus_E(1)})
    assert half_fiber.case == EminCase.K1_HALF

    tail = emin(bv(6, 1, 2, 1))
    assert tail.classes == frozenset({E(2)})
    assert tail.case == EminCase.TAIL
    assert tail.tail_start == 1

    tie = emin(bv(4, 2, 3, 1))
    assert tie.classes == frozenset({F_minus_E(1), E(2)})
    assert tie.case == EminCase.BIG_FIRST_TIE


def test_emin_rejects_non_reduced_input():
    with pytest.raises(ValueError):
        emin(bv(3, 3, 2, 2))
    with pytest.raises(ValueError):
        emin(bv(1, 1))


CASE_WITNESSES = [
    (bv(2, 1, F(1, 2)), EminCase.K1_SMALL, {("E", 1)}),
    (bv(2, 1, F(3, 2)), EminCase.K1_LARGE, {("F-E", 1)}),
    (bv(2, 1, 1), EminCase.K1_HALF, {("E", 1), ("F-E", 1)}),
    (bv(6, 1, 2, 1), EminCase.TAIL, {("E", 2)}),
    (bv(2, 2, 1, 1), EminCase.ALL_HALF, {("E", 1), ("E", 2), ("F-E", 1), ("F-E", 2)}),
    (bv(4, 2, 3, F(1, 2)), EminCase.BIG_FIRST_TAIL, {("E", 2)}),
    (bv(4, 2, 3, 1), EminCase.BIG_FIRST_TIE, {("F-E", 1), ("E", 2)}),
]


@pytest.mark.parametrize("vector,case,expected", CASE_WITNESSES)
def test_emin_hits_every_case(vector, case, expected):
    result = emin(vector)
    assert result.case == case
    got = {("F-E" if c.fiber_complement else "E", c.index) for c in result.classes}
    assert got == expected
    assert got == brute_force_min_classes(vector)


@given(cone_vectors(min_k=1))
@settings(max_examples=200)
def test_emin_agrees_with_brute_force(v):
    v = cremona_reduce(v).vector
    result = emin(v)
    got = {("F-E" if c.fiber_complement else "E", c.index) for c in result.classes}
    assert got == brute_force_min_classes(v)
    sizes = {
        EminCase.K1_SMALL: v.k,
        EminCase.K1_LARGE: v.k,
        EminCase.K1_HALF: 2 * v.k,
        EminCase.TAIL: v.k - result.tail_start,
        EminCase.ALL_HALF: 2 * v.k,
        EminCase.BIG_FIRST_TAIL: v.k - result.tail_start,
        EminCase.BIG_FIRST_TIE: v.k,
    }
    assert len(result.classes) == sizes[result.case]
    if result.case == EminCase.BIG_FIRST_TAIL:
        assert result.tail_start >= 1


# --- width and packing ---------------------------------------------------------


def test_gromov_width_examples():
    capped = gromov_width(bv(1, 1))
    assert capped.width_squared == 1 and capped.capped_by_fiber

    free = gromov_width(bv(2, 1, 1))
    assert free.width_squared == 3 and not free.capped_by_fiber

    big_base = gromov_width(bv(2, 100, 1))
    assert big_base.width_squared == 4 and big_base.capped_by_fiber


@given(cone_vectors())
def test_gromov_width_is_the_smaller_bound(v):
    w = gromov_width(v)
    volume_bound = 2 * volume(v)
    fiber_bound = v.lambda_f**2
    assert w.width_squared == min(volume_bound, fiber_bound)
    assert w.capped_by_fiber == (fiber_bound <= volume_bound)
    assert w.width_squared > 0


@given(cone_vectors())
def test_gromov_width_approx_is_the_float_square_root(v):
    w = gromov_width(v)
    assert w.approx == math.sqrt(w.width_squared)


@pytest.mark.parametrize(
    "v, fits",
    [
        (bv(F(10) ** 300, F(10) ** 300), True),  # the square is beyond floats, the root is not
        (bv(10**400, 10**400), False),
        (bv(10**400, 10**398), False),  # the volume bound wins
    ],
)
def test_gromov_width_beyond_the_float_range(v, fits):
    w = gromov_width(v)
    assert w.width_squared == min(2 * volume(v), v.lambda_f**2)
    if fits:
        assert math.isclose(w.approx, float(v.lambda_f))
    else:
        assert w.approx == math.inf


def test_packing_examples():
    assert packing_number(bv(1, 1)) == 2
    assert packing_number(bv(2, 1, 1)) == 1


@pytest.mark.parametrize("lb", [1, 2, 7])
def test_packing_scales_with_base(lb):
    assert packing_number(bv(1, lb)) == 2 * lb


@given(cone_vectors())
def test_packing_is_the_least_sufficient_ball_count(v):
    n = packing_number(v)
    ball = v.lambda_f**2 / 2
    assert n >= 1
    assert n * ball >= volume(v)
    assert (n - 1) * ball < volume(v)


def test_invariants_reject_non_cone():
    with pytest.raises(NotBlowupFormError):
        gromov_width(bv(4, 1, 3, 1))
    with pytest.raises(NotBlowupFormError):
        packing_number(bv(4, 1, 3, 1))
