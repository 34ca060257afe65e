"""Closed-form counts against worked values and against the enumerator."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cone_vectors
from hamcircle import (
    BlowupVector,
    BundleType,
    NotBlowupFormError,
    check_cone,
    count_actions,
    count_equal_sizes,
    count_ruled,
    max_count,
    max_count_conditions,
)
from hamcircle.formulas import indicator

T, NT = BundleType.TRIVIAL, BundleType.NONTRIVIAL


@st.composite
def equal_size_vectors(draw):
    """Cone vectors with all blowup sizes equal and 2*eps <= lambda_f."""
    k = draw(st.integers(1, 5))
    lf = draw(st.fractions(min_value=F(1, 2), max_value=4, max_denominator=4))
    t = draw(st.fractions(min_value=F(1, 16), max_value=1, max_denominator=16))
    eps = lf * t / 2  # equality 2*eps == lambda_f happens at t == 1
    floor = k * eps * eps / (2 * lf)
    lb = floor + lf * draw(st.fractions(min_value=F(1, 8), max_value=2, max_denominator=8))
    bundle = draw(st.sampled_from([T, NT]))
    return BlowupVector(lf, lb, (eps,) * k, bundle)


def test_indicator_is_strict():
    assert indicator(F(1), F(2)) == 1
    assert indicator(F(2), F(2)) == 0
    assert indicator(F(3), F(2)) == 0


# --- ruled counts -----------------------------------------------------------------


def test_count_ruled_examples():
    assert count_ruled(3, 7, T) == 3
    assert count_ruled(1, 1, T) == 1
    assert count_ruled(2, 3, NT) == 1


def test_count_ruled_floors_at_zero():
    assert count_ruled(2, F(1, 2), NT) == 0


def test_count_ruled_needs_positive_parameters():
    with pytest.raises(ValueError):
        count_ruled(0, 1, T)


@given(
    st.fractions(min_value=F(1, 4), max_value=5, max_denominator=8),
    st.fractions(min_value=F(1, 4), max_value=9, max_denominator=8),
    st.sampled_from([T, NT]),
)
@settings(max_examples=150, deadline=None)
def test_count_ruled_matches_k0_enumeration(lf, lb, bundle):
    v = BlowupVector(lf, lb, bundle=bundle)
    assert count_ruled(lf, lb, bundle) == count_actions(v).count


# --- equal-size counts ---------------------------------------------------------------


def test_equal_sizes_half_fiber_blowups_leave_nothing():
    assert count_equal_sizes(2, 1, 1, 2, T) == 0


def test_equal_sizes_single_surviving_distribution():
    assert count_equal_sizes(10, 2, 1, 2, T) == 1


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_equal_sizes_vanish_when_total_reaches_twice_the_base(k):
    # k * eps >= 2 * lambda_b kills every distribution
    assert count_equal_sizes(2, 1, F(2, k), k, T) == 0


def test_equal_sizes_half_fiber_flip_coincidence_on_the_nontrivial_bundle():
    # with 2*eps == lambda_f every chain is flip-symmetric, so the runs with
    # c = twist + j and c = k - c collapse; hand enumeration: stage 3 holds
    # exactly the graphs (21/16, 35/16) ~ flip ~ (35/16, 21/16) and (49/16, 7/16)
    lf, lb, eps = F(7, 4), F(49, 16), F(7, 8)
    v = BlowupVector(lf, lb, (eps,) * 3, NT)
    assert count_actions(v).count == 2
    assert count_equal_sizes(lf, lb, eps, 3, NT) == 2


def test_equal_sizes_reject_the_uncovered_regime():
    with pytest.raises(ValueError, match="closed form"):
        count_equal_sizes(2, 10, F(3, 2), 2, T)


def test_equal_sizes_reject_non_cone_input():
    with pytest.raises(NotBlowupFormError):
        count_equal_sizes(10, F(1, 100), 1, 2, T)


@given(equal_size_vectors())
@settings(max_examples=100, deadline=None)
def test_equal_sizes_agree_with_the_enumerator(v):
    formula = count_equal_sizes(v.lambda_f, v.lambda_b, v.deltas[0], v.k, v.bundle)
    assert formula == count_actions(v).count


@pytest.mark.parametrize("bundle", [T, NT])
def test_equal_sizes_half_fiber_sweep(bundle):
    # exhaustive sweep of the boundary regime 2*eps == lambda_f: every k and a
    # dense grid of base sizes, enumerator vs closed form
    eps, lf = F(1), F(2)
    for k in range(1, 7):
        for tenths in range(6, 70, 3):
            lb = F(tenths, 10)
            v = BlowupVector(lf, lb, (eps,) * k, bundle)
            if not check_cone(v).in_cone:
                continue
            assert count_equal_sizes(lf, lb, eps, k, bundle) == count_actions(v).count, (
                k,
                lb,
                bundle,
            )


@pytest.mark.parametrize("ratio", [1, 2, 3])
@pytest.mark.parametrize("bundle", [T, NT])
def test_equal_sizes_at_integral_base_to_fiber_ratio(ratio, bundle):
    # the twist sums stop exactly at an integral lambda_b/lambda_f; the strict
    # inequalities must not double-count the boundary graph
    lf, eps, k = F(1), F(1, 4), 2
    lb = ratio * lf
    v = BlowupVector(lf, lb, (eps,) * k, bundle)
    assert count_equal_sizes(lf, lb, eps, k, bundle) == count_actions(v).count


# --- factorial bound --------------------------------------------------------------------


def test_max_count_examples():
    assert max_count(1, 1, 1) == 1
    assert max_count(1, 1, 2) == 3
    assert max_count(1, 3, 3) == 60


def test_max_count_needs_a_blowup():
    with pytest.raises(ValueError):
        max_count(1, 1, 0)


def test_conditions_hold_for_fast_decay():
    v = BlowupVector(1, 2, (F(1, 4), F(1, 16), F(1, 64)))
    assert max_count_conditions(v)


def test_conditions_fail_without_strict_decay():
    assert not max_count_conditions(BlowupVector(1, 2, (F(1, 2), F(1, 2))))


def test_conditions_fail_when_the_total_reaches_the_fiber():
    assert not max_count_conditions(BlowupVector(3, 3, (2, 2)))


def test_conditions_are_stated_for_the_trivial_bundle():
    with pytest.raises(ValueError):
        max_count_conditions(BlowupVector(1, 2, (F(1, 4),), NT))


@given(cone_vectors(min_k=1, max_k=3, small=True, bundles=(T,)))
@settings(max_examples=30, deadline=None)
def test_max_count_bounds_the_enumerator(v):
    assert count_actions(v).count <= max_count(v.lambda_f, v.lambda_b, v.k)


@pytest.mark.parametrize("lb", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_sharpness_for_quarter_powers(lb, k):
    v = BlowupVector(1, lb, tuple(F(1, 4**i) for i in range(1, k + 1)))
    assert max_count_conditions(v)
    assert count_actions(v).count == max_count(1, lb, k)
