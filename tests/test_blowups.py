"""Blowup moves on graphs: site validity, bookkeeping, flip commutation."""

from fractions import Fraction as F

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import blown_graphs, valid_graphs
from hamcircle import (
    Chain,
    DecoratedGraph,
    FatSide,
    FatVertex,
    all_blowups,
    are_equivalent,
    blowup_fat,
    blowup_interior,
    canonical_sort_key,
    flip,
    validate,
)


def ruled(bottom, top, height, genus=1):
    return DecoratedGraph(FatVertex(F(bottom), genus), FatVertex(F(top), genus), F(height))


def with_chain(g, *heights, labels=()):
    chain = Chain(tuple(F(h) for h in heights), tuple(labels))
    return DecoratedGraph(g.bottom, g.top, g.height, g.chains + (chain,))


# --- fat-vertex blowups -------------------------------------------------------


def test_fat_blowup_at_the_bottom():
    blown = blowup_fat(ruled(1, 1, 1), FatSide.BOTTOM, F(1, 4))
    assert blown.bottom.area == F(3, 4) and blown.top.area == 1
    assert blown.chains == (Chain((F(1, 4),)),)


def test_fat_blowup_needs_room_in_the_area():
    assert blowup_fat(ruled(2, 2, 12), FatSide.BOTTOM, 3) is None
    assert blowup_fat(ruled(2, 2, 12), FatSide.TOP, 3) is None


def test_fat_blowup_area_test_is_strict():
    assert blowup_fat(ruled(F(11, 2), F(3, 2), 2), FatSide.TOP, F(3, 2)) is None


def test_fat_blowup_needs_room_below_the_height():
    # enough fat area but the new vertex would land on the other extremum
    tall = ruled(5, 5, 1)
    assert blowup_fat(tall, FatSide.BOTTOM, 1) is None
    assert blowup_fat(tall, FatSide.BOTTOM, 2) is None


def test_fat_blowup_from_the_top_measures_from_the_top():
    blown = blowup_fat(ruled(1, 1, 1), FatSide.TOP, F(1, 4))
    assert blown.top.area == F(3, 4)
    assert blown.chains == (Chain((F(3, 4),)),)


def test_fat_blowup_rejects_nonpositive_sizes():
    with pytest.raises(ValueError):
        blowup_fat(ruled(1, 1, 1), FatSide.BOTTOM, 0)


# --- interior blowups ----------------------------------------------------------


def test_interior_blowup_splits_the_vertex():
    g = with_chain(ruled(F(3, 4), 1, 1), "1/4")
    blown = blowup_interior(g, 0, 0, F(1, 16))
    assert blown.chains == (Chain((F(3, 16), F(5, 16)), (2,)),)


def test_interior_blowup_weights_by_the_labels():
    g = with_chain(ruled(F(3, 4), F(15, 16), 1), "3/16", "5/16", labels=(2,))
    blown = blowup_interior(g, 0, 1, F(1, 32))
    assert blown.chains == (Chain((F(3, 16), F(1, 4), F(11, 32)), (2, 3)),)


def test_interior_blowup_must_not_reach_the_vertex_below():
    g = with_chain(ruled(F(3, 4), F(15, 16), 1), "3/16", "5/16", labels=(2,))
    assert blowup_interior(g, 0, 1, F(1, 16)) is None


def test_interior_blowup_must_not_reach_the_extrema():
    g = with_chain(ruled(F(3, 4), 1, 1), "1/4")
    assert blowup_interior(g, 0, 0, F(1, 4)) is None  # lower endpoint would hit 0
    assert blowup_interior(g, 0, 0, F(3, 4)) is None  # upper endpoint would hit the top


# --- exhaustive site enumeration -------------------------------------------------


def test_all_blowups_of_the_ruled_square():
    results = all_blowups(ruled(1, 1, 1), F(1, 4))
    assert len(results) == 2
    assert are_equivalent(results[0], results[1])  # bottom and top differ by a flip


def test_all_blowups_counts_every_site():
    g = with_chain(ruled(F(3, 4), 1, 1), "1/4")
    results = all_blowups(g, F(1, 16))
    assert len(results) == 3  # bottom fat, top fat, one interior vertex
    assert all(not are_equivalent(a, b) for i, a in enumerate(results) for b in results[i + 1:])


def test_all_blowups_can_be_empty():
    assert all_blowups(ruled(2, 2, 12), 3) == []


# --- structural properties --------------------------------------------------------


@given(blown_graphs(), st.fractions(min_value=F(1, 32), max_value=F(31, 32), max_denominator=32))
@settings(max_examples=150)
def test_blowup_bookkeeping(g, t):
    delta = t * min(g.bottom.area, g.top.area, g.height)
    before = sum(len(c.heights) for c in g.chains)
    for blown in all_blowups(g, delta):
        assert validate(blown).valid
        assert blown.height == g.height
        assert sum(len(c.heights) for c in blown.chains) == before + 1
        area_drop = (g.bottom.area + g.top.area) - (blown.bottom.area + blown.top.area)
        if len(blown.chains) == len(g.chains) + 1:
            assert area_drop == delta  # fat blowup consumes area
        else:
            assert area_drop == 0  # interior blowup does not touch the fat vertices


@given(blown_graphs(max_blowups=4))
def test_interior_labels_stay_coprime(g):
    for chain in g.chains:
        bracketed = (1,) + chain.labels + (1,)
        assert all(math.gcd(a, b) == 1 for a, b in zip(bracketed, bracketed[1:]))


@given(valid_graphs(max_chains=3), st.fractions(min_value=F(1, 32), max_value=F(31, 32), max_denominator=32))
@settings(max_examples=150)
def test_blowups_commute_with_the_flip(g, t):
    delta = t * min(g.bottom.area, g.top.area, g.height)
    direct = sorted(all_blowups(flip(g), delta), key=canonical_sort_key)
    routed = sorted((flip(h) for h in all_blowups(g, delta)), key=canonical_sort_key)
    assert len(direct) == len(routed)
    assert direct == routed
