"""Blowup moves on graphs: site validity, bookkeeping, flip commutation."""

from fractions import Fraction as F

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import blown_graphs, graph_values, map_values, valid_graphs
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
    class_key,
    flip,
    validate,
)


def ruled(bottom, top, height, genus=1):
    return DecoratedGraph(FatVertex(F(bottom), genus), FatVertex(F(top), genus), F(height))


def with_chain(g, *seq):
    chain = Chain(seq)
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
    assert blown.chains == (Chain((F(3, 16), 2, F(5, 16))),)


def test_interior_blowup_weights_by_the_labels():
    g = with_chain(ruled(F(3, 4), F(15, 16), 1), "3/16", 2, "5/16")
    blown = blowup_interior(g, 0, 1, F(1, 32))
    assert blown.chains == (Chain((F(3, 16), 2, F(1, 4), 3, F(11, 32))),)


def test_interior_blowup_must_not_reach_the_vertex_below():
    g = with_chain(ruled(F(3, 4), F(15, 16), 1), "3/16", 2, "5/16")
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


# --- the integer lattice ----------------------------------------------------------


def _key_values(key):
    bottom, top, height, chain_keys = key
    return [bottom, top, height, *(x for ck in chain_keys for x in ck[0::2])]


@given(blown_graphs(), st.fractions(min_value=F(1, 32), max_value=F(31, 32), max_denominator=32))
@settings(max_examples=150)
def test_int_graphs_blow_up_like_the_same_graph_in_fractions(g, t):
    delta = t * min(g.bottom.area, g.top.area, g.height)
    scale = math.lcm(delta.denominator, *(x.denominator for x in graph_values(g)))
    gi, di = map_values(g, lambda x: int(x * scale)), int(delta * scale)
    gq, dq = map_values(gi, F), F(di)
    assert all(type(x) is int for x in graph_values(gi))
    assert all(type(x) is F for x in graph_values(gq))
    assert class_key(gi) == class_key(gq)
    assert all(type(x) is int for x in _key_values(class_key(gi)))
    for side in FatSide:
        assert blowup_fat(gi, side, di) == blowup_fat(gq, side, dq)
    for ci, chain in enumerate(gi.chains):
        for vi in range(len(chain.heights)):
            assert blowup_interior(gi, ci, vi, di) == blowup_interior(gq, ci, vi, dq)
    blown = all_blowups(gi, di)
    assert blown == all_blowups(gq, dq)
    assert [class_key(b) for b in blown] == [class_key(b) for b in all_blowups(gq, dq)]
    assert all(type(x) is int for b in blown for x in graph_values(b))
    assert all(type(x) is int for b in blown for x in _key_values(class_key(b)))


INT_GRAPH = DecoratedGraph(FatVertex(8), FatVertex(6), 4, (Chain((2,)),))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Chain((0.5,)),
        lambda: Chain((1, 1, 2.0)),
        lambda: Chain((1, 1.0, 2)),
        lambda: FatVertex(0.5),
        lambda: DecoratedGraph(FatVertex(8), FatVertex(6), 4.0),
        lambda: blowup_fat(INT_GRAPH, FatSide.BOTTOM, 0.25),
        lambda: blowup_fat(INT_GRAPH, FatSide.TOP, 1.0),
        lambda: blowup_interior(INT_GRAPH, 0, 0, 0.25),
        lambda: all_blowups(INT_GRAPH, 0.25),
    ],
)
def test_floats_are_refused_beside_ints(make):
    with pytest.raises(TypeError):
        make()
