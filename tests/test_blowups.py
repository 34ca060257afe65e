"""Blowup moves: site validity, bookkeeping, flip commutation."""

from fractions import Fraction as F

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import blown_graphs, graph_values, map_values, valid_graphs
from hamcircle import (
    Chain,
    DecoratedGraph,
    class_key,
    flip,
    validate,
)
from hamcircle.blowups import all_blowups, blowup_rows
from hamcircle.graphs import are_equivalent, canonical_sort_key


def ruled(bottom, top, height, genus=1):
    return DecoratedGraph(F(bottom), F(top), F(height), genus)


def with_chain(g, *seq):
    chain = Chain(seq)
    return DecoratedGraph(g.bottom_area, g.top_area, g.height, g.genus, g.chains + (chain,))


def site(g, i, delta):
    """The child row at site i of g: 0 bottom fat, 1 top fat, 2 + offset an interior vertex."""
    return blowup_rows(g.bottom_area, g.top_area, g.height, g.chains, delta)[i]


# --- fat-vertex blowups -------------------------------------------------------


def test_fat_blowup_at_the_bottom():
    assert site(ruled(1, 1, 1), 0, F(1, 4)) == (F(3, 4), 1, ((F(1, 4),),))


def test_fat_blowup_needs_room_in_the_area():
    assert site(ruled(2, 2, 12), 0, 3) is None
    assert site(ruled(2, 2, 12), 1, 3) is None


def test_fat_blowup_area_test_is_strict():
    assert site(ruled(F(11, 2), F(3, 2), 2), 1, F(3, 2)) is None


def test_fat_blowup_needs_room_below_the_height():
    # enough fat area but the new vertex would land on the other extremum
    tall = ruled(5, 5, 1)
    assert site(tall, 0, 1) is None
    assert site(tall, 0, 2) is None


def test_fat_blowup_from_the_top_measures_from_the_top():
    assert site(ruled(1, 1, 1), 1, F(1, 4)) == (1, F(3, 4), ((F(3, 4),),))


# --- interior blowups ----------------------------------------------------------


def test_interior_blowup_splits_the_vertex():
    g = with_chain(ruled(F(3, 4), 1, 1), "1/4")
    assert site(g, 2, F(1, 16)) == (F(3, 4), 1, ((F(3, 16), 2, F(5, 16)),))


def test_interior_blowup_weights_by_the_labels():
    g = with_chain(ruled(F(3, 4), F(15, 16), 1), "3/16", 2, "5/16")
    assert site(g, 3, F(1, 32)) == (F(3, 4), F(15, 16), ((F(3, 16), 2, F(1, 4), 3, F(11, 32)),))


def test_interior_blowup_must_not_reach_the_vertex_below():
    g = with_chain(ruled(F(3, 4), F(15, 16), 1), "3/16", 2, "5/16")
    assert site(g, 3, F(1, 16)) is None


def test_interior_blowup_must_not_reach_the_extrema():
    g = with_chain(ruled(F(3, 4), 1, 1), "1/4")
    assert site(g, 2, F(1, 4)) is None  # lower endpoint would hit 0
    assert site(g, 2, F(3, 4)) is None  # upper endpoint would hit the top


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


def test_all_blowups_rejects_nonpositive_sizes():
    for delta in (0, F(-1, 4)):
        with pytest.raises(ValueError):
            all_blowups(ruled(1, 1, 1), delta)


# --- structural properties --------------------------------------------------------


@given(blown_graphs(), st.fractions(min_value=F(1, 32), max_value=F(31, 32), max_denominator=32))
@settings(max_examples=150)
def test_blowup_bookkeeping(g, t):
    delta = t * min(g.bottom_area, g.top_area, g.height)
    before = sum(len(c.heights) for c in g.chains)
    for blown in all_blowups(g, delta):
        assert validate(blown).valid
        assert blown.height == g.height
        assert sum(len(c.heights) for c in blown.chains) == before + 1
        area_drop = (g.bottom_area + g.top_area) - (blown.bottom_area + blown.top_area)
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
    delta = t * min(g.bottom_area, g.top_area, g.height)
    direct = sorted(all_blowups(flip(g), delta), key=canonical_sort_key)
    routed = sorted((flip(h) for h in all_blowups(g, delta)), key=canonical_sort_key)
    assert len(direct) == len(routed)
    assert direct == routed


# --- the integer lattice ----------------------------------------------------------


@given(blown_graphs(), st.fractions(min_value=F(1, 32), max_value=F(31, 32), max_denominator=32))
@settings(max_examples=150)
def test_int_graphs_blow_up_like_the_same_graph_in_fractions(g, t):
    delta = t * min(g.bottom_area, g.top_area, g.height)
    scale = math.lcm(delta.denominator, *(x.denominator for x in graph_values(g)))
    # the graph on the lattice as plain ints, its chains still sorted as a positive scale keeps the order
    bottom, top, height, di = (int(x * scale) for x in (g.bottom_area, g.top_area, g.height, delta))
    chains = tuple(tuple(x if i % 2 else int(x * scale) for i, x in enumerate(c)) for c in g.chains)
    assert list(chains) == sorted(chains)
    gq, dq = map_values(g, lambda x: x * scale), F(di)
    assert all(type(x) is F for x in graph_values(gq))
    rows = blowup_rows(bottom, top, height, chains, di)
    assert rows == blowup_rows(gq.bottom_area, gq.top_area, gq.height, gq.chains, dq)
    assert len(rows) == 2 + sum(len(c.heights) for c in gq.chains)
    assert all(type(x) is int for row in filter(None, rows) for x in [*row[:2], *(x for c in row[2] for x in c)])
    # a graph built from ints holds Fractions, and blows up as the Fraction graph does
    gi = DecoratedGraph(bottom, top, height, g.genus, tuple(map(Chain, chains)))
    assert gi == gq and class_key(gi) == class_key(gq)
    blown = all_blowups(gi, di)
    assert blown == all_blowups(gq, dq)
    assert [class_key(b) for b in blown] == [class_key(b) for b in all_blowups(gq, dq)]


INT_GRAPH = DecoratedGraph(8, 6, 4, 1, (Chain((2,)),))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Chain((0.5,)),
        lambda: Chain((1, 1, 2.0)),
        lambda: Chain((1, 1.0, 2)),
        lambda: DecoratedGraph(0.5, 6, 4, 1),
        lambda: DecoratedGraph(8, 6, 4.0, 1),
        lambda: all_blowups(INT_GRAPH, 1.0),
        lambda: all_blowups(DecoratedGraph(8, 6, 4, 1), 0.25),
        lambda: all_blowups(INT_GRAPH, 100.0),  # no site is valid, the delta is still checked
        lambda: all_blowups(INT_GRAPH, 0.25),
    ],
)
def test_floats_are_refused_beside_ints(make):
    with pytest.raises(TypeError):
        make()
