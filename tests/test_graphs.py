"""Decorated graphs: ordering, flips, equivalence, canonical serialization."""

import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from conftest import graph_pairs, mirror, oracle_equivalent, permute_chains, valid_graphs
from hamcircle import (
    Chain,
    DecoratedGraph,
    FatVertex,
    are_equivalent,
    canonical_json,
    class_key,
    flip,
    graph_from_json_dict,
    to_json_dict,
    validate,
)


def graph(bottom, top, height, *chains, genus=1):
    return DecoratedGraph(
        FatVertex(F(bottom), genus),
        FatVertex(F(top), genus),
        F(height),
        tuple(map(Chain, chains)),
    )


def chain(*seq):
    return Chain(seq)


RULED = graph(3, 3, 3)
ONE_CHAIN = graph("3/4", 1, 1, ("1/4",))


# --- chain orders -------------------------------------------------------------
#
# A graph stores its chains sorted by ``seq``; the end order is the start order
# of the flip.


def test_compare_by_start_orders_by_first_height():
    assert graph(1, 1, 1, ("1/4",), ("1/16",)).chains == (chain("1/16"), chain("1/4"))


def test_compare_by_start_equal_chains():
    a = chain("3/16", 2, "5/16")
    g = graph(1, 1, 1, ("3/16", 2, "5/16"), ("3/16", 2, "5/16"))
    assert g.chains == (a, a)


def test_compare_by_start_prefix_sorts_first():
    shorter = chain("1/4")
    longer = chain("1/4", 1, "1/2")
    assert DecoratedGraph(FatVertex(1), FatVertex(1), F(1), (longer, shorter)).chains == (shorter, longer)


def test_compare_by_end_uses_distance_from_top():
    # distances from the top are 1/16 and 3/4, so the high chain comes first after a flip
    g = graph(1, 1, 1, ("1/4",), ("15/16",))
    assert flip(g).chains == (chain("1/16"), chain("3/4"))


def test_by_end_is_by_start_of_the_flip():
    g = graph(1, 2, 1, ("1/4", 3, "1/2"), ("1/8",), ("1/2",))
    assert class_key(flip(g)) == class_key(g)


@given(valid_graphs())
def test_by_end_matches_flip_order_everywhere(g):
    assert class_key(flip(g)) == class_key(g)


# --- flips and keys -----------------------------------------------------------


def test_flip_swaps_areas():
    assert flip(graph(4, 2, 1)) == graph(2, 4, 1)


def test_flip_complements_heights():
    assert flip(ONE_CHAIN) == graph(1, "3/4", 1, ("3/4",))


@given(valid_graphs())
def test_flip_is_an_involution(g):
    assert flip(flip(g)) == g


@given(valid_graphs())
def test_flip_preserves_key_validity_and_labels(g):
    flipped = flip(g)
    assert validate(flipped).valid
    assert class_key(flipped) == class_key(g)
    assert len(flipped.chains) == len(g.chains)
    assert sorted(l for c in flipped.chains for l in c.labels) == sorted(
        l for c in g.chains for l in c.labels
    )


def test_flip_rejects_invalid_graphs():
    broken = graph(-1, 2, 1)
    with pytest.raises(ValueError, match="invalid"):
        flip(broken)


def test_key_examples():
    assert class_key(graph(2, 4, 1, ("1/2",))) == (F(2), F(4), F(1), ((F(1, 2),),))
    assert class_key(graph(4, 2, 1, ("1/4",))) == (F(2), F(4), F(1), ((F(3, 4),),))
    assert class_key(RULED) == (F(3), F(3), F(3), ())
    # equal fat areas: the flip decides by the chains, here the lower one
    assert class_key(graph(1, 1, 1, ("3/4",))) == (F(1), F(1), F(1), ((F(1, 4),),))


# --- validation ---------------------------------------------------------------


def test_validate_accepts_ruled_graph():
    assert validate(RULED).valid


def test_validate_rejects_vertex_at_the_top():
    bad = graph(1, 1, 1, ("1",))
    report = validate(bad)
    assert not report.valid
    assert "chain_0_below_top" in report.violations


def test_validate_rejects_non_increasing_heights():
    bad = graph(1, 1, 1, ("1/4", 1, "1/8"))
    report = validate(bad)
    assert "chain_0_heights_increasing" in report.violations


def test_validate_rejects_non_coprime_adjacent_labels():
    bad = graph(1, 1, 1, ("1/8", 2, "1/4", 2, "1/2"))
    assert any("coprime" in v for v in validate(bad).violations)


def test_validate_allows_equal_heights_across_chains():
    # distinct chains may carry vertices at the same height; this arises from
    # half-fiber blowups taken once from each fat vertex
    g = graph(1, 1, 2, ("1",), ("1",))
    assert validate(g).valid


# --- equality and equivalence ---------------------------------------------------


def test_are_same_on_a_copy():
    copy = DecoratedGraph(ONE_CHAIN.bottom, ONE_CHAIN.top, ONE_CHAIN.height, ONE_CHAIN.chains)
    assert ONE_CHAIN == copy


def test_are_same_sees_different_chains():
    other = graph("3/4", 1, 1, ("1/16",))
    assert ONE_CHAIN != other


def test_are_same_ignores_chain_labelling_order():
    g1 = graph(1, 2, 1, ("1/4",), ("1/2",))
    g2 = permute_chains(g1, (1, 0))
    assert g1 == g2


def test_are_same_requires_matching_keys():
    assert RULED != ONE_CHAIN
    assert class_key(RULED) != class_key(ONE_CHAIN)


def test_are_reflection_of_the_flip():
    assert flip(flip(ONE_CHAIN)) == ONE_CHAIN


def test_are_reflection_explicit_pair():
    assert flip(ONE_CHAIN) == graph(1, "3/4", 1, ("3/4",))
    assert flip(ONE_CHAIN) != graph(1, "3/4", 1, ("1/2",))


def test_are_equivalent_basics():
    assert are_equivalent(ONE_CHAIN, ONE_CHAIN)
    assert are_equivalent(ONE_CHAIN, flip(ONE_CHAIN))


def test_are_equivalent_distinguishes_second_stage_graphs():
    # two of the three graphs reached from (1,1;1/4,1/16): fat blowup at the
    # bottom vs fat blowup at the top of the one-chain stage-1 graph
    a = graph("11/16", 1, 1, ("1/4",), ("1/16",))
    b = graph("3/4", "15/16", 1, ("1/4",), ("15/16",))
    assert not are_equivalent(a, b)


def test_are_equivalent_needs_equal_heights():
    assert not are_equivalent(graph(1, 1, 1), graph(1, 1, 2))


@given(valid_graphs())
def test_equivalence_is_reflexive_and_flip_closed(g):
    assert are_equivalent(g, g)
    assert are_equivalent(g, flip(g))
    assert are_equivalent(flip(g), g)


@given(graph_pairs())
def test_equivalence_is_symmetric(pair):
    g1, g2 = pair
    assert are_equivalent(g1, g2) == are_equivalent(g2, g1)


@given(graph_pairs(), graph_pairs())
@settings(max_examples=60)
def test_equivalence_is_transitive(p1, p2):
    a, b = p1
    _, c = p2
    if are_equivalent(a, b) and are_equivalent(b, c):
        assert are_equivalent(a, c)


@given(graph_pairs())
def test_equivalent_graphs_share_keys(pair):
    g1, g2 = pair
    if are_equivalent(g1, g2):
        assert class_key(g1) == class_key(g2)
        assert {g1.bottom.area, g1.top.area} == {g2.bottom.area, g2.top.area}
        assert len(g1.chains) == len(g2.chains)


@given(graph_pairs())
@settings(max_examples=300)
def test_equivalence_agrees_with_bijection_oracle(pair):
    g1, g2 = pair
    assert are_equivalent(g1, g2) == oracle_equivalent(g1, g2)


# --- serialization ---------------------------------------------------------------


def test_json_dict_shape():
    data = to_json_dict(graph("3/4", 1, 1, ("3/16", 2, "5/16")))
    assert data == {
        "height": "1",
        "genus": 1,
        "bottom_area": "3/4",
        "top_area": "1",
        "chains": [["3/16", 2, "5/16"]],
    }


@given(valid_graphs())
def test_json_round_trip_preserves_the_graph(g):
    back = graph_from_json_dict(to_json_dict(g))
    assert back == g
    assert canonical_json(back) == canonical_json(g)


@given(graph_pairs())
def test_byte_equality_matches_are_same(pair):
    g1, g2 = pair
    same_bytes = canonical_json(g1) == canonical_json(g2)
    assert same_bytes == (g1 == g2 and g1.bottom.genus == g2.bottom.genus)


def test_mirror_helper_agrees_with_flip():
    g = graph(1, 2, 1, ("1/4", 3, "1/2"), ("1/8",))
    assert mirror(g) == flip(g)


def test_a_chain_is_its_sequence():
    c = Chain(("1/4", 2, "1/2"))
    assert [f.name for f in dataclasses.fields(Chain)] == ["seq"]
    assert c.seq == (F(1, 4), 2, F(1, 2))
    assert c.heights == (F(1, 4), F(1, 2)) and c.labels == (2,)
    assert c == Chain((F(1, 4), 2, F(1, 2)))
    assert c != Chain((F(1, 4), 3, F(1, 2))) and c != Chain((F(1, 4),))
    assert hash(c) == hash((c.seq,))
    assert repr(c) == f"Chain(seq={c.seq!r})"


@pytest.mark.parametrize(
    "seq, error",
    [
        ((), ValueError),
        ((F(1, 4), 2), ValueError),
        ((F(1, 4), 2, F(1, 2), 3), ValueError),
        ((F(1, 4), "2", F(1, 2)), TypeError),
    ],
)
def test_chain_refuses_a_malformed_sequence(seq, error):
    with pytest.raises(error):
        Chain(seq)


JSON_GRAPH = {"height": "1", "genus": 1, "bottom_area": "1", "top_area": "1/2", "chains": [["1/4", 2, "1/2"]]}


def test_json_values_go_through_the_constructors():
    with pytest.raises((TypeError, ValueError)):
        graph_from_json_dict(
            {"height": 1.1, "genus": 1.9, "bottom_area": "1", "top_area": 0.3, "chains": [["1/4", 2.7, 0.5]]}
        )
    assert graph_from_json_dict(JSON_GRAPH) == graph(1, "1/2", 1, ("1/4", 2, "1/2"))


@pytest.mark.parametrize(
    "field, value, error",
    [
        ("height", 1.1, TypeError),
        ("genus", 1.9, ValueError),
        ("genus", "1", ValueError),
        ("bottom_area", 0.5, TypeError),
        ("top_area", 0.3, TypeError),
        ("chains", [["1/4", 2.7, "1/2"]], TypeError),
        ("chains", [["1/4", 2, 0.5]], TypeError),
    ],
)
def test_json_refuses_floats_and_truncation(field, value, error):
    with pytest.raises(error):
        graph_from_json_dict({**JSON_GRAPH, field: value})
