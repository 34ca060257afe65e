"""Decorated graphs: ordering, flips, equivalence, canonical serialization."""

import dataclasses
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    blown_graphs,
    graph_pairs,
    graph_values,
    map_values,
    mirror,
    oracle_equivalent,
    permute_chains,
    random_cone_vector,
    tweak,
    valid_graphs,
)
from hamcircle import (
    BundleType,
    Chain,
    DecoratedGraph,
    canonical_json,
    class_key,
    count_actions,
    enumerate_actions,
    flip,
    to_json_dict,
    validate,
)
from hamcircle.blowups import all_blowups, blowup_rows
from hamcircle.graphs import are_equivalent, flipped_word, flipped_words


def graph(bottom, top, height, *chains, genus=1):
    return DecoratedGraph(F(bottom), F(top), F(height), genus, tuple(map(Chain, chains)))


def chain(*seq):
    return Chain(seq)


def from_json(data):
    """The graph of a ``to_json_dict`` object, its values through the constructors."""
    chains = tuple(map(Chain, data["chains"]))
    return DecoratedGraph(data["bottom_area"], data["top_area"], data["height"], data["genus"], chains)


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
    assert DecoratedGraph(1, 1, F(1), 1, (longer, shorter)).chains == (shorter, longer)


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


# --- fields and genus -----------------------------------------------------------


def test_a_graph_is_its_json_fields():
    fields = dataclasses.fields(DecoratedGraph)
    assert [f.name for f in fields] == ["bottom_area", "top_area", "height", "genus", "chains"]
    assert fields[3].default is dataclasses.MISSING


def test_graph_refuses_a_missing_or_misplaced_genus():
    with pytest.raises(TypeError):
        DecoratedGraph(1, 1, 1)
    # the chains where the genus belongs
    with pytest.raises(ValueError, match="genus"):
        DecoratedGraph(1, 1, 1, (Chain(("1/2",)),))
    for genus in (0, True, 1.0):
        with pytest.raises(ValueError, match="genus"):
            DecoratedGraph(1, 1, 1, genus)


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_every_graph_building_path_keeps_the_genus(genus):
    g = graph(1, 2, 1, ("1/4", 3, "1/2"), ("1/8",), genus=genus)
    built = [
        flip(g),
        from_json(to_json_dict(g)),
        *all_blowups(g, F(1, 16)),
        map_values(g, lambda x: 2 * x),
        mirror(g),
        tweak(g),
        tweak(graph(1, 2, 1, genus=genus)),
    ]
    assert len(built) == 11 and {b.genus for b in built} == {genus}


# --- exact values --------------------------------------------------------------
#
# A height or an area that is already a Fraction is kept as given; anything
# else goes through ``as_q``, and a label through ``operator.index``.


class Q(F):
    """A Fraction subclass, which the constructors store as a plain Fraction."""


@pytest.mark.parametrize(
    "build",
    [
        lambda: DecoratedGraph(0.5, F(1), F(1), 1),
        lambda: DecoratedGraph(F(1), 0.5, F(1), 1),
        lambda: DecoratedGraph(F(1), F(1), 1.0, 1),
        lambda: DecoratedGraph(1, 1, 1, 1, (Chain((F(1, 4),)), Chain((0.5,)))),
        lambda: Chain((F(1, 4), 2, 0.5)),
        lambda: Chain((1, 2.0, 3)),
    ],
)
def test_constructors_refuse_floats(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize(
    "value, stored",
    [
        (lambda: DecoratedGraph("3/4", 2, "1", 1).bottom_area, F(3, 4)),
        (lambda: DecoratedGraph("3/4", 2, "1", 1).top_area, F(2)),
        (lambda: DecoratedGraph("3/4", 2, "1", 1).height, F(1)),
        (lambda: Chain(("1/4", 2, 3)), Chain((F(1, 4), 2, 3))),
        (lambda: Chain((F(1, 4), True, F(1, 2)))[1], 1),
        (lambda: Chain([F(1, 4), 2, 1]), Chain((F(1, 4), 2, 1))),
        (
            lambda: DecoratedGraph(1, 1, 1, 1, [Chain(("1/2",)), Chain(("1/4",))]).chains,
            (Chain(("1/4",)), Chain(("1/2",))),
        ),
        (lambda: DecoratedGraph(Q(3, 4), 1, 1, 1).bottom_area, F(3, 4)),
        (lambda: DecoratedGraph(1, 1, Q(1), 1).height, F(1)),
        (lambda: Chain((Q(1, 4), 2, 1)), Chain((F(1, 4), 2, 1))),
    ],
)
def test_constructors_store_exact_values(value, stored):
    got = value()
    # equal, and of exactly the same types: no bool, str, list or subclass survives
    assert got == stored
    assert type(got) is type(stored)
    if isinstance(got, tuple):
        assert list(map(type, got)) == list(map(type, stored))


def test_a_lone_chain_entry_must_be_a_chain():
    # a plain word would sort and compare like a chain, so the constructor refuses it by type
    for entry in (("1/2",), (F(1, 2),), [F(1, 2)]):
        with pytest.raises(TypeError, match="must be a Chain"):
            DecoratedGraph(1, 1, 1, 1, (entry,))


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
    assert class_key(graph(2, 4, 1, ("1/2",))) == (F(4), F(2), F(1), ((F(1, 2),),))
    assert class_key(graph(4, 2, 1, ("1/4",))) == (F(4), F(2), F(1), ((F(1, 4),),))
    assert class_key(RULED) == (F(3), F(3), F(3), ())
    # equal fat areas: the flip decides by the chains, here the higher one
    assert class_key(graph(1, 1, 1, ("3/4",))) == (F(1), F(1), F(1), ((F(3, 4),),))


def _own(g):
    return (g.bottom_area, g.top_area, g.height, g.chains)


@given(valid_graphs())
def test_key_is_the_larger_of_the_own_and_the_flipped_form(g):
    assert class_key(g) == max(_own(g), _own(flip(g)))


@given(valid_graphs(), st.integers(1, 10**30))
def test_flipped_word_flips_fraction_and_lattice_words_alike(g, factor):
    # the lattice words of the graph: every value times a common multiple of its denominators
    scale = factor * math.lcm(*(x.denominator for x in graph_values(g)))
    height = int(g.height * scale)
    lattice = tuple(tuple(int(x * scale) if i % 2 == 0 else x for i, x in enumerate(w)) for w in g.chains)
    for words, h in ((g.chains, g.height), (lattice, height)):
        for w in words:
            assert flipped_word(flipped_word(w, h), h) == w
        assert flipped_words(words, h) == tuple(sorted(flipped_word(w, h) for w in words))
    for w, v in zip(g.chains, lattice):
        back = tuple(x if i % 2 else F(x, scale) for i, x in enumerate(flipped_word(v, height)))
        assert back == flipped_word(w, g.height)
    flipped = tuple(sorted(flipped_word(w, g.height) for w in g.chains))
    assert flipped == mirror(g).chains
    assert flip(g).chains == flipped
    assert class_key(g) == max(_own(g), (g.top_area, g.bottom_area, g.height, flipped))


# --- validation ---------------------------------------------------------------


def test_validate_accepts_ruled_graph():
    assert validate(RULED).valid


def test_validate_rejects_vertex_at_the_top():
    bad = graph(1, 1, 1, ("1",))
    report = validate(bad)
    assert not report.valid
    assert "chain_0_below_top" in report.violations
    # a vertex at the bottom, and a graph of no height or of no top area
    assert validate(graph(1, 1, 1, ("0",))).violations == ("chain_0_above_bottom",)
    assert validate(graph(1, 1, 0)).violations == ("height_positive",)
    assert validate(graph(1, 0, 1)).violations == ("top_area_positive",)


def test_validate_rejects_non_increasing_heights():
    bad = graph(1, 1, 1, ("1/4", 1, "1/8"))
    report = validate(bad)
    assert "chain_0_heights_increasing" in report.violations


def test_validate_rejects_non_coprime_adjacent_labels():
    bad = graph(1, 1, 1, ("1/8", 2, "1/4", 2, "1/2"))
    assert any("coprime" in v for v in validate(bad).violations)
    # a zero label passes the coprime test, as gcd(0, 1) == 1, but is no label
    assert validate(graph(1, 1, 1, ("1/4", 0, "1/2"))).violations == ("chain_0_labels_positive",)


def test_validate_allows_equal_heights_across_chains():
    # distinct chains may carry vertices at the same height; this arises from
    # half-fiber blowups taken once from each fat vertex
    g = graph(1, 1, 2, ("1",), ("1",))
    assert validate(g).valid


# --- equality and equivalence ---------------------------------------------------


def test_are_same_on_a_copy():
    g = ONE_CHAIN
    copy = DecoratedGraph(g.bottom_area, g.top_area, g.height, g.genus, g.chains)
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
        assert {g1.bottom_area, g1.top_area} == {g2.bottom_area, g2.top_area}
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
    back = from_json(to_json_dict(g))
    assert back == g
    assert canonical_json(back) == canonical_json(g)


@given(st.one_of(valid_graphs(), blown_graphs()))
def test_canonical_json_is_the_compact_dumps(g):
    # the spelling canonical_json had before it kept one encoder for every call
    assert canonical_json(g) == json.dumps(to_json_dict(g), separators=(",", ":"))


def _seeded_runs():
    """Seeded cone vectors on both bundles, k <= 3, many of them with twists past the window."""
    rng = random.Random(2024)
    for i in range(96):
        bundle = (BundleType.TRIVIAL, BundleType.NONTRIVIAL)[i % 2]
        yield random_cone_vector(rng, rng.randint(0, 3), bundle, rng.randint(1, 2), pad_fibers=rng.choice((1, 16)))


def test_canonical_json_is_the_compact_dumps_on_enumerated_graphs():
    graphs = {BundleType.TRIVIAL: 0, BundleType.NONTRIVIAL: 0}
    past_window = 0
    for v in _seeded_runs():
        output, report = enumerate_actions(v)
        for g in output:
            assert canonical_json(g) == json.dumps(to_json_dict(g), separators=(",", ":"))
        graphs[v.bundle] += len(output)
        # a twist n with n*lambda_f/2 past the sum of the deltas
        w = report.reduced_vector
        past_window += any(n * w.lambda_f / 2 > sum(w.deltas) for n in report.initial_twists)
    assert min(graphs.values()) > 1000 and past_window >= 40


def test_canonical_json_is_the_compact_dumps_on_lattice_graphs(monkeypatch):
    # the shape run blows up lattice rows, every field an int; each row it
    # makes, built as a graph, is a valid graph
    import hamcircle.enumeration as enumeration

    calls, built = [], []

    def recorded(bottom, top, height, chains, delta):
        rows = blowup_rows(bottom, top, height, chains, delta)
        calls.append((bottom, top, height, delta, rows))
        built.extend(DecoratedGraph(*row[:2], height, 1, tuple(map(Chain, row[2]))) for row in rows if row)
        return rows

    monkeypatch.setattr(enumeration, "blowup_rows", recorded)
    for v in _seeded_runs():
        count_actions(v)
    # the shape run tests the twists of the fat rows only: an interior row
    # keeps the areas, and a fat row lowers its own area by delta
    for bottom, top, _, delta, rows in calls:
        areas = [row and row[:2] for row in rows]
        assert areas[0] in (None, (bottom - delta, top))
        assert areas[1] in (None, (bottom, top - delta))
        assert set(areas[2:]) <= {None, (bottom, top)}
    valid = [[row is not None for row in rows] for *_, rows in calls]
    # bottom fat, top fat and interior rows: 306, 306 and 304 of them
    assert min(sum(v[0] for v in valid), sum(v[1] for v in valid), sum(sum(v[2:]) for v in valid)) > 250
    assert {type(x) for *fields, _ in calls for x in fields} == {int}
    rows = [row for *_, rows in calls for row in rows if row]
    assert {type(x) for bottom, top, chains in rows for x in (bottom, top, *(x for c in chains for x in c))} == {int}
    for g in built:
        assert canonical_json(g) == json.dumps(to_json_dict(g), separators=(",", ":"))
        assert validate(g)
    assert len(built) > 500


@given(graph_pairs())
def test_byte_equality_matches_are_same(pair):
    g1, g2 = pair
    same_bytes = canonical_json(g1) == canonical_json(g2)
    assert same_bytes == (g1 == g2 and g1.genus == g2.genus)


def test_mirror_helper_agrees_with_flip():
    g = graph(1, 2, 1, ("1/4", 3, "1/2"), ("1/8",))
    assert mirror(g) == flip(g)


def test_a_chain_is_its_sequence():
    c = Chain(("1/4", 2, "1/2"))
    word = (F(1, 4), 2, F(1, 2))
    assert isinstance(c, tuple) and not dataclasses.is_dataclass(Chain)
    assert c == word and hash(c) == hash(word)
    assert Chain(c) == c and Chain(word) == c
    assert c != Chain((F(1, 4), 3, F(1, 2))) and c != Chain((F(1, 4),))
    assert not hasattr(c, "__dict__")
    assert c.heights == c[::2] == (F(1, 4), F(1, 2)) and c.labels == c[1::2] == (2,)
    assert type(c.heights) is tuple and type(c.labels) is tuple
    assert repr(c) == repr(word)


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
        DecoratedGraph("1", 0.3, 1.1, 1.9, (Chain(["1/4", 2.7, 0.5]),))
    assert from_json(JSON_GRAPH) == graph(1, "1/2", 1, ("1/4", 2, "1/2"))
    assert DecoratedGraph("1", "1/2", "1", 1, (Chain(["1/4", 2, "1/2"]),)) == from_json(JSON_GRAPH)


# Each row passes one JSON value of the wrong kind to a constructor; its id
# names the JSON field the value would come from.
@pytest.mark.parametrize(
    "make, error",
    [
        pytest.param(lambda: DecoratedGraph(1, "1/2", 1.1, 1), TypeError, id="height-1.1-TypeError"),
        pytest.param(lambda: DecoratedGraph(1, "1/2", 1, 1.9), ValueError, id="genus-1.9-ValueError"),
        pytest.param(lambda: DecoratedGraph(1, "1/2", 1, "1"), ValueError, id="genus-1-ValueError"),
        pytest.param(lambda: DecoratedGraph(0.5, "1/2", 1, 1), TypeError, id="bottom_area-0.5-TypeError"),
        pytest.param(lambda: DecoratedGraph(1, 0.3, 1, 1), TypeError, id="top_area-0.3-TypeError"),
        pytest.param(lambda: Chain(["1/4", 2.7, "1/2"]), TypeError, id="chains-value5-TypeError"),
        pytest.param(lambda: Chain(["1/4", 2, 0.5]), TypeError, id="chains-value6-TypeError"),
        pytest.param(lambda: DecoratedGraph(1, "1/2", 1, 1, "5"), TypeError, id="chains-5-TypeError"),
        pytest.param(lambda: Chain("5"), TypeError, id="chains-value8-TypeError"),
        pytest.param(lambda: Chain({"5": 2}), TypeError, id="chains-value9-TypeError"),
    ],
)
def test_json_refuses_floats_and_truncation(make, error):
    with pytest.raises(error):
        make()
