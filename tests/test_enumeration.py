"""The enumeration: the staged search, the shape run that reproduces it, and count invariances."""

import hashlib
import random
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import cone_vectors, graph_values, map_values, oracle_equivalent
from hamcircle import (
    BlowupVector,
    BundleType,
    Chain,
    DecoratedGraph,
    NotBlowupFormError,
    TooManyGraphsError,
    canonical_json,
    check_cone,
    class_key,
    count_actions,
    cremona,
    cremona_move,
    cremona_reduce,
    enumerate_actions,
    flip,
    is_g_reduced,
    sort_deltas,
    swap_bundle,
)
from hamcircle.blowups import all_blowups
from hamcircle.cli import parse_vector
from hamcircle.enumeration import GraphStore, _twist_bounds, blowup_stage, enumerate_json, initial_graphs
from hamcircle.formulas import count_equal_sizes, count_ruled, max_count, max_count_conditions
from hamcircle.graphs import are_equivalent, canonical_sort_key

T, NT = BundleType.TRIVIAL, BundleType.NONTRIVIAL


def graph(bottom, top, height, *chains, genus=1):
    return DecoratedGraph(F(bottom), F(top), F(height), genus, tuple(map(Chain, chains)))


STAGE2_A = graph("11/16", 1, 1, ("1/4",), ("1/16",))
STAGE2_B = graph("3/4", "15/16", 1, ("1/4",), ("15/16",))
STAGE2_C = graph("3/4", 1, 1, ("3/16", 2, "5/16"))


# --- the store -----------------------------------------------------------------


def test_add_if_new_rejects_duplicates():
    store = GraphStore()
    g = graph("3/4", 1, 1, ("1/4",))
    assert store.add_if_new(g)
    assert not store.add_if_new(g)
    assert not store.add_if_new(graph("3/4", 1, 1, ("1/4",)))
    assert len(store) == 1


def test_add_if_new_rejects_the_flip():
    store = GraphStore()
    g = graph("3/4", 1, 1, ("1/4",))
    assert store.add_if_new(g)
    assert not store.add_if_new(flip(g))


def test_add_if_new_keeps_inequivalent_graphs():
    store = GraphStore()
    assert store.add_if_new(STAGE2_A)
    assert store.add_if_new(STAGE2_B)
    assert store.add_if_new(STAGE2_C)
    assert len(store) == 3


# --- initial graphs --------------------------------------------------------------


def test_initial_graphs_trivial():
    gs = initial_graphs(3, 7, T, genus=2)
    assert [(g.bottom_area, g.top_area) for g in gs] == [(7, 7), (10, 4), (13, 1)]
    assert all(g.height == 3 and not g.chains and g.genus == 2 for g in gs)


def test_initial_graphs_nontrivial():
    gs = initial_graphs(2, 3, NT, genus=1)
    assert [(g.bottom_area, g.top_area) for g in gs] == [(4, 2)]


def test_initial_graphs_square():
    gs = initial_graphs(3, 3, T, genus=1)
    assert [(g.bottom_area, g.top_area) for g in gs] == [(3, 3)]


def initial_twists(lambda_f, lambda_b, bundle):
    """The twists that the shape run reports for the ruled surface itself."""
    return count_actions(BlowupVector(lambda_f, lambda_b, (), bundle)).initial_twists


def test_initial_twists_parity():
    assert list(initial_twists(3, 7, T)) == [0, 2, 4]
    assert list(initial_twists(2, 3, NT)) == [1]
    assert list(initial_twists(2, F(1, 2), NT)) == []  # base too small for the odd twist


@given(
    st.fractions(min_value=F(1, 8), max_value=8, max_denominator=12),
    st.integers(0, 40),
    st.fractions(min_value=0, max_value=F(1, 2), max_denominator=12),
    st.sampled_from([T, NT]),
)
@example(F(2), 1, F(0), NT)  # lambda_b == lambda_f/2: no odd twist
@example(F(2), 0, F(1, 4), NT)  # lambda_b < lambda_f/2
@example(F(3), 4, F(0), T)  # lambda_b a multiple of lambda_f/2
def test_initial_twists_match_their_definition(lf, halves, rest, bundle):
    lb = lf * (F(halves, 2) + rest)
    assume(lb > 0)
    parity = 0 if bundle is T else 1
    expected = [n for n in range(parity, 2 * halves + 4, 2) if lb - n * lf / 2 > 0]
    assert list(initial_twists(lf, lb, bundle)) == expected


@given(
    st.integers(-(10**40), 10**40),
    st.integers(-(10**40), 10**40),
    st.integers(1, 12),
    st.sampled_from([0, 1]),
)
@example(-1, 10**40, 1, 1)  # about 5*10**39 twists: len() of their range overflows
@example(0, 1, 1, 0)  # no integer strictly between 0 and 1
@example(-3, 3, 3, 1)  # n*3 strictly inside (-3, 3) only at n = 0, of the other parity
def test_twist_bounds_count_and_test_the_twists_without_a_range(low, high, half, parity):
    start, stop = _twist_bounds(low, high, half, parity)
    r = range(start, stop, 2)
    # the shape run's count and emptiness test, by arithmetic on the bounds
    count = (stop - start + 1) // 2 if stop > start else 0
    assert count == max(0, (r.stop - r.start + 1) // 2)
    assert (start < stop) == bool(r)
    if count <= sys.maxsize:
        assert len(r) == count
    else:
        with pytest.raises(OverflowError):
            len(r)
    # the range holds exactly the twists n of the parity with low < n*half < high
    assert start % 2 == parity and (start - 2) * half <= low < start * half
    if count:
        assert r[count - 1] * half < high <= (r[count - 1] + 2) * half
        with pytest.raises(IndexError):
            r[count]
    else:
        assert start * half >= high
    if abs(low) + abs(high) < 1000:
        assert list(r) == [n for n in range(-1001, 1001) if n % 2 == parity and low < n * half < high]


def test_initial_graphs_need_positive_parameters():
    with pytest.raises(ValueError):
        initial_graphs(0, 1, T, 1)
    with pytest.raises(ValueError):
        initial_graphs(1, -2, T, 1)
    with pytest.raises(ValueError):
        blowup_stage(GraphStore(), 0)


# --- stages ------------------------------------------------------------------------


def test_stage_collapses_flip_equivalent_results():
    store = GraphStore(initial_graphs(1, 1, T, 1))
    stage1 = blowup_stage(store, F(1, 4))
    assert len(stage1) == 1
    stage2 = blowup_stage(stage1, F(1, 16))
    assert len(stage2) == 3
    assert len(store) == 1  # input store untouched


def test_stage_inserts_every_child_through_add_if_new(monkeypatch):
    # the benchmark's insert span wraps ``GraphStore.add_if_new`` on the class,
    # so a stage must hand it every generated child, duplicates included
    store = GraphStore(initial_graphs(2, 3, T, 1))
    store = blowup_stage(store, 1)
    children = [child for source in store for child in all_blowups(source, 1)]
    inserted = []
    add_if_new = GraphStore.add_if_new

    def counted(self, graph):
        inserted.append(graph)
        return add_if_new(self, graph)

    monkeypatch.setattr(GraphStore, "add_if_new", counted)
    result = blowup_stage(store, 1)
    assert inserted == children
    assert len(result) < len(children)  # some children merged


def test_stage_can_empty_out():
    store = GraphStore(initial_graphs(12, 2, T, 1))
    assert len(blowup_stage(store, 3)) == 0


# --- counting ------------------------------------------------------------------------


def test_count_zero_and_one_action():
    assert count_actions(BlowupVector(12, 2, (3, 3))).count == 0
    assert count_actions(BlowupVector(10, 2, (1, 1))).count == 1


def test_count_two_shrinking_blowups_on_the_unit_square():
    report = count_actions(BlowupVector(1, 1, (F(1, 4), F(1, 16))))
    assert report.count == 3
    assert report.stage_counts == (1, 1, 3)
    assert tuple(report.initial_twists) == (0,)
    assert not report.auto_reduced


def test_count_rejects_non_cone_input():
    with pytest.raises(NotBlowupFormError):
        count_actions(BlowupVector(4, 1, (3, 1)))


def test_count_auto_reduces_and_flags():
    crooked = count_actions(BlowupVector(3, 3, (2, 2)))
    straight = count_actions(BlowupVector(3, 2, (1, 1)))
    assert crooked.auto_reduced and not straight.auto_reduced
    assert crooked.reduced_vector == straight.reduced_vector == BlowupVector(3, 2, (1, 1))
    assert crooked.count == straight.count


@given(cone_vectors(min_k=0, max_k=3, small=True))
@settings(max_examples=40, deadline=None)
def test_count_flags_exactly_the_non_reduced_vectors(v):
    assert count_actions(v).auto_reduced == (not is_g_reduced(v))


def test_library_graph_bound():
    # 10**6 + 1 graphs and 2*10**30 - 1 graphs, refused without building them
    for v in (BlowupVector(1, 10**6 + 1), BlowupVector(1, 10**30, (F(1, 2),))):
        start = time.perf_counter()
        with pytest.raises(TooManyGraphsError, match="graphs exceed the limit of 1000000$"):
            enumerate_actions(v)
        assert time.perf_counter() - start < 1
    start = time.perf_counter()
    with pytest.raises(TooManyGraphsError, match="^1000000000000000000000000000000 graphs exceed"):
        initial_graphs(1, 10**30, T, 1)
    assert time.perf_counter() - start < 1


def test_library_graph_bound_is_inclusive(monkeypatch):
    import hamcircle.enumeration as enumeration

    monkeypatch.setattr(enumeration, "MAX_GRAPHS", 3)
    assert len(initial_graphs(1, 3, T, 1)) == len(initial_graphs(1, F(7, 2), NT, 1)) == 3
    with pytest.raises(TooManyGraphsError, match="^4 graphs exceed the limit of 3$"):
        initial_graphs(1, F(7, 2), T, 1)
    assert len(enumerate_actions(BlowupVector(1, 3))[0]) == 3
    with pytest.raises(TooManyGraphsError, match="^4 graphs exceed the limit of 3$"):
        enumerate_actions(BlowupVector(1, F(7, 2)))
    # a count hands out no graph, so its answer is not bounded
    assert count_actions(BlowupVector(1, 10**30)).count == 10**30


def test_a_count_is_not_bounded_by_the_graph_budget(monkeypatch):
    import hamcircle.enumeration as enumeration

    monkeypatch.setattr(enumeration, "MAX_GRAPHS", 3)
    # five actions: the count itself is past the budget
    assert count_actions(BlowupVector(1, 3, (F(1, 2),))).count == 5
    # four twists (0, 2, 4, 6) and no action: a count seeds no twist
    assert count_actions(BlowupVector(1, F(7, 2), (F(1, 2),) * 14)).count == 0
    # a listing past the budget is still refused
    with pytest.raises(TooManyGraphsError, match="^5 graphs exceed the limit of 3$"):
        enumerate_actions(BlowupVector(1, 3, (F(1, 2),)))


def test_graph_bound_is_checked_before_any_output_graph_is_built(monkeypatch):
    import hamcircle.enumeration as enumeration

    def refuse(*args):
        raise AssertionError("called past the budget")

    # the shape run builds no graph: only the listing's conversion, and the
    # seeds of initial_graphs, build one
    monkeypatch.setattr(enumeration, "DecoratedGraph", refuse)
    with pytest.raises(AssertionError, match="called past the budget"):
        enumerate_actions(BlowupVector(1, 3))
    with pytest.raises(TooManyGraphsError):
        enumerate_actions(BlowupVector(1, 10**6, (F(1, 2), F(1, 4))))
    monkeypatch.setattr(enumeration, "MAX_GRAPHS", 3)
    with pytest.raises(TooManyGraphsError, match="^4 graphs exceed the limit of 3$"):
        enumerate_actions(BlowupVector(1, F(7, 2)))
    # and initial_graphs refuses before it builds a seed
    with pytest.raises(TooManyGraphsError, match="^4 graphs exceed the limit of 3$"):
        initial_graphs(1, F(7, 2), T, 1)


@pytest.mark.parametrize(
    "v, closed_form",
    [
        (BlowupVector(1, 10**30), lambda: count_ruled(1, 10**30, T)),
        (BlowupVector(1, 10**30, bundle=NT), lambda: count_ruled(1, 10**30, NT)),
        (BlowupVector(1, 10**30, (F(1, 2),)), lambda: count_equal_sizes(1, 10**30, F(1, 2), 1, T)),
        (BlowupVector(1, 10**30, (F(1, 2),) * 6, NT), lambda: count_equal_sizes(1, 10**30, F(1, 2), 6, NT)),
        (BlowupVector(3, 10**50 + F(1, 7), (F(5, 4), F(1, 3), F(1, 5)), NT), None),
    ],
    ids=["ruled", "ruled-nontrivial", "half", "six-halves-nontrivial", "unequal-nontrivial"],
)
def test_count_takes_any_lambda_b(v, closed_form):
    start = time.perf_counter()
    report = count_actions(v)
    assert time.perf_counter() - start < 1
    assert report.count > 10**29
    if closed_form is not None:
        assert report.count == closed_form()


def _seed_twists(w):
    """The twist n of each seed of the staged search for the reduced vector
    ``w``, read off its bottom area lambda_b + n*lambda_f/2."""
    seeds = initial_graphs(w.lambda_f, w.lambda_b, w.bundle, w.genus)
    return tuple(2 * (g.bottom_area - w.lambda_b) / w.lambda_f for g in seeds)


def _staged_reference(w):
    """Stage sizes and canonically sorted graphs of the staged search, seeded
    with every twist of the reduced vector ``w``, in Fractions."""
    store = GraphStore(initial_graphs(w.lambda_f, w.lambda_b, w.bundle, w.genus))
    sizes = [len(store)]
    for delta in w.deltas:
        store = blowup_stage(store, delta)
        sizes.append(len(store))
    return tuple(sizes), sorted(store, key=canonical_sort_key)


def _assert_matches_the_staged_search(v):
    w = cremona_reduce(v).vector
    sizes, reference = _staged_reference(w)
    graphs, report = enumerate_actions(v)
    assert graphs == reference
    assert count_actions(v) == report
    assert report.stage_counts == sizes
    assert report.reduced_vector == w
    assert tuple(report.initial_twists) == _seed_twists(w)


@st.composite
def window_vectors(draw):
    """Cone vectors whose reduced lambda_b sits near the window edge, a twist
    n with n*lambda_f/2 == S = sum(deltas), a few half fibers up or down, or
    in the one-twist regime lambda_b <= lambda_f/2.  The deltas are sometimes
    all lambda_f/2 and sometimes come in equal pairs, which give graphs fixed
    by the flip, and sometimes the vector is handed over in a non-reduced
    encoding.
    """
    bundle = draw(st.sampled_from([T, NT]))
    k = draw(st.integers(0, 5))
    lf = draw(st.fractions(min_value=F(1, 4), max_value=4, max_denominator=8))
    fractions = st.fractions(min_value=F(1, 32), max_value=F(31, 32), max_denominator=32)
    kind = draw(st.sampled_from(["halves", "pairs", "free"]))
    if kind == "halves":
        deltas = (lf / 2,) * k
    elif kind == "pairs":
        # sorted with 2*d1 <= lambda_f: reduced
        halves = [lf / 2 * draw(fractions) for _ in range((k + 1) // 2)]
        deltas = tuple(sorted(halves * 2, reverse=True)[:k])
    else:
        # sorted with d1 + d2 <= lambda_f: reduced
        first = lf * draw(fractions)
        rest = sorted((min(first, lf - first) * draw(fractions) for _ in range(k - 1)), reverse=True)
        deltas = (first, *rest)[:k]
    total = sum(deltas, start=F(0))
    if draw(st.integers(0, 4)):
        eps = lf * draw(st.fractions(min_value=F(1, 64), max_value=F(1, 4), max_denominator=64))
        offset = draw(
            st.one_of(
                st.sampled_from([-eps, F(0), eps]),
                st.fractions(min_value=-lf / 2, max_value=lf / 2, max_denominator=16),
            )
        )
        lb = total + draw(st.integers(-1, 4)) * lf / 2 + offset
    else:
        lb = lf / 2 * draw(st.fractions(min_value=F(1, 32), max_value=1, max_denominator=32))
    w = BlowupVector(lf, lb, deltas, bundle)
    assume(lb > 0 and check_cone(w))
    if k >= 2 and draw(st.booleans()):
        moved = cremona(w)
        return BlowupVector(moved.lambda_f, moved.lambda_b, moved.deltas[::-1], bundle)
    return w


@given(window_vectors())
@example(BlowupVector(2, 7, (1, 1, 1), T))  # lambda_b - lambda_f - S == 2 == lambda_f
@example(BlowupVector(2, 7, (1, 1, 1), NT))
@example(BlowupVector(1, F(37, 8), (F(1, 2),) * 3, T))
@example(BlowupVector(1, F(35, 8), (F(1, 2),) * 3, NT))
@example(BlowupVector(1, F(21, 4), (F(1, 2), F(3, 4)), T))  # non-reduced encoding of 1,5;1/2,1/4
@example(BlowupVector(1, F(7, 4), (F(1, 2), F(1, 4), F(1, 8), F(1, 8)), T))  # twist 2 on the window edge
@example(BlowupVector(1, F(7, 4), (F(1, 2), F(1, 4), F(1, 8), F(1, 8)), NT))  # twist 3 just past it
@example(BlowupVector(2, 1, (F(1, 2), F(1, 2), F(1, 4), F(1, 4)), T))  # one twist, graphs fixed by the flip
@example(BlowupVector(2, 1, (F(1, 2), F(1, 2), F(1, 4)), NT))  # lambda_b == lambda_f/2: no odd twist
@settings(max_examples=300, deadline=None)
def test_shape_run_matches_the_staged_search(v):
    _assert_matches_the_staged_search(v)


def _seeded_window_vectors(count):
    """Seeded cone vectors on both bundles, k <= 4, with lambda_b near the
    window edge or in the one-twist regime, many with 2*delta == lambda_f or
    equal pairs of deltas."""
    rng = random.Random(16)
    while count:
        bundle = rng.choice([T, NT])
        k = rng.randint(0, 4)
        lf = F(rng.randint(1, 8), rng.randint(1, 4))
        kind = rng.randrange(3)
        if kind == 0:
            deltas = (lf / 2,) * k
        elif kind == 1:
            halves = [lf / 2 * F(rng.randint(1, 31), 32) for _ in range((k + 1) // 2)]
            deltas = tuple(sorted(halves * 2, reverse=True)[:k])
        else:
            deltas = tuple(sorted((lf * F(rng.randint(1, 15), 32) for _ in range(k)), reverse=True))
        total = sum(deltas, start=F(0))
        if rng.randrange(5):
            lb = total + rng.randint(-1, 4) * lf / 2 + lf * F(rng.randint(-8, 8), 16)
        else:
            lb = lf / 2 * F(rng.randint(1, 32), 32)
        v = BlowupVector(lf, lb, deltas, bundle, rng.randint(1, 3))
        if lb > 0 and check_cone(v):
            count -= 1
            yield v


def test_shape_run_matches_the_staged_search_on_seeded_vectors():
    for v in _seeded_window_vectors(400):
        _assert_matches_the_staged_search(v)


def _past_window_lengths(v):
    """The number of past-window twists that the listing gives each least-a
    shape of the run of ``v``, read off its calls of ``_twist_bounds``."""
    import hamcircle.enumeration as enumeration

    _, _, listing = enumeration._shape_run(v)
    lengths = []

    def recording(low, high, half, parity):
        start, stop = _twist_bounds(low, high, half, parity)
        if low != -1:  # not the window's own twists
            lengths.append(max(0, (stop - start + 1) // 2))
        return start, stop

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumeration, "_twist_bounds", recording)
        listing()
    return lengths


def _seeded_wide_vectors(count):
    """Seeded cone vectors on both bundles, k <= 2, with lambda_b/lambda_f
    from 20 to 60, so most graphs lie past the window."""
    rng = random.Random(26)
    while count:
        bundle = rng.choice([T, NT])
        k = rng.randint(0, 2)
        lf = F(rng.randint(1, 8), rng.randint(1, 4))
        if rng.randrange(2):
            deltas = (lf / 2,) * k
        else:
            deltas = tuple(sorted((lf * F(rng.randint(1, 15), 32) for _ in range(k)), reverse=True))
        v = BlowupVector(lf, lf * F(rng.randint(20 * 16, 60 * 16), 16), deltas, bundle, rng.randint(1, 3))
        if check_cone(v):
            count -= 1
            yield v


def test_long_past_window_listings_match_the_staged_search():
    # the staged-search comparisons above keep lambda_b near the window
    # edge; here past-window twists make almost every graph, and two edge
    # vectors give a shape with one past-window twist and one with none
    edges = [BlowupVector(1, 2, (F(1, 2), F(1, 4)), NT), BlowupVector(1, F(9, 4), (F(1, 2), F(1, 4)), NT)]
    for v in edges:
        assert {0, 1} <= set(_past_window_lengths(v))
    for v in [*_seeded_wide_vectors(40), *edges]:
        _assert_matches_the_staged_search(v)
        graphs, report = enumerate_actions(v)
        lines, json_report = enumerate_json(v)
        assert list(lines) == [canonical_json(g) for g in graphs]
        assert json_report == report


def test_the_shape_run_prunes_before_it_blows_up(monkeypatch):
    # a fat child, from either fat vertex, is kept only when some twist
    # leaves both its areas positive; a kept child costs a blowup_rows call
    # at the next stage, so a weaker prune shows in the count
    import hamcircle.enumeration as enumeration

    calls, rows = [0], enumeration.blowup_rows

    def counted(*args):
        calls[0] += 1
        return rows(*args)

    monkeypatch.setattr(enumeration, "blowup_rows", counted)
    for text, bundle, expected in [
        ("1,1/2;1/4,1/4,1/4", T, 4),
        ("1,1/3;1/3,1/4,1/5,1/6", T, 1),
        ("1,1/2;1/4,1/4,1/4", NT, 1),
        ("1,1/3;1/3,1/4,1/5,1/6", NT, 1),
    ]:
        calls[0] = 0
        count_actions(parse_vector(text, bundle))
        assert calls[0] == expected, text


def test_count_k0_matches_the_initial_graphs():
    for bundle in (T, NT):
        v = BlowupVector(3, 7, bundle=bundle)
        report = count_actions(v)
        graphs, enum_report = enumerate_actions(v)
        assert report.count == len(graphs) == enum_report.count
        assert report.stage_counts == (report.count,)


def test_equal_size_vanishing_threshold():
    # k blowups of size eps with k*eps >= 2*lambda_b leave no action
    for k in (2, 3, 4):
        v = BlowupVector(2, 1, (F(2, k),) * k)
        assert count_actions(v).count == 0


# --- enumeration output ----------------------------------------------------------------


def test_enumerate_single_blowup():
    graphs, report = enumerate_actions(BlowupVector(1, 1, (F(1, 4),)))
    assert report.count == 1
    assert len(graphs) == 1
    assert are_equivalent(graphs[0], graph("3/4", 1, 1, ("1/4",)))


def test_enumerate_nontrivial_hand_example():
    graphs, report = enumerate_actions(BlowupVector(2, 3, (F(1, 2),), NT))
    assert report.count == 2
    expected = [
        graph("7/2", 2, 2, ("1/2",)),
        graph(4, "3/2", 2, ("3/2",)),
    ]
    assert all(any(are_equivalent(g, e) for e in expected) for g in graphs)


def test_enumerate_can_be_empty():
    graphs, report = enumerate_actions(BlowupVector(12, 2, (3, 3)))
    assert graphs == [] and report.count == 0


def test_enumerate_stage2_graphs_match_the_hand_enumeration():
    graphs, _ = enumerate_actions(BlowupVector(1, 1, (F(1, 4), F(1, 16))))
    expected = [STAGE2_A, STAGE2_B, STAGE2_C]
    assert len(graphs) == 3
    for e in expected:
        assert any(are_equivalent(g, e) for g in graphs)


# --- structural properties of runs -------------------------------------------------------


@given(cone_vectors(min_k=1, max_k=3, small=True))
@settings(max_examples=40, deadline=None)
def test_runs_are_deduplicated_and_stages_sized(v):
    graphs, report = enumerate_actions(v)
    for i, a in enumerate(graphs):
        assert sum(len(c.heights) for c in a.chains) == v.k
        for b in graphs[i + 1:]:
            assert not are_equivalent(a, b)
    assert report.count == len(graphs)
    assert len(report.stage_counts) == v.k + 1


@given(cone_vectors(min_k=2, max_k=3, small=True))
@settings(max_examples=30, deadline=None)
def test_count_is_invariant_under_normal_form_moves(v):
    base = count_actions(v).count
    assert count_actions(sort_deltas(v)).count == base
    assert count_actions(cremona_move(v)).count == base


@given(cone_vectors(min_k=1, max_k=3, small=True))
@settings(max_examples=30, deadline=None)
def test_count_is_invariant_under_bundle_swap(v):
    assert count_actions(v).count == count_actions(swap_bundle(v)).count


@given(cone_vectors(min_k=1, max_k=3, small=True))
@settings(max_examples=20, deadline=None)
def test_runs_are_deterministic_and_parallel_safe(v):
    first_graphs, first = enumerate_actions(v)
    second_graphs, second = enumerate_actions(v)
    assert first == second
    assert [canonical_json(g) for g in first_graphs] == [canonical_json(g) for g in second_graphs]


def _naive_count(v):
    """Stage-by-stage enumeration with quadratic oracle dedup, no keyed store."""
    w = cremona_reduce(v).vector if v.k >= 2 and not is_g_reduced(v) else v
    level = initial_graphs(w.lambda_f, w.lambda_b, w.bundle, w.genus)
    for delta in w.deltas:
        kept = []
        for g in level:
            for blown in all_blowups(g, delta):
                if not any(oracle_equivalent(blown, seen) for seen in kept):
                    kept.append(blown)
        level = kept
    return len(level)


@given(cone_vectors(min_k=0, max_k=2, small=True))
@settings(max_examples=40, deadline=None)
def test_pipeline_matches_a_storeless_oracle_enumeration(v):
    graphs, report = enumerate_actions(v)
    assert len(graphs) == _naive_count(v)


def _all_orders_classes(w):
    """The class keys that staged runs from the ruled-surface graphs of ``w``
    reach over every distinct order of its deltas; orders share their prefixes."""
    keys = set()

    def run(store, rest):
        if not rest:
            keys.update(map(class_key, store))
        for delta in set(rest):
            left = list(rest)
            left.remove(delta)
            run(blowup_stage(store, delta), left)

    run(GraphStore(initial_graphs(w.lambda_f, w.lambda_b, w.bundle, w.genus)), w.deltas)
    return keys


# Every action on the blowup comes from a ruled-surface action by equivariant
# blowups of the prescribed sizes in any order (Karshon, Mem. AMS 672), so a
# class reached in any order must already be among the largest-first classes
# of the search.  The moves are shared with the search: this checks the order.
@given(cone_vectors(min_k=2, max_k=4, small=True))
@example(BlowupVector(1, F(3, 2), (F(1, 2), F(1, 3), F(1, 4)), T))  # 2*delta == lambda_f
@example(BlowupVector(2, 3, (1, F(3, 4), F(1, 2), F(1, 4)), NT))
@example(BlowupVector(1, F(5, 4), (F(1, 3), F(1, 3), F(1, 5), F(1, 5)), T))  # equal deltas
@example(BlowupVector(1, F(7, 4), (F(1, 2), F(1, 2), F(1, 4)), NT))
@example(BlowupVector(1, 4, (F(1, 2), F(1, 3), F(1, 4)), T))  # t >= 1 past the onset
@example(BlowupVector(1, 4, (F(1, 2), F(1, 4), F(1, 5)), NT))
@settings(max_examples=40, deadline=None)
def test_every_order_of_the_deltas_reaches_only_the_enumerated_classes(v):
    w = cremona_reduce(v).vector
    enumerated = {class_key(g) for g in enumerate_actions(w)[0]}
    assert _all_orders_classes(w) <= enumerated


def test_counts_do_not_depend_on_the_genus():
    for genus in (1, 2, 5):
        assert count_actions(BlowupVector(1, 1, (F(1, 4), F(1, 16)), T, genus)).count == 3
        assert count_actions(BlowupVector(2, 3, (F(1, 2),), NT, genus)).count == 2


def _twists_past_the_window(report):
    w = report.reduced_vector
    total = sum(w.deltas, start=F(0))
    return sum(n * w.lambda_f / 2 > total for n in report.initial_twists)


@pytest.mark.parametrize("genus", [2, 3, 4])
@pytest.mark.parametrize("lambda_b, past", [(2, 0), (10, 8)])
@pytest.mark.parametrize("bundle", [T, NT])
def test_enumerated_graphs_keep_the_genus(genus, lambda_b, past, bundle):
    # past is the number of twists past the window: with none every graph is
    # listed from the window, with some also from the least-a shapes
    v = BlowupVector(1, lambda_b, (F(1, 2), F(1, 2), F(1, 2)), bundle, genus)
    graphs, report = enumerate_actions(v)
    assert _twists_past_the_window(report) == past
    assert graphs and {g.genus for g in graphs} == {genus}


def test_count_matches_enumerate_on_the_reduction_demo():
    # the two encodings of one manifold enumerate to equivalent graph sets
    left, _ = enumerate_actions(BlowupVector(3, 3, (2, 2)))
    right, _ = enumerate_actions(BlowupVector(3, 2, (1, 1)))
    assert len(left) == len(right)
    for g in left:
        assert any(are_equivalent(g, h) for h in right)


# --- the integer lattice and the output ----------------------------------------------


def _scaled_vector(v, s):
    return BlowupVector(v.lambda_f * s, v.lambda_b * s, tuple(d * s for d in v.deltas), v.bundle, v.genus)


def _assert_scale_covariant(v, s):
    graphs, report = enumerate_actions(v)
    scaled, scaled_report = enumerate_actions(_scaled_vector(v, s))
    assert scaled_report.stage_counts == report.stage_counts
    w = report.reduced_vector
    assert tuple(report.initial_twists) == _seed_twists(w)
    assert scaled_report.initial_twists == report.initial_twists
    assert scaled == [map_values(g, lambda x: x * s) for g in graphs]
    return graphs, report


@given(
    cone_vectors(min_k=0, max_k=4, small=True),
    st.fractions(min_value=F(1, 60), max_value=60, max_denominator=60),
)
@settings(max_examples=40, deadline=None)
def test_enumeration_is_scale_covariant(v, s):
    _assert_scale_covariant(v, s)


@pytest.mark.parametrize("bundle", [T, NT])
@pytest.mark.parametrize("s", [F(1), F(13, 17), F(221, 2)])
def test_scale_covariance_with_coprime_denominators(bundle, s):
    v = parse_vector("1/3,7/2;1/7,1/11,1/13", bundle)
    graphs, report = _assert_scale_covariant(v, s)
    assert report.stage_counts[0] == count_ruled(v.lambda_f, v.lambda_b, bundle)
    assert len(graphs) == report.count <= max_count(v.lambda_f, v.lambda_b, v.k)


def test_coprime_denominators_reach_the_sharp_bound():
    v = parse_vector("1/3,7/2;1/11,1/37,1/101")
    assert max_count_conditions(v)
    graphs, report = _assert_scale_covariant(v, F(5, 7))
    assert len(graphs) == report.count == max_count(v.lambda_f, v.lambda_b, v.k)


@pytest.mark.parametrize(
    "v",
    [
        BlowupVector(3, 3, (2, 2)),
        BlowupVector(1, 1, (F(1, 4), F(1, 16))),
        BlowupVector(F(1, 3), F(7, 2), (F(1, 7), F(1, 11), F(1, 13)), NT),
        BlowupVector(2, 5, bundle=NT),
    ],
)
def test_enumerated_heights_and_areas_are_fractions(v):
    graphs, _ = enumerate_actions(v)
    assert graphs
    assert all(type(x) is F for g in graphs for x in graph_values(g))


def test_stages_refuse_floats():
    with pytest.raises(TypeError):
        initial_graphs(1.0, 2, T, 1)
    with pytest.raises(TypeError):
        initial_graphs(2, 2.5, T, 1)
    with pytest.raises(TypeError):
        blowup_stage(GraphStore(initial_graphs(4, 8, T, 1)), 0.5)


# SHA-256 of the newline-joined canonical JSON that enumerate_actions gives,
# taken while the stages still ran on Fractions: the integer lattice must not
# change one output byte.
GOLDEN = [
    ("1,2;1/4,1/16,1/64,1/256,1/1024", T, 1080, "512ce5b693ab1aac77daebec545c4c796baef6299c773efc406cfe1f33bde675"),
    ("1,5;1/2,1/2,1/2", T, 8, "0180e80d2286ec9858150061dc8ac677bbb401dfacba30a266a0b5f666454589"),
    ("1,5;1/2,1/2,1/2", NT, 8, "d199d441ca63aeac770e471c5004d172c58fc476ea3e60778025bb9632f91018"),
    ("1,2;1/3,1/3,1/6,1/6,1/12,1/12", NT, 402, "2d15bf664d741921d1dc37739ae8ad4917d10156660644cbd6234eaa5f1dd068"),
    ("2,10;1.9,1.9,1.9,1.9", T, 17, "87944f00cc6575c4bbf343809ff2c7637f3646735e0f6432556e31c20b9927ab"),
    # far past the window n*lambda_f/2 <= S, taken while enumerate_actions
    # still ran every twist: with lambda_f 1, then with lambda_f 3/2
    ("1,40;1/2,1/3,1/5", T, 789, "68f36f8b2a90bdd8b87e87e9fca593d14349548149decdd53b5bad302f6d739a"),
    ("1,40;1/2,1/3,1/5", NT, 789, "c54c496b7fb458f4833d744fe76ec468fcf4e05289e6088570f26ed63333f82f"),
    ("3/2,61/4;2/3,1/2,1/5", T, 216, "8f6caf7b79d54b874e3e422ee2914af13987cc5146f4bdafd9367f50b756ead1"),
    ("3/2,61/4;2/3,1/2,1/5", NT, 216, "1abc28c7d6a29d37c74758a4ea44aa1538940d80dfbc2d916d9d4896bb3f61bf"),
]


@pytest.mark.parametrize("text, bundle, count, digest", GOLDEN)
def test_enumeration_output_matches_the_golden_digests(text, bundle, count, digest):
    graphs, _ = enumerate_actions(parse_vector(text, bundle))
    assert len(graphs) == count
    assert hashlib.sha256("\n".join(canonical_json(g) for g in graphs).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "text, past",
    [("1,1;1/4,1/16,1/64,1/256", 0), ("1,40;1/2,1/3,1/5", 38)],
)
def test_enumerate_builds_each_output_graph_once(monkeypatch, text, past):
    # the shape run builds no DecoratedGraph and no Chain; the listing, sort
    # and conversion construct one graph per graph handed out, inside the
    # window and past it
    v = parse_vector(text)
    built = {DecoratedGraph: 0, Chain: 0}
    post_init, new_chain = DecoratedGraph.__post_init__, Chain.__new__

    def counting_graph(self):
        built[DecoratedGraph] += 1
        post_init(self)

    def counting_chain(cls, seq):
        built[Chain] += 1
        return new_chain(cls, seq)

    monkeypatch.setattr(DecoratedGraph, "__post_init__", counting_graph)
    monkeypatch.setattr(Chain, "__new__", counting_chain)
    assert _twists_past_the_window(count_actions(v)) == past
    assert built == {DecoratedGraph: 0, Chain: 0}
    graphs, _ = enumerate_actions(v)
    assert built[DecoratedGraph] == len(graphs) and built[Chain] > 0
