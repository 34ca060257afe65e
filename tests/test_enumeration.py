"""The staged enumeration: seeding, stages, dedup, and count invariances."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import cone_vectors, oracle_equivalent
from hamcircle import (
    BlowupVector,
    BundleType,
    Chain,
    DecoratedGraph,
    FatVertex,
    GraphStore,
    NotBlowupFormError,
    all_blowups,
    are_equivalent,
    blowup_stage,
    canonical_json,
    count_actions,
    cremona_move,
    cremona_reduce,
    enumerate_actions,
    flip,
    initial_graphs,
    initial_twists,
    is_g_reduced,
    sort_deltas,
    swap_bundle,
)

T, NT = BundleType.TRIVIAL, BundleType.NONTRIVIAL


def graph(bottom, top, height, *chains, genus=1):
    return DecoratedGraph(
        FatVertex(F(bottom), genus),
        FatVertex(F(top), genus),
        F(height),
        tuple(Chain(tuple(F(h) for h in hs), tuple(labels)) for hs, labels in chains),
    )


STAGE2_A = graph("11/16", 1, 1, (("1/4",), ()), (("1/16",), ()))
STAGE2_B = graph("3/4", "15/16", 1, (("1/4",), ()), (("15/16",), ()))
STAGE2_C = graph("3/4", 1, 1, (("3/16", "5/16"), (2,)))


# --- the store -----------------------------------------------------------------


def test_add_if_new_rejects_duplicates():
    store = GraphStore()
    g = graph("3/4", 1, 1, (("1/4",), ()))
    assert store.add_if_new(g)
    assert not store.add_if_new(g)
    assert not store.add_if_new(graph("3/4", 1, 1, (("1/4",), ())))
    assert len(store) == 1


def test_add_if_new_rejects_the_flip():
    store = GraphStore()
    g = graph("3/4", 1, 1, (("1/4",), ()))
    assert store.add_if_new(g)
    assert not store.add_if_new(flip(g))
    assert flip(g) in store


def test_add_if_new_keeps_inequivalent_graphs():
    store = GraphStore()
    assert store.add_if_new(STAGE2_A)
    assert store.add_if_new(STAGE2_B)
    assert store.add_if_new(STAGE2_C)
    assert len(store) == 3


# --- initial graphs --------------------------------------------------------------


def test_initial_graphs_trivial():
    gs = initial_graphs(3, 7, T, genus=2)
    assert [(g.bottom.area, g.top.area) for g in gs] == [(7, 7), (10, 4), (13, 1)]
    assert all(g.height == 3 and not g.chains and g.bottom.genus == 2 for g in gs)


def test_initial_graphs_nontrivial():
    gs = initial_graphs(2, 3, NT, genus=1)
    assert [(g.bottom.area, g.top.area) for g in gs] == [(4, 2)]


def test_initial_graphs_square():
    gs = initial_graphs(3, 3, T, genus=1)
    assert [(g.bottom.area, g.top.area) for g in gs] == [(3, 3)]


def test_initial_twists_parity():
    assert initial_twists(3, 7, T) == [0, 2, 4]
    assert initial_twists(2, 3, NT) == [1]
    assert initial_twists(2, F(1, 2), NT) == []  # base too small for the odd twist


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
    assert initial_twists(lf, lb, bundle) == expected


def test_initial_graphs_need_positive_parameters():
    with pytest.raises(ValueError):
        initial_graphs(0, 1, T, 1)
    with pytest.raises(ValueError):
        initial_graphs(1, -2, T, 1)


# --- stages ------------------------------------------------------------------------


def test_stage_collapses_flip_equivalent_results():
    store = GraphStore(initial_graphs(1, 1, T, 1))
    stage1 = blowup_stage(store, F(1, 4))
    assert len(stage1) == 1
    stage2 = blowup_stage(stage1, F(1, 16))
    assert len(stage2) == 3
    assert len(store) == 1  # input store untouched


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
    assert report.initial_twists == (0,)
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
    assert are_equivalent(graphs[0], graph("3/4", 1, 1, (("1/4",), ())))


def test_enumerate_nontrivial_hand_example():
    graphs, report = enumerate_actions(BlowupVector(2, 3, (F(1, 2),), NT))
    assert report.count == 2
    expected = [
        graph("7/2", 2, 2, (("1/2",), ())),
        graph(4, "3/2", 2, (("3/2",), ())),
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


def test_counts_do_not_depend_on_the_genus():
    for genus in (1, 2, 5):
        assert count_actions(BlowupVector(1, 1, (F(1, 4), F(1, 16)), T, genus)).count == 3
        assert count_actions(BlowupVector(2, 3, (F(1, 2),), NT, genus)).count == 2


def test_count_matches_enumerate_on_the_reduction_demo():
    # the two encodings of one manifold enumerate to equivalent graph sets
    left, _ = enumerate_actions(BlowupVector(3, 3, (2, 2)))
    right, _ = enumerate_actions(BlowupVector(3, 2, (1, 1)))
    assert len(left) == len(right)
    for g in left:
        assert any(are_equivalent(g, h) for h in right)
