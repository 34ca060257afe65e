"""The staged enumeration: seeding, stages, dedup, and count invariances."""

import hashlib
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
from hamcircle.cli import parse_vector
from hamcircle.formulas import count_ruled, max_count, max_count_conditions

T, NT = BundleType.TRIVIAL, BundleType.NONTRIVIAL


def graph(bottom, top, height, *chains, genus=1):
    return DecoratedGraph(
        FatVertex(F(bottom), genus),
        FatVertex(F(top), genus),
        F(height),
        tuple(map(Chain, chains)),
    )


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


# --- the integer lattice and the output ----------------------------------------------


def _scaled_vector(v, s):
    return BlowupVector(v.lambda_f * s, v.lambda_b * s, tuple(d * s for d in v.deltas), v.bundle, v.genus)


def _assert_scale_covariant(v, s):
    graphs, report = enumerate_actions(v)
    scaled, scaled_report = enumerate_actions(_scaled_vector(v, s))
    assert scaled_report.stage_counts == report.stage_counts
    w = report.reduced_vector
    assert report.initial_twists == tuple(initial_twists(w.lambda_f, w.lambda_b, w.bundle))
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
]


@pytest.mark.parametrize("text, bundle, count, digest", GOLDEN)
def test_enumeration_output_matches_the_golden_digests(text, bundle, count, digest):
    graphs, _ = enumerate_actions(parse_vector(text, bundle))
    assert len(graphs) == count
    assert hashlib.sha256("\n".join(canonical_json(g) for g in graphs).encode()).hexdigest() == digest
