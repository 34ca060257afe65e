"""Acceptance suite: one test per release criterion, tolerances pinned.

Every test prints one pass/fail line (visible with ``pytest -s`` or on
failure) and asserts its stated runtime bound.  Randomized criteria use
seeded generators so the sample counts are exact and the runs reproducible.
"""

import math
import random
import time
from fractions import Fraction as F

from conftest import (
    brute_force_min_classes,
    oracle_equivalent,
    random_cone_vector,
    random_graph_pair,
)
from hamcircle import (
    BlowupVector,
    BundleType,
    check_cone,
    count_actions,
    count_equal_sizes,
    count_ruled,
    cremona,
    cremona_reduce,
    emin,
    enumerate_actions,
    gromov_width,
    is_g_reduced,
    max_count,
    packing_number,
    sort_deltas,
    swap_bundle,
    volume,
)
from hamcircle.graphs import are_equivalent

T, NT = BundleType.TRIVIAL, BundleType.NONTRIVIAL


class criterion:
    """Prints ``criterion N [name]: PASS/FAIL`` when the block finishes."""

    def __init__(self, number: int, name: str):
        self.number = number
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        state = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:2d} [{self.name}]: {state}")
        return False


def test_criterion_1_cremona_demo():
    with criterion(1, "cremona demo"):
        start = BlowupVector(3, 3, (2, 2))
        result = cremona_reduce(start)  # warm-up, also checked below
        elapsed = min(_timed(lambda: cremona_reduce(start)) for _ in range(5))
        assert result.vector == BlowupVector(3, 2, (1, 1))
        assert result.iterations == 1
        assert elapsed < 0.001


def _timed(thunk):
    t0 = time.perf_counter()
    thunk()
    return time.perf_counter() - t0


def test_criterion_2_zero_action_pair():
    with criterion(2, "zero/one action examples"):
        t0 = time.perf_counter()
        assert count_actions(BlowupVector(12, 2, (3, 3))).count == 0
        assert count_actions(BlowupVector(10, 2, (1, 1))).count == 1
        assert time.perf_counter() - t0 < 1.0


def test_criterion_3_equal_size_vanishing():
    with criterion(3, "equal-size vanishing"):
        t0 = time.perf_counter()
        for k in range(2, 7):
            v = BlowupVector(2, 1, (F(2, k),) * k)
            assert check_cone(v).in_cone
            assert count_actions(v).count == 0
        assert time.perf_counter() - t0 < 10.0


def test_criterion_4_factorial_sharpness():
    with criterion(4, "factorial sharpness"):
        t0 = time.perf_counter()
        for lb in (1, 2, 3):
            for k in (1, 2, 3, 4):
                v = BlowupVector(1, lb, tuple(F(1, 4**i) for i in range(1, k + 1)))
                expected = max_count(1, lb, k)
                assert expected == (lb - F(1, 2)) * math.factorial(k + 1)
                assert count_actions(v).count == len(enumerate_actions(v)[0]) == expected
        assert time.perf_counter() - t0 < 120.0


def test_criterion_5_closed_form_oracle():
    with criterion(5, "equal-size closed form vs enumerator"):
        t0 = time.perf_counter()
        rng = random.Random(50331)
        for _ in range(200):
            k = rng.randint(1, 5)
            lf = F(rng.randint(1, 8), rng.randint(1, 4))
            eps = lf * F(rng.randint(1, 16), 16) / 2  # 2*eps <= lambda_f
            floor = k * eps * eps / (2 * lf)
            lb = floor + lf * F(rng.randint(1, 16), 8)
            bundle = rng.choice([T, NT])
            v = BlowupVector(lf, lb, (eps,) * k, bundle)
            assert check_cone(v).in_cone
            formula = count_equal_sizes(lf, lb, eps, k, bundle)
            assert formula == count_actions(v).count == len(enumerate_actions(v)[0])
        assert time.perf_counter() - t0 < 300.0


def test_criterion_6_ruled_counts():
    with criterion(6, "ruled-surface counts"):
        pairs = [(F(a, 2), F(b, 3)) for a in range(1, 11) for b in range(1, 11)]
        assert len(pairs) == 100
        for lf, lb in pairs:
            assert count_ruled(lf, lb, T) == math.ceil(lb / lf)
            assert count_ruled(lf, lb, NT) == max(0, math.ceil((lb - lf / 2) / lf))
            for bundle in (T, NT):
                v = BlowupVector(lf, lb, bundle=bundle)
                graphs, _ = enumerate_actions(v)
                assert count_ruled(lf, lb, bundle) == len(graphs) == count_actions(v).count


def test_criterion_7_bundle_duality():
    with criterion(7, "bundle duality"):
        hand = BlowupVector(2, 3, (F(1, 2),), NT)
        partner = swap_bundle(hand)
        assert partner == BlowupVector(2, F(7, 2), (F(3, 2),), T)
        assert count_actions(hand).count == count_actions(partner).count == 2
        rng = random.Random(70707)
        for _ in range(100):
            v = random_cone_vector(rng, k=rng.randint(1, 3), bundle=rng.choice([T, NT]))
            assert count_actions(v).count == count_actions(swap_bundle(v)).count


def test_criterion_8_normal_form_properties():
    with criterion(8, "normal form properties"):
        rng = random.Random(88888)
        for _ in range(500):
            v = random_cone_vector(rng, k=rng.randint(2, 8), pad_fibers=3)
            result = cremona_reduce(v)
            out = result.vector
            assert is_g_reduced(out)
            assert out.lambda_f == v.lambda_f
            assert volume(out) == volume(v)
            assert check_cone(out).in_cone
            assert cremona_reduce(out).iterations == 0
            assert cremona(cremona(v)) == v
            seed = set(v.deltas) | {v.lambda_f - d for d in v.deltas}
            assert all(d in seed for step in result.steps for d in step.deltas)


def test_criterion_9_reduction_uniqueness():
    with criterion(9, "reduced form independent of generating moves"):
        rng = random.Random(99999)
        for _ in range(200):
            v = random_cone_vector(rng, k=rng.randint(2, 8), pad_fibers=3)
            reduced = cremona_reduce(v).vector
            assert cremona_reduce(sort_deltas(v)).vector == reduced
            crossed = cremona(v)
            if check_cone(crossed).in_cone:
                assert cremona_reduce(crossed).vector == reduced


EMIN_WITNESSES = [
    (BlowupVector(2, 1, (F(1, 2),)), "k1_case1"),
    (BlowupVector(2, 1, (F(3, 2),)), "k1_case2"),
    (BlowupVector(2, 1, (1,)), "k1_case3"),
    (BlowupVector(6, 1, (2, 1)), "case1a"),
    (BlowupVector(2, 2, (1, 1)), "case1b"),
    (BlowupVector(4, 2, (3, F(1, 2))), "case2a"),
    (BlowupVector(4, 2, (3, 1)), "case2b"),
]


def test_criterion_10_emin_classification():
    with criterion(10, "minimal exceptional classes"):
        for vector, label in EMIN_WITNESSES:
            result = emin(vector)
            assert result.case.value == label
            got = {("F-E" if c.fiber_complement else "E", c.index) for c in result.classes}
            assert got == brute_force_min_classes(vector)
        half = emin(BlowupVector(2, 1, (1,)))
        assert {str(c) for c in half.classes} == {"E1", "F-E1"}
        rng = random.Random(101010)
        for _ in range(500):
            v = random_cone_vector(rng, k=rng.randint(1, 8), pad_fibers=3)
            v = cremona_reduce(v).vector
            result = emin(v)
            got = {("F-E" if c.fiber_complement else "E", c.index) for c in result.classes}
            assert got == brute_force_min_classes(v)


def test_criterion_11_invariant_formulas():
    with criterion(11, "packing and width on the ruled square"):
        square = BlowupVector(1, 1)
        assert packing_number(square) == 2
        width = gromov_width(square)
        assert width.width_squared == 1
        assert width.capped_by_fiber


def test_criterion_12_equivalence_oracle():
    with criterion(12, "graph equivalence vs bijection oracle"):
        rng = random.Random(121212)
        equivalent = 0
        for _ in range(1000):
            g1, g2 = random_graph_pair(rng)
            verdict = are_equivalent(g1, g2)
            assert verdict == oracle_equivalent(g1, g2)
            equivalent += verdict
        # the generator must actually exercise both outcomes
        assert 0 < equivalent < 1000
