"""Staged enumeration of circle actions by equivariant blowups, with dedup.

An action on the k-fold blowup is reached from an action on the underlying
ruled surface by k blowups of the prescribed sizes, largest first.  The
enumeration therefore seeds a store with the ruled-surface graphs (one per
admissible twist), applies one blowup stage per delta, and deduplicates up to
vertical translation and flip after every stage.  The store is a dict keyed by
``class_key``, so an insertion is one lookup.

Inputs with unsorted or defect-positive deltas are first brought to reduced
form: the count only depends on the symplectomorphism class, and the staged
search is only correct for reduced vectors.

Every height and area the stages produce is an integer combination of
lambda_f/2, lambda_b and the deltas.  A run therefore multiplies the reduced
vector by ``scale = 2 * lcm`` of its denominators, which makes all of them
integers, runs the seeding and every stage on plain ints, and divides by the
scale only when ``enumerate_actions`` hands out the sorted graphs.  A positive
scale preserves every comparison, so the sites tried, the representative each
class keeps and the output order are those of the same run in Fractions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .blowups import all_blowups
from .graphs import Chain, DecoratedGraph, FatVertex, canonical_sort_key, class_key
from .vectors import (
    BlowupVector,
    BundleType,
    as_exact,
    as_q,
    cremona_reduce,
    is_g_reduced,
    require_cone,
)


class GraphStore:
    """Pairwise-inequivalent decorated graphs: the first graph inserted of each class.

    Iteration is in insertion order.
    """

    def __init__(self, graphs: Iterable[DecoratedGraph] = ()):
        self._graphs: dict[tuple, DecoratedGraph] = {}
        for g in graphs:
            self.add_if_new(g)

    def add_if_new(self, graph: DecoratedGraph) -> bool:
        """Insert unless an equivalent graph is already stored; report insertion."""
        before = len(self._graphs)
        self._graphs.setdefault(class_key(graph), graph)
        return len(self._graphs) > before

    def __len__(self) -> int:
        return len(self._graphs)

    def __iter__(self) -> Iterator[DecoratedGraph]:
        return iter(self._graphs.values())

    def __contains__(self, graph: DecoratedGraph) -> bool:
        return class_key(graph) in self._graphs


def initial_twists(lambda_f: Fraction, lambda_b: Fraction, bundle: BundleType) -> list[int]:
    """Admissible twists n for the ruled-surface graphs: even 0 <= n < 2*lambda_b/lambda_f
    on the trivial bundle, odd on the non-trivial one.

    A twist is admissible exactly while the top fat area lambda_b - (n/2)*lambda_f
    stays positive.
    """
    lf, lb = as_q(lambda_f), as_q(lambda_b)
    if lf <= 0 or lb <= 0:
        raise ValueError("lambda_f and lambda_b must be positive")
    return list(range(0 if bundle is BundleType.TRIVIAL else 1, math.ceil(2 * lb / lf), 2))


def initial_graphs(
    lambda_f: int | Fraction, lambda_b: int | Fraction, bundle: BundleType, genus: int
) -> list[DecoratedGraph]:
    """The chainless two-fat-vertex graphs of the ruled surface, one per twist n,
    with fat areas lambda_b +- (n/2)*lambda_f.

    The areas are ints when lambda_f is an even int and lambda_b an int.
    """
    lf, lb = as_exact(lambda_f), as_exact(lambda_b)
    half = lf // 2 if type(lf) is int and lf % 2 == 0 else Fraction(lf, 2)
    return [
        DecoratedGraph(bottom=FatVertex(lb + n * half, genus), top=FatVertex(lb - n * half, genus), height=lf)
        for n in initial_twists(lf, lb, bundle)
    ]


def blowup_stage(store: GraphStore, delta: int | Fraction) -> GraphStore:
    """One stage: every valid blowup of size delta of every stored graph, deduplicated.

    Returns a fresh store; the input is untouched.
    """
    delta = as_exact(delta)
    if delta <= 0:
        raise ValueError("blowup size must be positive")
    result = GraphStore()
    for source in store:
        for graph in all_blowups(source, delta):
            result.add_if_new(graph)
    return result


@dataclass(frozen=True)
class CountReport:
    """Result of a staged enumeration.

    ``stage_counts`` has one entry per stage starting with the initial graph
    count, so its length is k + 1 and the final entry is the action count.
    ``initial_twists`` records which ruled-surface graphs seeded the search.
    """

    input_vector: BlowupVector
    reduced_vector: BlowupVector
    auto_reduced: bool
    initial_twists: tuple[int, ...]
    stage_counts: tuple[int, ...]

    @property
    def count(self) -> int:
        return self.stage_counts[-1]


def _staged_run(v: BlowupVector) -> tuple[GraphStore, CountReport, int]:
    """Seed the store with the ruled-surface graphs, then run one blowup stage per delta.

    The graphs are on the integer lattice: every height and area is the true
    one times the scale, which is returned last.
    """
    require_cone(v)
    reduced, auto = v, False
    if v.k >= 2 and not is_g_reduced(v):
        reduced, auto = cremona_reduce(v).vector, True
    values = (reduced.lambda_f, reduced.lambda_b, *reduced.deltas)
    scale = 2 * math.lcm(*(q.denominator for q in values))
    lf, lb, *deltas = (q.numerator * (scale // q.denominator) for q in values)
    store = GraphStore(initial_graphs(lf, lb, reduced.bundle, reduced.genus))
    # Seeds of distinct twists are never equivalent, so the store holds every
    # seed in twist order; the fat areas of the seed of twist n differ by n * lambda_f.
    twists = tuple((g.bottom.area - g.top.area) // lf for g in store)
    counts = [len(store)]
    for delta in deltas:
        store = blowup_stage(store, delta)
        counts.append(len(store))
    return store, CountReport(v, reduced, auto, twists, tuple(counts)), scale


def count_actions(v: BlowupVector) -> CountReport:
    """Count the circle actions compatible with the blowup form encoded by ``v``.

    Rejects vectors outside the cone.  Non-reduced input (k >= 2) is reduced
    first and flagged; the count is an invariant of the symplectomorphism
    class, so this does not change the answer.
    """
    return _staged_run(v)[1]


def enumerate_actions(v: BlowupVector) -> tuple[list[DecoratedGraph], CountReport]:
    """Like ``count_actions`` but returning the graphs, in Fractions and in canonical order."""
    store, report, scale = _staged_run(v)
    graphs = sorted(store, key=canonical_sort_key)
    del store
    # Back from the lattice: each value, fat vertex and chain is converted once
    # and shared by every graph that holds it.
    fraction = functools.cache(lambda x: Fraction(x, scale))
    fat = functools.cache(lambda f: FatVertex(fraction(f.area), f.genus))
    chain = functools.cache(lambda c: Chain(tuple(x if i % 2 else fraction(x) for i, x in enumerate(c.seq))))
    # each lattice graph is freed as soon as its Fraction copy replaces it
    for i, g in enumerate(graphs):
        graphs[i] = DecoratedGraph(fat(g.bottom), fat(g.top), fraction(g.height), tuple(map(chain, g.chains)))
    return graphs, report
