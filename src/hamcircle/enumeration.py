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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .blowups import all_blowups
from .formulas import count_ruled
from .graphs import DecoratedGraph, FatVertex, canonical_sort_key, class_key
from .vectors import (
    BlowupVector,
    BundleType,
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
    twists = []
    n = 0 if bundle is BundleType.TRIVIAL else 1
    while lb - Fraction(n, 2) * lf > 0:
        twists.append(n)
        n += 2
    return twists


def initial_graphs(
    lambda_f: Fraction, lambda_b: Fraction, bundle: BundleType, genus: int
) -> list[DecoratedGraph]:
    """The chainless two-fat-vertex graphs of the ruled surface, one per twist."""
    lf, lb = as_q(lambda_f), as_q(lambda_b)
    return [
        DecoratedGraph(
            bottom=FatVertex(lb + Fraction(n, 2) * lf, genus),
            top=FatVertex(lb - Fraction(n, 2) * lf, genus),
            height=lf,
        )
        for n in initial_twists(lf, lb, bundle)
    ]


def blowup_stage(store: GraphStore, delta: Fraction) -> GraphStore:
    """One stage: every valid blowup of size delta of every stored graph, deduplicated.

    Returns a fresh store; the input is untouched.
    """
    delta = as_q(delta)
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


def _prepare(v: BlowupVector) -> tuple[BlowupVector, bool]:
    require_cone(v)
    if v.k >= 2 and not is_g_reduced(v):
        return cremona_reduce(v).vector, True
    return v, False


def count_actions(v: BlowupVector) -> CountReport:
    """Count the circle actions compatible with the blowup form encoded by ``v``.

    Rejects vectors outside the cone.  Non-reduced input (k >= 2) is reduced
    first and flagged; the count is an invariant of the symplectomorphism
    class, so this does not change the answer.  For k = 0 the closed ruled
    count is returned directly, without building graphs.
    """
    reduced, auto = _prepare(v)
    twists = tuple(initial_twists(reduced.lambda_f, reduced.lambda_b, reduced.bundle))
    if reduced.k == 0:
        ruled = count_ruled(reduced.lambda_f, reduced.lambda_b, reduced.bundle)
        return CountReport(v, reduced, auto, twists, (ruled,))
    store = GraphStore(initial_graphs(reduced.lambda_f, reduced.lambda_b, reduced.bundle, reduced.genus))
    counts = [len(store)]
    for delta in reduced.deltas:
        store = blowup_stage(store, delta)
        counts.append(len(store))
    return CountReport(v, reduced, auto, twists, tuple(counts))


def enumerate_actions(v: BlowupVector) -> tuple[list[DecoratedGraph], CountReport]:
    """Like ``count_actions`` but returning the graphs in canonical order.

    For k = 0 the ruled-surface graphs themselves are materialized.
    """
    reduced, auto = _prepare(v)
    twists = tuple(initial_twists(reduced.lambda_f, reduced.lambda_b, reduced.bundle))
    store = GraphStore(initial_graphs(reduced.lambda_f, reduced.lambda_b, reduced.bundle, reduced.genus))
    counts = [len(store)]
    for delta in reduced.deltas:
        store = blowup_stage(store, delta)
        counts.append(len(store))
    graphs = sorted(store, key=canonical_sort_key)
    return graphs, CountReport(v, reduced, auto, twists, tuple(counts))
