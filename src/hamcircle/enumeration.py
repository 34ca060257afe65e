"""Staged enumeration of circle actions by equivariant blowups, with dedup.

An action on the k-fold blowup is reached from an action on the underlying
ruled surface by k blowups of the prescribed sizes, largest first.  The
enumeration therefore seeds a store with the ruled-surface graphs (one per
admissible twist), applies one blowup stage per delta, and deduplicates up to
vertical translation and flip after every stage.  The store is a dict keyed by
``class_key``, so an insertion is one lookup.

Inputs with unsorted or defect-positive deltas are first brought to reduced
form: the count only depends on the symplectomorphism class, and the staged
search is only correct for reduced vectors.  ``count_actions`` takes any
lambda_b.  ``MAX_GRAPHS`` bounds the graphs that a call hands out, before it
builds one, and through ``initial_graphs`` the search's seeds, about
2*(S/lambda_f + 2) twists (below), even in a count; nothing bounds the stages.

Every height and area the stages produce is an integer combination of
lambda_f/2, lambda_b and the deltas.  A run therefore multiplies the reduced
vector by ``scale = 2 * lcm`` of its denominators, which makes all of them
integers, runs the seeding and every stage on plain ints, and divides by the
scale only when ``enumerate_actions`` hands out the sorted graphs.  A positive
scale preserves every comparison, so the sites tried, the representative each
class keeps and the output order are those of the same run in Fractions.

``count_actions`` does not build every twist: past the onset
lambda_b - lambda_f > S, where S is the sum of the deltas of the reduced
vector, each stage count is affine in lambda_b.  Write L for lambda_b and
N(L) for the number of stage-j graphs at L with top area at most lambda_f.

- A fat blowup needs delta below the fat area and below the height
  lambda_f; an interior blowup never looks at the fat areas.  Areas only
  shrink, so a sequence of moves is valid from the twist-n seed exactly when
  its interior sites are valid and both final fat areas are positive.  The
  twist n enters only there: a stage-j graph is (L + n*lambda_f/2 - a,
  L - n*lambda_f/2 - b, chains) for one twist-free set of shapes
  (a, b, chains) with a + b <= S.  The seed of twist -n is the flip of the
  seed of twist n and blowups commute with the flip, so the stage-j count is
  the number of flip classes of these graphs over every twist n of the
  bundle's parity.
- Adding lambda_f to both fat areas maps the stage-j graphs at L injectively
  into those at L + lambda_f, and commutes with the flip.  Its image is the
  graphs whose fat areas both exceed lambda_f, so raising L by lambda_f adds
  exactly the classes with a fat area in (0, lambda_f].  Past the onset the
  two areas sum to 2L + 2*lambda_f - a - b > 2*lambda_f, so exactly one
  member of each new class has top area at most lambda_f: the count grows by
  N(L + lambda_f).
- Equal graphs share their top area, so the store counts a new class by its
  top area exactly when it keeps that member.  It keeps it when
  L - lambda_f > S: the other member has bottom area
  L + n*lambda_f/2 - a <= lambda_f with n >= 0, which needs L - lambda_f <= S.
- The shift n -> n+2 adds 2*lambda_f to the bottom area and keeps the top,
  so it maps the graphs counted by N(L) injectively into those counted by
  N(L + lambda_f).  It is onto when 2L > S + lambda_f, so past the onset:
  the preimage of such a graph at L + lambda_f has bottom area
  2L - a - b - top >= 2L - S - lambda_f > 0.

So when L - (t+1)*lambda_f > S, every stage count at L is the one of the run
with lambda_b lowered to L - t*lambda_f, plus t times the number of its
stored graphs with top area at most lambda_f.  Both ``count_actions`` and
``enumerate_actions`` run the stages with the largest such t >= 0, so a run
builds about 2*(S/lambda_f + 2) twists whatever lambda_b is.

``enumerate_actions`` lifts the lowered store back to L.  A stored graph with
fat areas (bottom, top) gives the graph with fat areas
(bottom + (t+s)*lambda_f, top + (t-s)*lambda_f) and the same chains for
s = 0, and for every s = 1..t as well when top <= lambda_f: the shift of
both areas for s = 0, the shift n -> n+2s followed by t-s shifts of both for
the rest.  These are the graphs that the run at L keeps, one per class,
because the store keeps the same member of each class at every step
L -> L + lambda_f past the onset:

- Every graph that any stage generates has bottom area
  L + n*lambda_f/2 - a >= L - S > lambda_f, as n >= 0.  So of a class with a
  fat area at most lambda_f only the member with top area at most lambda_f
  is ever generated, and the store keeps that member.
- Blowups only shrink areas, so a source with a fat area at most lambda_f
  has only such children, and a move that is invalid at L and valid at
  L + lambda_f lands there too.
- So the classes whose fat areas both exceed lambda_f come only from the
  shifted sources, in the same insertion order, and the store at
  L + lambda_f keeps the shift of the member that it kept at L.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .blowups import all_blowups
from .graphs import Chain, DecoratedGraph, class_key, sort_key_of
from .vectors import BlowupVector, BundleType, as_exact, as_q, cremona_reduce

# Most graphs that one call hands out: an ``enumerate`` of 10**6 graphs takes about
# 0.31 GB of memory and 20 s (measured with Python 3.11 on one Xeon core).
MAX_GRAPHS = 10**6


class TooManyGraphsError(ValueError):
    """A call would hand out more than ``MAX_GRAPHS`` graphs."""


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


def initial_twists(lambda_f: Fraction, lambda_b: Fraction, bundle: BundleType) -> range:
    """The range of admissible twists n for the ruled-surface graphs: even
    0 <= n < 2*lambda_b/lambda_f on the trivial bundle, odd on the non-trivial one.

    A twist is admissible exactly while the top fat area lambda_b - (n/2)*lambda_f
    stays positive.  Count them as ``(stop - start + 1) // 2``; ``len`` overflows past sys.maxsize.
    """
    lf, lb = as_q(lambda_f), as_q(lambda_b)
    if lf <= 0 or lb <= 0:
        raise ValueError("lambda_f and lambda_b must be positive")
    return range(0 if bundle is BundleType.TRIVIAL else 1, math.ceil(2 * lb / lf), 2)


def initial_graphs(
    lambda_f: int | Fraction, lambda_b: int | Fraction, bundle: BundleType, genus: int
) -> list[DecoratedGraph]:
    """The chainless two-fat-vertex graphs of the ruled surface, one per twist n,
    with fat areas lambda_b +- (n/2)*lambda_f.

    The areas are ints when lambda_f is an even int and lambda_b an int.
    """
    lf, lb = as_exact(lambda_f), as_exact(lambda_b)
    twists = initial_twists(lf, lb, bundle)
    if twists[MAX_GRAPHS:]:
        raise TooManyGraphsError(f"{(twists.stop - twists.start + 1) // 2} graphs exceed the limit of {MAX_GRAPHS}")
    half = lf // 2 if type(lf) is int and lf % 2 == 0 else Fraction(lf, 2)
    return [DecoratedGraph(lb + n * half, lb - n * half, lf, genus) for n in twists]


def blowup_stage(store: GraphStore, delta: int | Fraction) -> GraphStore:
    """One stage: every valid blowup of size delta of every stored graph, deduplicated.

    Returns a fresh store; the input is untouched.
    """
    delta = as_exact(delta)
    if delta <= 0:
        raise ValueError("blowup size must be positive")
    return GraphStore(child for source in store for child in all_blowups(source, delta))


@dataclass(frozen=True)
class CountReport:
    """Result of a staged enumeration.

    ``stage_counts`` has one entry per stage starting with the initial graph
    count, so its length is k + 1 and the final entry is the action count.
    ``initial_twists`` is the range of twists of the reduced ruled surface; a
    run past the onset seeds only those of its lowered lambda_b.
    """

    input_vector: BlowupVector
    reduced_vector: BlowupVector
    initial_twists: range
    stage_counts: tuple[int, ...]

    @property
    def auto_reduced(self) -> bool:
        return self.reduced_vector != self.input_vector

    @property
    def count(self) -> int:
        return self.stage_counts[-1]


def _staged_run(v: BlowupVector) -> tuple[GraphStore, CountReport, int, int, int]:
    """Seed the store with the ruled-surface graphs, then run one blowup stage per delta.

    The stores hold the run with lambda_b lowered by the most whole fibers t
    that keep it past the onset, and the stage counts are carried back to the
    true lambda_b as the module docstring shows.  The graphs are on the
    integer lattice: every height and area is the true one times the scale.
    Returns the last store, the report, t, the lattice lambda_f and the scale.
    """
    reduced = cremona_reduce(v).vector
    twists = initial_twists(reduced.lambda_f, reduced.lambda_b, reduced.bundle)
    values = (reduced.lambda_f, reduced.lambda_b, *reduced.deltas)
    scale = 2 * math.lcm(*(q.denominator for q in values))
    lf, lb, *deltas = (q.numerator * (scale // q.denominator) for q in values)
    # the largest t >= 0 with lb - (t+1)*lf > sum(deltas)
    t = max(0, (lb - sum(deltas) - 1) // lf - 1)
    store = GraphStore(initial_graphs(lf, lb - t * lf, reduced.bundle, reduced.genus))

    def count(stage: GraphStore) -> int:
        # each of the t fibers adds one class per stored graph with top area <= lf
        return len(stage) + (t and t * sum(g.top_area <= lf for g in stage))

    counts = [count(store)]
    for delta in deltas:
        store = blowup_stage(store, delta)
        counts.append(count(store))
    return store, CountReport(v, reduced, twists, tuple(counts)), t, lf, scale


def count_actions(v: BlowupVector) -> CountReport:
    """Count the circle actions compatible with the blowup form encoded by ``v``.

    Rejects vectors outside the cone.  Non-reduced input is reduced first and
    flagged; the count is an invariant of the symplectomorphism class, so this
    does not change the answer.  Past the onset the stages run on a lowered
    lambda_b and the counts are extrapolated exactly, so the cost depends on k
    and sum(deltas)/lambda_f, not on lambda_b/lambda_f, and any lambda_b is
    taken.  It raises ``TooManyGraphsError`` when the lowered run needs more
    than ``MAX_GRAPHS`` seeds, whatever the count.
    """
    return _staged_run(v)[1]


def enumerate_actions(v: BlowupVector) -> tuple[list[DecoratedGraph], CountReport]:
    """Like ``count_actions`` but returning the graphs, in Fractions and in canonical order.

    The same run as ``count_actions``; only the lift of its store back to the
    true lambda_b, and the output, grow with lambda_b/lambda_f.  The lift and
    the sort work on the lattice fields (bottom area, top area, chains) of
    each graph, since all of them share the height lambda_f and the genus, so
    each output graph is built exactly once, already in Fractions.  Past
    ``MAX_GRAPHS`` graphs it raises ``TooManyGraphsError``, before the lift.
    """
    store, report, t, lf, scale = _staged_run(v)
    if report.count > MAX_GRAPHS:
        raise TooManyGraphsError(f"{report.count} graphs exceed the limit of {MAX_GRAPHS}")
    # the lift of the module docstring, on the lattice; s = 0 alone when t = 0
    rows = [
        (g.bottom_area + (t + s) * lf, g.top_area + (t - s) * lf, g.chains)
        for g in store
        for s in range(t + 1 if g.top_area <= lf else 1)
    ]
    del store
    rows.sort(key=lambda row: sort_key_of(lf, *row))
    # Back from the lattice: each value and chain is converted once and shared
    # by every graph that holds it.
    fraction = functools.cache(lambda x: Fraction(x, scale))
    chain = functools.cache(lambda c: Chain([x if i % 2 else fraction(x) for i, x in enumerate(c)]))
    height, genus = fraction(lf), report.reduced_vector.genus
    # each row is freed as soon as its graph replaces it
    for i, (bottom, top, chains) in enumerate(rows):
        rows[i] = DecoratedGraph(fraction(bottom), fraction(top), height, genus, tuple(map(chain, chains)))
    return rows, report
