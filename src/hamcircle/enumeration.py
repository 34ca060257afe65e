"""Circle actions on a blowup, counted and listed from one run over twist-free shapes.

An action on the k-fold blowup comes from an action on the underlying ruled
surface by k equivariant blowups of the prescribed sizes, largest first.
``GraphStore``, ``initial_graphs`` and ``blowup_stage`` are that staged
search, kept here, and not exported from the package, as the reference that
the tests compare the run against: seed the ruled-surface graph of every
twist n >= 0, with fat areas L +- n*lambda_f/2 (L = lambda_b, n of the
bundle's parity p), apply one blowup stage per delta, and keep the first
graph inserted of each class up to the flip.  ``count_actions`` and
``enumerate_actions`` give its stage counts and its graphs without seeding a
twist.  Input is brought to reduced form first: the count depends only on
the symplectomorphism class, and the staged search is only correct for
reduced vectors.

Shapes.  A fat blowup needs delta below the fat area and the height
lambda_f, an interior one never looks at the fat areas, and areas only
shrink.  So a stage-j graph of twist n is (L + n*lambda_f/2 - a,
L - n*lambda_f/2 - b, chains) for a twist-free shape (a, b, chains), a
stage-j graph of (A, A, lambda_f) with A = S + lambda_f, S the sum of the
deltas, where every fat site is open; it is valid exactly when both areas
are positive.  A shape is dropped, for good, once no twist n satisfies
a - L < n*lambda_f/2 < L - b.

Count.  The graphs X of the shapes over every twist of parity p, of either
sign, are flip-closed (twist n and shape (a, b, chains) flip to twist -n and
the flipped shape), and the staged search keeps one graph per flip class.
So by Burnside's lemma a stage count is (|X| + |Fix|) / 2, with the twists
counted by arithmetic on their bounds and each distinct word flipped once:

- shapes with equal (chains, a + b, a mod lambda_f) give the same graphs, a
  shift of a by lambda_f being one of n by 2, and add the twists of one of
  them; other shapes give other graphs;
- a group (chains, a + b) whose chains are their flip adds 1 to |Fix| when a
  shape of it has a - b = n*lambda_f for a twist n, that is
  a - b = p*lambda_f mod 2*lambda_f; as a + b < 2L, its areas are positive.

List.  With the twists seeded in increasing order and the sites tried in
``blowup_rows`` site order, the staged search keeps each class at its
lexicographically least node (n, path), since blowups commute with the
flip; the shapes, deduplicated in that order, come in the order of their
least paths.  So each class is listed at its least (n, shape position):

- a graph of twist n is the flip of one of a twist n' >= 0 only if
  (n + n')*lambda_f/2 = a - b' <= S, so up to n*lambda_f/2 <= S the graphs
  are listed in (n, position) order, one per class;
- past that window the same graph comes at a smaller twist only from a
  shape of its class with a smaller a, so each class's least-a shape lists
  every twist past it.

Every height and area is an integer combination of lambda_f/2, lambda_b and
the deltas, so the run multiplies the reduced vector by ``scale = 2 * lcm``
of its denominators, works on plain ints, and divides by the scale only for
output; a positive scale preserves every comparison.  It blows up the rows
(A - a, A - b, chains), chains as plain words, with ``blowup_rows`` and
builds no ``DecoratedGraph`` or ``Chain`` before the listing.  The listing
is the sorted lattice rows, those of a least-a shape past the window drawn
from two integer ranges of areas; ``enumerate_actions`` builds a graph from
each, and ``enumerate_json`` spells each as its ``canonical_json`` line.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Callable, Iterable, Iterator

from .blowups import all_blowups, blowup_rows
from .graphs import GRAPH_LINE, Chain, DecoratedGraph, class_key, flipped_word, word_json
from .vectors import BlowupVector, BundleType, as_q, cremona_reduce

# Most graphs that one call hands out: at 10**6 graphs ``enumerate_actions`` takes
# about 0.30 GB of memory and 6.6-7.0 s, and the JSON of ``enumerate_json`` about
# 0.23 GB and 2.5-2.9 s (measured with Python 3.11.7 on one Xeon core, three runs
# each).  A count hands out none, so nothing bounds it.
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


def initial_graphs(
    lambda_f: int | Fraction, lambda_b: int | Fraction, bundle: BundleType, genus: int
) -> list[DecoratedGraph]:
    """The chainless two-fat-vertex graphs of the ruled surface, one per twist n,
    with fat areas lambda_b +- (n/2)*lambda_f."""
    lf, lb = as_q(lambda_f), as_q(lambda_b)
    if lf <= 0 or lb <= 0:
        raise ValueError("lambda_f and lambda_b must be positive")
    twists = range(0 if bundle is BundleType.TRIVIAL else 1, math.ceil(2 * lb / lf), 2)
    if twists[MAX_GRAPHS:]:
        raise TooManyGraphsError(f"{(twists.stop - twists.start + 1) // 2} graphs exceed the limit of {MAX_GRAPHS}")
    half = lf / 2
    return [DecoratedGraph(lb + n * half, lb - n * half, lf, genus) for n in twists]


def blowup_stage(store: GraphStore, delta: int | Fraction) -> GraphStore:
    """One stage: every valid blowup of size delta of every stored graph, deduplicated.

    Returns a fresh store; the input is untouched.
    """
    delta = as_q(delta)
    if delta <= 0:
        raise ValueError("blowup size must be positive")
    return GraphStore(child for source in store for child in all_blowups(source, delta))


@dataclass(frozen=True)
class CountReport:
    """Result of a staged enumeration.

    ``stage_counts`` has one entry per stage starting with the initial graph
    count, so its length is k + 1 and the final entry is the action count.
    ``initial_twists`` is the shape run's lattice range of the twists of the
    reduced ruled surface, the n >= 0 of the bundle's parity with
    lambda_b - n*lambda_f/2 > 0; the run seeds none of them.  Count them as
    ``(stop - start + 1) // 2``; ``len`` overflows past sys.maxsize.
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


def _twist_bounds(low: int, high: int, half: int, parity: int) -> tuple[int, int]:
    """Start and stop of the twists n of parity ``parity`` with low < n*half < high, in steps of 2."""
    start = low // half + 1
    return start + (start - parity) % 2, -(-high // half)


def _shape_run(v: BlowupVector) -> tuple[CountReport, int, Callable[[], list[tuple]]]:
    """Run the stages on twist-free shapes and count each stage by Burnside over the flip.

    Returns the report, the scale and a function that lists the graphs of
    the staged search as lattice rows (bottom area, top area, number of
    chains, sorted chain words), in canonical order (module docstring).  A
    row is ``canonical_sort_key`` without the height, which every graph of
    the run shares, so the rows sort as they are.  Past ``MAX_GRAPHS``
    graphs that function raises ``TooManyGraphsError`` before it builds a row.
    """
    reduced = cremona_reduce(v).vector
    values = (reduced.lambda_f, reduced.lambda_b, *reduced.deltas)
    scale = 2 * math.lcm(*(q.denominator for q in values))
    lf, lb, *deltas = (q.numerator * (scale // q.denominator) for q in values)
    half, total, parity = lf // 2, sum(deltas), int(reduced.bundle is BundleType.NONTRIVIAL)

    def twists(low: int, high: int) -> range:
        """The twists n of the bundle's parity with low < n*lf/2 < high."""
        return range(*_twist_bounds(low, high, half, parity), 2)

    # each word is flipped once in a run
    flipped = functools.cache(lambda word: flipped_word(word, lf))

    def flipped_chains(chains: tuple) -> tuple:
        return tuple(sorted(map(flipped, chains)))

    def classes(shapes: Iterable[tuple]) -> tuple[int, Iterable[tuple]]:
        """The stage count by Burnside, and the least-a shape of each class."""
        least, fixed, size = {}, set(), 0
        for shape in shapes:
            a, b, chains = shape
            key = (chains, a + b, a % lf)
            kept = least.setdefault(key, shape)
            if kept is shape:  # every shape of a class has as many twists, and is flip-fixed or not
                start, stop = _twist_bounds(a - lb, lb - b, half, parity)
                size += max(0, (stop - start + 1) // 2)  # len of a range overflows past sys.maxsize
                if (a - b - parity * lf) % (2 * lf) == 0 and chains == flipped_chains(chains):
                    fixed.add(key[:2])
            elif a < kept[0]:
                least[key] = shape
        return (size + len(fixed)) // 2, least.values()

    fat = total + lf
    shapes = [(0, 0, ())]
    count, least = classes(shapes)
    counts = [count]
    for delta in deltas:
        children = {}  # the shapes as keys, in insertion order
        for a, b, chains in shapes:
            for i, row in enumerate(blowup_rows(fat - a, fat - b, lf, chains, delta)):
                if row is None:
                    continue
                # a fat child (i < 2) needs a twist; an interior child keeps a tested parent's areas
                if i < 2:
                    start, stop = _twist_bounds(fat - row[0] - lb, lb - fat + row[1], half, parity)
                    if start >= stop:
                        continue
                children[fat - row[0], fat - row[1], row[2]] = None
        shapes = list(children)
        count, least = classes(shapes)
        counts.append(count)
    report = CountReport(v, reduced, twists(-1, lb), tuple(counts))

    def listing() -> list[tuple]:
        if report.count > MAX_GRAPHS:
            raise TooManyGraphsError(f"{report.count} graphs exceed the limit of {MAX_GRAPHS}")
        # each class at its least (n, shape position): inside the window by
        # dedup up to the flip, past it from the least-a shape of its class
        rows, seen = [], set()
        for n in twists(-1, min(total + 1, lb)):
            for a, b, chains in shapes:
                if a - lb < n * half < lb - b:
                    row = (lb + n * half - a, lb - n * half - b, len(chains), chains)
                    if row not in seen:
                        seen.update((row, (row[1], row[0], row[2], flipped_chains(chains))))
                        rows.append(row)
        # past the window the twists step by 2, so the bottom area rises by
        # 2*half == lf and the top area falls by as much
        for a, b, chains in least:
            start, stop = _twist_bounds(total, lb - b, half, parity)
            bottoms = range(lb + start * half - a, lb + stop * half - a, lf)
            tops = range(lb - start * half - b, lb - stop * half - b, -lf)
            rows.extend(zip(bottoms, tops, repeat(len(chains)), repeat(chains)))
        rows.sort()
        return rows

    return report, scale, listing


def count_actions(v: BlowupVector) -> CountReport:
    """Count the circle actions compatible with the blowup form encoded by ``v``.

    Rejects vectors outside the cone.  Non-reduced input is reduced first and
    flagged; the count is an invariant of the symplectomorphism class, so this
    does not change the answer.  No twist is seeded, so the cost depends on k
    and the shapes, not on lambda_b/lambda_f, and any lambda_b is taken.
    """
    return _shape_run(v)[0]


def enumerate_actions(v: BlowupVector) -> tuple[list[DecoratedGraph], CountReport]:
    """Like ``count_actions`` but returning the graphs, in Fractions and in canonical order.

    The same run as ``count_actions``; only the listing grows with
    lambda_b/lambda_f.  It sorts the lattice rows (bottom area, top area,
    number of chains, chains), as every graph shares the height and the
    genus, so each output graph is built exactly once, already in Fractions.
    Past ``MAX_GRAPHS`` graphs it raises ``TooManyGraphsError`` before it
    lists any.
    """
    report, scale, listing = _shape_run(v)
    rows = listing()
    # Back from the lattice: each value and chain is converted once and shared
    # by every graph that holds it; each graph stores its own sorted chain list.
    fraction = functools.cache(lambda x: Fraction(x, scale))
    chain = functools.cache(lambda c: Chain([x if i % 2 else fraction(x) for i, x in enumerate(c)]))
    height, genus = report.reduced_vector.lambda_f, report.reduced_vector.genus
    # each row is freed as soon as its graph replaces it
    for i, (bottom, top, _, chains) in enumerate(rows):
        rows[i] = DecoratedGraph(fraction(bottom), fraction(top), height, genus, tuple(map(chain, chains)))
    return rows, report


def enumerate_json(v: BlowupVector) -> tuple[Iterator[str], CountReport]:
    """Like ``enumerate_actions`` but yielding the ``canonical_json`` line of each graph.

    The lines are spelled from the lattice rows, and no graph is built.  Each
    distinct value is converted and spelled once, each distinct word is built
    once as a ``Chain``, which validates it, and spelled once, and each
    distinct chain list is joined once, in the order ``blowup_rows`` sorted it
    in; that sort on the lattice is the graph constructor's order, as a
    positive scale preserves every comparison.  The genus is that of the
    validated vector.  Past ``MAX_GRAPHS`` graphs it raises
    ``TooManyGraphsError`` before the first line.
    """
    report, scale, listing = _shape_run(v)
    value = functools.cache(lambda x: str(Fraction(x, scale)))
    word = functools.cache(lambda c: word_json(Chain([x if i % 2 else Fraction(x, scale) for i, x in enumerate(c)])))
    words = functools.cache(lambda chains: ",".join(map(word, chains)))
    height, genus = str(report.reduced_vector.lambda_f), report.reduced_vector.genus
    lines = (GRAPH_LINE % (height, genus, value(bottom), value(top), words(chains)) for bottom, top, _, chains in listing())
    return lines, report
