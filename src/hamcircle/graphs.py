"""Decorated graphs of Hamiltonian circle actions and their equivalence.

A graph records one circle action: two fat vertices (the fixed surfaces at the
moment-map extrema) joined through chains of isolated fixed points.  Both fat
vertices are surfaces of the base genus, so a graph is its JSON fields: the
two fat areas, the height, one genus and the chains.  Moment labels are
normalized so the bottom fat vertex sits at 0 and the top at ``height``; the
vertical-translation quotient then becomes literal equality, and the flip is
an explicit involution.

A chain is one word, a tuple alternating interior vertex heights and edge
labels ``(v0, e1, v1, ..., vm)``, read from the bottom; its heights are
``chain[::2]`` and its labels ``chain[1::2]``.  Edge labels are the
isotropy orders of the gradient spheres; the edges touching a fat vertex
always carry label 1 and are not stored.  Chains are compared as words,
letter by letter; a chain that is a strict prefix of another sorts first.
The flip reads each word from its end, heights replaced by their distance
from the top; ``flipped_word`` is the one spelling of that.  A graph keeps
its chains sorted, so graph equality is node-for-node equality.  Each
equivalence class has one hashable key, the larger of the graph's own form
and the form of its flip, so equivalence is key equality.

Distinct chains may contain vertices at equal heights; this really happens,
e.g. after two half-fiber blowups from opposite fat vertices.

Heights and areas are exact ``Fraction``s: a ``Fraction`` is kept as given,
anything else goes through ``as_q`` (an int, a string, a bool, a
``Fraction`` subclass), and floats are refused; labels are ints, an int kept
as given and anything else through ``operator.index``.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .vectors import as_q


class Chain(tuple):
    """Interior fixed points of one edge path between the two fat vertices.

    The chain is its word v0, e1, v1, ..., vm of vertex heights and edge
    labels, from the bottom up.
    """

    __slots__ = ()

    def __new__(cls, seq: tuple | list) -> Chain:
        if not isinstance(seq, (tuple, list)):
            raise TypeError(f"a chain is a tuple or list of heights and labels, not {seq!r}")
        if len(seq) % 2 == 0:
            raise ValueError("a chain alternates vertices and edges: v0, e1, v1, ..., vm, at least one vertex")
        word = list(seq)
        # Fraction heights and int labels are kept as given
        for i, x in enumerate(word):
            if type(x) is not (int if i % 2 else Fraction):
                word[i] = operator.index(x) if i % 2 else as_q(x)
        return tuple.__new__(cls, word)

    @property
    def heights(self) -> tuple[Fraction, ...]:
        return self[::2]

    @property
    def labels(self) -> tuple[int, ...]:
        return self[1::2]


def flipped_word(word: tuple, height: int | Fraction) -> tuple:
    """The word of the flipped chain: the word read backwards, heights measured from the top."""
    return tuple([x if i % 2 else height - x for i, x in enumerate(reversed(word))])


def flipped_words(words: tuple[tuple, ...], height: int | Fraction) -> tuple[tuple, ...]:
    """The sorted words of the flipped chains."""
    return tuple(sorted(flipped_word(w, height) for w in words))


@dataclass(frozen=True)
class DecoratedGraph:
    """Two fat vertices of genus ``genus`` at heights 0 and ``height`` plus the chains between them.

    The chains are stored sorted as words whatever order they are given in.
    """

    bottom_area: Fraction
    top_area: Fraction
    height: Fraction
    genus: int
    chains: tuple[Chain, ...] = ()

    def __post_init__(self) -> None:
        # each test takes the common case, exact types, first
        if not (type(self.bottom_area) is type(self.top_area) is type(self.height) is Fraction):
            for name in ("bottom_area", "top_area", "height"):
                object.__setattr__(self, name, as_q(getattr(self, name)))
        genus = self.genus
        if (type(genus) is not int and (isinstance(genus, bool) or not isinstance(genus, int))) or genus < 1:
            raise ValueError(f"genus must be a positive integer, got {genus!r}")
        chains = tuple(sorted(self.chains))
        for c in chains:
            if type(c) is not Chain and not isinstance(c, Chain):
                raise TypeError(f"a chain entry must be a Chain, not {c!r}")
        object.__setattr__(self, "chains", chains)


def class_key(g: DecoratedGraph) -> tuple:
    """The same tuple for two graphs exactly when they agree up to the flip.

    The larger of the graph's own form (bottom area, top area, height, chain
    words) and its flip's form (top area, bottom area, height, flipped
    words); the flipped graph itself is never built, and its words only
    when the bottom area is not above the top.
    """
    bottom, top, height = g.bottom_area, g.top_area, g.height
    own = (bottom, top, height, g.chains)
    if bottom > top:
        return own
    return max(own, (top, bottom, height, flipped_words(g.chains, height)))


@dataclass(frozen=True)
class GraphReport:
    """Validation outcome with the violated invariants named."""

    valid: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.valid


def validate(g: DecoratedGraph) -> GraphReport:
    """Check every structural invariant of a decorated graph.

    Positive height and fat areas, labels >= 1, strictly increasing chain
    heights strictly between the fat vertices, coprime adjacent labels at
    every interior vertex (counting the implicit 1s at the chain ends).
    """
    bad: list[str] = []
    if g.height <= 0:
        bad.append("height_positive")
    if g.bottom_area <= 0:
        bad.append("bottom_area_positive")
    if g.top_area <= 0:
        bad.append("top_area_positive")
    for ci, chain in enumerate(g.chains):
        if any(label < 1 for label in chain.labels):
            bad.append(f"chain_{ci}_labels_positive")
        hs = chain.heights
        if any(hs[i] >= hs[i + 1] for i in range(len(hs) - 1)):
            bad.append(f"chain_{ci}_heights_increasing")
        if hs[0] <= 0:
            bad.append(f"chain_{ci}_above_bottom")
        if hs[-1] >= g.height:
            bad.append(f"chain_{ci}_below_top")
        for vi in range(len(hs)):
            below = chain.labels[vi - 1] if vi > 0 else 1
            above = chain.labels[vi] if vi < len(chain.labels) else 1
            if math.gcd(below, above) != 1:
                bad.append(f"chain_{ci}_vertex_{vi}_labels_coprime")
    return GraphReport(not bad, tuple(bad))


def flip(g: DecoratedGraph) -> DecoratedGraph:
    """Swap the fat vertices and send every vertex height v to height - v."""
    report = validate(g)
    if not report:
        raise ValueError("cannot flip an invalid graph: " + ", ".join(report.violations))
    chains = tuple(map(Chain, flipped_words(g.chains, g.height)))
    return DecoratedGraph(g.top_area, g.bottom_area, g.height, g.genus, chains)


def are_equivalent(g1: DecoratedGraph, g2: DecoratedGraph) -> bool:
    """Equality up to vertical translation and flip; total on valid graphs."""
    return class_key(g1) == class_key(g2)


def canonical_sort_key(g: DecoratedGraph) -> tuple:
    """Deterministic total order on graphs, used for stable output listings."""
    return (g.height, g.bottom_area, g.top_area, len(g.chains), g.chains)


# --- canonical JSON form ---------------------------------------------------
#
# Two graphs serialize to the same bytes exactly when they are equal, genus
# included; the genus plays no role in equivalence.


def to_json_dict(g: DecoratedGraph) -> dict:
    """Canonical JSON object: rationals as strings, each chain its word in stored order."""
    return {
        "height": str(g.height),
        "genus": g.genus,
        "bottom_area": str(g.bottom_area),
        "top_area": str(g.top_area),
        "chains": [[x if i % 2 else str(x) for i, x in enumerate(c)] for c in g.chains],
    }


# One encoder for every call: ``json.dumps`` builds a new one whenever the
# separators are not the default.
compact_json = json.JSONEncoder(separators=(",", ":")).encode


# One spelling of a graph's JSON line, filled with the height, the genus, the
# two areas and the chain words already spelled and joined by commas.  No value
# needs escaping: the genus and the labels are ints, and every height and area
# is a ``Fraction``, which prints as digits, ``-`` and ``/``.
GRAPH_LINE = '{"height":"%s","genus":%s,"bottom_area":"%s","top_area":"%s","chains":[%s]}'


def word_json(word: tuple) -> str:
    """A chain word in canonical JSON: its heights quoted, its labels bare."""
    return ('["%s"' + ',%s,"%s"' * (len(word) // 2) + "]") % word


def canonical_json(g: DecoratedGraph) -> str:
    """``compact_json(to_json_dict(g))``, spelled directly through ``GRAPH_LINE``."""
    return GRAPH_LINE % (g.height, g.genus, g.bottom_area, g.top_area, ",".join(map(word_json, g.chains)))
