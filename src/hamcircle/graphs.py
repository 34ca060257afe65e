"""Decorated graphs of Hamiltonian circle actions and their equivalence.

A graph records one circle action: two fat vertices (the fixed surfaces at the
moment-map extrema, labeled by area and genus) joined through chains of
isolated fixed points.  Moment labels are normalized so the bottom fat vertex
sits at 0 and the top at ``height``; the vertical-translation quotient then
becomes literal equality, and the flip is an explicit involution.

A chain is one word, the alternating sequence ``seq = (v0, e1, v1, ..., vm)``
of interior vertex heights and edge labels, read from the bottom; its
heights are ``seq[::2]`` and its labels ``seq[1::2]``.  Edge labels are the
isotropy orders of the gradient spheres; the edges touching a fat vertex
always carry label 1 and are not stored.  Chains are compared as words,
letter by letter, either from the start (``seq`` itself) or from the end
(``seq`` reversed, heights replaced by their distance from the top); a chain
that is a strict prefix of another sorts first.  A graph keeps its chains
sorted by ``seq``, so dataclass equality is node-for-node equality.  Each
equivalence class has one hashable key, the smaller of the graph's own form
and the form of its flip, so equivalence is key equality.

Distinct chains may contain vertices at equal heights; this really happens,
e.g. after two half-fiber blowups from opposite fat vertices.

Heights and areas are exact: an int stays an int, anything else becomes a
``Fraction``, and floats are refused.  The staged enumeration builds its
graphs on an integer lattice and converts them to Fractions only for output.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .vectors import as_exact


@dataclass(frozen=True)
class Chain:
    """Interior fixed points of one edge path between the two fat vertices.

    ``seq`` alternates vertex heights and edge labels, v0, e1, v1, ..., vm,
    from the bottom up.
    """

    seq: tuple

    def __post_init__(self) -> None:
        seq = list(self.seq)
        if len(seq) % 2 == 0:
            raise ValueError("a chain alternates vertices and edges: v0, e1, v1, ..., vm, at least one vertex")
        seq[::2] = map(as_exact, seq[::2])
        seq[1::2] = map(operator.index, seq[1::2])
        object.__setattr__(self, "seq", tuple(seq))

    @property
    def heights(self) -> tuple[int | Fraction, ...]:
        return self.seq[::2]

    @property
    def labels(self) -> tuple[int, ...]:
        return self.seq[1::2]

    def end_key(self, height: int | Fraction) -> tuple:
        """The sequence read backwards with heights measured from the top."""
        key = list(reversed(self.seq))
        key[::2] = [height - h for h in key[::2]]
        return tuple(key)


_SEQ = operator.attrgetter("seq")


@dataclass(frozen=True)
class FatVertex:
    """A fixed surface at a moment extremum: area label and genus."""

    area: int | Fraction
    genus: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "area", as_exact(self.area))
        if isinstance(self.genus, bool) or not isinstance(self.genus, int) or self.genus < 1:
            raise ValueError(f"genus must be a positive integer, got {self.genus!r}")


@dataclass(frozen=True)
class DecoratedGraph:
    """Two fat vertices at heights 0 and ``height`` plus the chains between them.

    The chains are stored sorted by ``seq`` whatever order they are given in.
    """

    bottom: FatVertex
    top: FatVertex
    height: int | Fraction
    chains: tuple[Chain, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "height", as_exact(self.height))
        object.__setattr__(self, "chains", tuple(sorted(self.chains, key=_SEQ)))


def class_key(g: DecoratedGraph) -> tuple:
    """The same tuple for two graphs exactly when they agree up to the flip.

    The smaller of the graph's own form (bottom area, top area, height, chain
    sequences) and its flip's form (top area, bottom area, height, sorted
    chain end keys); the flipped graph itself is never built.
    """
    bottom, top, height = g.bottom.area, g.top.area, g.height
    own = (bottom, top, height, tuple(c.seq for c in g.chains))
    if bottom < top:
        return own
    return min(own, (top, bottom, height, tuple(sorted(c.end_key(height) for c in g.chains))))


@dataclass(frozen=True)
class GraphReport:
    """Validation outcome with the violated invariants named."""

    valid: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.valid


def validate(g: DecoratedGraph) -> GraphReport:
    """Check every structural invariant of a decorated graph.

    Positive height and fat areas, matching genera, labels >= 1, strictly
    increasing chain heights strictly between the fat vertices, coprime
    adjacent labels at every interior vertex (counting the implicit 1s at the
    chain ends).
    """
    bad: list[str] = []
    if g.height <= 0:
        bad.append("height_positive")
    if g.bottom.area <= 0:
        bad.append("bottom_area_positive")
    if g.top.area <= 0:
        bad.append("top_area_positive")
    if g.bottom.genus != g.top.genus:
        bad.append("genus_match")
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
    return DecoratedGraph(
        bottom=g.top,
        top=g.bottom,
        height=g.height,
        chains=tuple(Chain(c.end_key(g.height)) for c in g.chains),
    )


def are_equivalent(g1: DecoratedGraph, g2: DecoratedGraph) -> bool:
    """Equality up to vertical translation and flip; total on valid graphs."""
    return class_key(g1) == class_key(g2)


def canonical_sort_key(g: DecoratedGraph) -> tuple:
    """Deterministic total order on graphs, used for stable output listings."""
    return (
        g.height,
        g.bottom.area,
        g.top.area,
        len(g.chains),
        tuple(c.seq for c in g.chains),
    )


# --- canonical JSON form ---------------------------------------------------
#
# Two graphs serialize to the same bytes exactly when they are equal, genus
# included; the genus plays no role in equivalence.


def to_json_dict(g: DecoratedGraph) -> dict:
    """Canonical JSON object: rationals as strings, each chain its ``seq`` in stored order."""
    return {
        "height": str(g.height),
        "genus": g.bottom.genus,
        "bottom_area": str(g.bottom.area),
        "top_area": str(g.top.area),
        "chains": [[x if i % 2 else str(x) for i, x in enumerate(c.seq)] for c in g.chains],
    }


def canonical_json(g: DecoratedGraph) -> str:
    return json.dumps(to_json_dict(g), separators=(",", ":"))


def graph_from_json_dict(data: dict) -> DecoratedGraph:
    """The graph of ``to_json_dict``; values go through the constructors, so floats are refused."""
    return DecoratedGraph(
        bottom=FatVertex(data["bottom_area"], data["genus"]),
        top=FatVertex(data["top_area"], data["genus"]),
        height=data["height"],
        chains=tuple(Chain(seq) for seq in data["chains"]),
    )
