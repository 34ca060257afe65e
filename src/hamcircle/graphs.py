"""Decorated graphs of Hamiltonian circle actions and their equivalence.

A graph records one circle action: two fat vertices (the fixed surfaces at the
moment-map extrema, labeled by area and genus) joined through chains of
isolated fixed points.  Moment labels are normalized so the bottom fat vertex
sits at 0 and the top at ``height``; the vertical-translation quotient then
becomes literal equality, and the flip is an explicit involution.

A chain stores the alternating sequence v0, e1, v1, ..., vm of interior vertex
heights and edge labels, read from the bottom.  Edge labels are the isotropy
orders of the gradient spheres; the edges touching a fat vertex always carry
label 1 and are not stored.  Chains are compared lexicographically letter by
letter, either from the start (heights measured from the bottom) or from the
end (heights replaced by their distance from the top); a chain that is a
strict prefix of another sorts first.  A graph keeps its chains in start
order, so dataclass equality is node-for-node equality.  Each equivalence
class has one hashable key, the smaller of the graph's own form and the form
of its flip, so equivalence is key equality.

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
from dataclasses import dataclass, field
from fractions import Fraction

from .vectors import as_exact


def _interleave(heights: tuple[int | Fraction, ...], labels: tuple[int, ...]) -> tuple:
    out: list = [heights[0]]
    for label, h in zip(labels, heights[1:]):
        out.append(label)
        out.append(h)
    return tuple(out)


@dataclass(frozen=True)
class Chain:
    """Interior fixed points of one edge path between the two fat vertices."""

    heights: tuple[int | Fraction, ...]
    labels: tuple[int, ...] = ()
    # The alternating sequence read from the bottom, as a sort key; built once.
    start_key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "heights", tuple(as_exact(h) for h in self.heights))
        object.__setattr__(self, "labels", tuple(operator.index(l) for l in self.labels))
        if not self.heights:
            raise ValueError("a chain holds at least one vertex")
        if len(self.labels) != len(self.heights) - 1:
            raise ValueError("a chain alternates vertices and edges: need one label less than vertices")
        object.__setattr__(self, "start_key", _interleave(self.heights, self.labels))

    def end_key(self, height: int | Fraction) -> tuple:
        """The sequence read backwards with heights measured from the top."""
        key = list(reversed(self.start_key))
        key[::2] = [height - h for h in key[::2]]
        return tuple(key)

    def flipped(self, height: int | Fraction) -> "Chain":
        return Chain(
            tuple(height - h for h in reversed(self.heights)),
            tuple(reversed(self.labels)),
        )


_START_KEY = operator.attrgetter("start_key")


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

    The chains are stored in start order whatever order they are given in.
    """

    bottom: FatVertex
    top: FatVertex
    height: int | Fraction
    chains: tuple[Chain, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "height", as_exact(self.height))
        object.__setattr__(self, "chains", tuple(sorted(self.chains, key=_START_KEY)))


def class_key(g: DecoratedGraph) -> tuple:
    """The same tuple for two graphs exactly when they agree up to the flip.

    The smaller of the graph's own form (bottom area, top area, height, chain
    start keys) and its flip's form (top area, bottom area, height, sorted
    chain end keys); the flipped graph itself is never built.
    """
    bottom, top, height = g.bottom.area, g.top.area, g.height
    own = (bottom, top, height, tuple(c.start_key for c in g.chains))
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
        chains=tuple(c.flipped(g.height) for c in g.chains),
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
        tuple(c.start_key for c in g.chains),
    )


# --- canonical JSON form ---------------------------------------------------
#
# Two graphs serialize to the same bytes exactly when they are equal, genus
# included; the genus plays no role in equivalence.


def to_json_dict(g: DecoratedGraph) -> dict:
    """Canonical JSON object: rationals as strings, chains in start order."""
    chains = []
    for chain in g.chains:
        seq: list = [str(chain.heights[0])]
        for label, h in zip(chain.labels, chain.heights[1:]):
            seq.append(label)
            seq.append(str(h))
        chains.append(seq)
    return {
        "height": str(g.height),
        "genus": g.bottom.genus,
        "bottom_area": str(g.bottom.area),
        "top_area": str(g.top.area),
        "chains": chains,
    }


def canonical_json(g: DecoratedGraph) -> str:
    return json.dumps(to_json_dict(g), separators=(",", ":"))


def graph_from_json_dict(data: dict) -> DecoratedGraph:
    genus = int(data["genus"])
    chains = []
    for seq in data["chains"]:
        heights = tuple(Fraction(x) for x in seq[0::2])
        labels = tuple(int(x) for x in seq[1::2])
        chains.append(Chain(heights, labels))
    return DecoratedGraph(
        bottom=FatVertex(Fraction(data["bottom_area"]), genus),
        top=FatVertex(Fraction(data["top_area"]), genus),
        height=Fraction(data["height"]),
        chains=tuple(chains),
    )
