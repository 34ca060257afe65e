"""Equivariant blowup moves on decorated graphs.

A blowup of size delta either carves a ball out of a fat vertex or replaces an
interior fixed point by the two endpoints of the new exceptional sphere.

At a fat vertex the area drops by delta and a fresh one-vertex chain appears
at height delta (from the bottom) or height - delta (from the top).  At an
interior vertex with incident isotropies m below and n above, the exceptional
sphere acquires isotropy m + n; since a sphere of isotropy k and size delta
spans moment length k * delta, and each sphere through the blown-up point
loses area delta, the two new endpoints land at h - m*delta and h + n*delta
with a connecting edge labeled m + n.

Validity is strict everywhere: the new vertices must not reach the
pre-existing vertices of the same chain or the moment extrema, and the fat
areas must stay positive.  Equality would create a zero-area sphere or
coincident fixed points on one chain.  An invalid site yields None rather
than an exception, so enumeration can prune branches cheaply.

Every move only adds, subtracts and multiplies by integer labels, so a graph
and a delta given as ints give ints.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .graphs import Chain, DecoratedGraph
from .vectors import as_exact


class FatSide(Enum):
    BOTTOM = "bottom"
    TOP = "top"


def _check_delta(delta: int | Fraction) -> int | Fraction:
    delta = as_exact(delta)
    if delta <= 0:
        raise ValueError("blowup size must be positive")
    return delta


def blowup_fat(g: DecoratedGraph, side: FatSide, delta: int | Fraction) -> DecoratedGraph | None:
    """Blow up at a fat vertex; None when the move would not be valid.

    Valid iff delta is strictly below both the chosen fat area and the graph
    height (the latter keeps the new vertex off the opposite extremum, which
    the area test alone does not guarantee on arbitrary graphs).
    """
    delta = _check_delta(delta)
    area = g.bottom_area if side is FatSide.BOTTOM else g.top_area
    if not (delta < area and delta < g.height):
        return None
    if side is FatSide.BOTTOM:
        bottom, top, new_vertex = g.bottom_area - delta, g.top_area, delta
    else:
        bottom, top, new_vertex = g.bottom_area, g.top_area - delta, g.height - delta
    return DecoratedGraph(bottom, top, g.height, g.genus, g.chains + (Chain((new_vertex,)),))


def blowup_interior(
    g: DecoratedGraph, chain_index: int, vertex_index: int, delta: int | Fraction
) -> DecoratedGraph | None:
    """Blow up at an interior fixed point; None when the move would not be valid.

    The vertex at height h with labels m below and n above is replaced by
    vertices at h - m*delta and h + n*delta joined by an edge labeled m + n.
    Valid iff the lower endpoint stays strictly above the vertex below (or 0)
    and the upper endpoint strictly below the vertex above (or the height).
    """
    delta = _check_delta(delta)
    seq = g.chains[chain_index]
    i = 2 * vertex_index
    last = i + 1 == len(seq)
    below = seq[i - 1] if i else 1
    above = 1 if last else seq[i + 1]
    low = seq[i] - below * delta
    high = seq[i] + above * delta
    floor = seq[i - 2] if i else 0
    ceiling = g.height if last else seq[i + 2]
    if not (floor < low and high < ceiling):
        return None
    chain = Chain(seq[:i] + (low, below + above, high) + seq[i + 1:])
    chains = g.chains[:chain_index] + (chain,) + g.chains[chain_index + 1:]
    return DecoratedGraph(g.bottom_area, g.top_area, g.height, g.genus, chains)


def all_blowups(g: DecoratedGraph, delta: int | Fraction) -> list[DecoratedGraph]:
    """Every valid single blowup of size delta, in deterministic site order:
    bottom fat, top fat, then the vertices of each chain bottom-up.

    The list may contain pairwise-equivalent graphs; deduplication is the
    caller's business.
    """
    blown = [blowup_fat(g, FatSide.BOTTOM, delta), blowup_fat(g, FatSide.TOP, delta)]
    for ci, chain in enumerate(g.chains):
        blown.extend(blowup_interior(g, ci, vi, delta) for vi in range(len(chain.heights)))
    return [b for b in blown if b is not None]
