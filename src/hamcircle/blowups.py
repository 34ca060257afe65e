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

The moves are written once, in ``blowup_rows``, on plain fields (areas,
height, chain words); the shape run calls it and builds no graph, and
``all_blowups`` is its one graph adapter, building each child through the
constructors.

Every move only adds, subtracts and multiplies by integer labels, so
``blowup_rows`` given ints gives ints; a graph holds Fractions only.
"""

from __future__ import annotations

from fractions import Fraction

from .graphs import Chain, DecoratedGraph
from .vectors import as_q


def blowup_rows(bottom, top, height, chains: tuple[tuple, ...], delta) -> list[tuple | None]:
    """Every site's child row (bottom area, top area, chains), None where the move is not valid.

    ``chains`` are sorted words, the sites come in ``blowup_rows`` site order
    (bottom fat, top fat, then the vertices of each chain bottom-up, so index
    2 + offset is the interior vertex at that offset over all chains) and each
    child's chains are sorted again.  Neither delta nor a word is checked.
    """
    rows = [
        (bottom - delta, top, tuple(sorted(chains + ((delta,),)))) if delta < bottom and delta < height else None,
        (bottom, top - delta, tuple(sorted(chains + ((height - delta,),)))) if delta < top and delta < height else None,
    ]
    for ci, seq in enumerate(chains):
        others, floor, below = chains[:ci] + chains[ci + 1:], 0, 1
        for i in range(0, len(seq), 2):
            above, ceiling = (seq[i + 1], seq[i + 2]) if i + 1 < len(seq) else (1, height)
            low, high = seq[i] - below * delta, seq[i] + above * delta
            if floor < low and high < ceiling:
                word = seq[:i] + (low, below + above, high) + seq[i + 1:]
                rows.append((bottom, top, tuple(sorted(others + (word,)))))
            else:
                rows.append(None)
            floor, below = seq[i], above
    return rows


def all_blowups(g: DecoratedGraph, delta: int | Fraction) -> list[DecoratedGraph]:
    """Every valid single blowup of size delta, in deterministic site order:
    bottom fat, top fat, then the vertices of each chain bottom-up.

    The list may contain pairwise-equivalent graphs; deduplication is the
    caller's business.
    """
    delta = as_q(delta)
    if delta <= 0:
        raise ValueError("blowup size must be positive")
    return [
        DecoratedGraph(bottom, top, g.height, g.genus, tuple(c if type(c) is Chain else Chain(c) for c in chains))
        for bottom, top, chains in filter(None, blowup_rows(g.bottom_area, g.top_area, g.height, g.chains, delta))
    ]
