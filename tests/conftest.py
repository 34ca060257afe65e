"""Shared generators and brute-force oracles for the test suite.

Two flavours of generators live here: hypothesis strategies for the property
tests, and plain ``random.Random``-driven builders used where a test must
guarantee an exact number of independent samples.  The oracles (exhaustive
bijection matching for graph equivalence, argmin over the exceptional areas)
are written from scratch so they stay independent of the code paths they
check.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction as F

from hypothesis import strategies as st

from hamcircle import (
    BlowupVector,
    BundleType,
    Chain,
    DecoratedGraph,
    FatVertex,
    all_blowups,
)

BUNDLES = (BundleType.TRIVIAL, BundleType.NONTRIVIAL)


def graph_values(g):
    """Every height and area of a graph."""
    return [g.height, g.bottom.area, g.top.area, *(h for c in g.chains for h in c.heights)]


def map_values(g, fn):
    """The graph with every height and area x replaced by fn(x)."""
    return DecoratedGraph(
        FatVertex(fn(g.bottom.area), g.bottom.genus),
        FatVertex(fn(g.top.area), g.top.genus),
        fn(g.height),
        tuple(Chain(tuple(x if i % 2 else fn(x) for i, x in enumerate(c.seq))) for c in g.chains),
    )


# --- hypothesis strategies ---------------------------------------------------


@st.composite
def cone_vectors(draw, min_k=0, max_k=8, small=False, bundles=BUNDLES):
    """Vectors inside the cone by construction.

    Deltas are strict fractions of the fiber area; lambda_b sits strictly
    above the volume threshold.  With ``small`` the padding above the
    threshold is at most one fiber, keeping enumerations cheap.
    """
    k = draw(st.integers(min_k, max_k))
    lf = draw(st.fractions(min_value=F(1, 4), max_value=4, max_denominator=8))
    ts = draw(
        st.lists(
            st.fractions(min_value=F(1, 32), max_value=F(31, 32), max_denominator=32),
            min_size=k,
            max_size=k,
        )
    )
    deltas = tuple(lf * t for t in ts)
    pad_max = 1 if small else 3
    pad = draw(st.fractions(min_value=F(1, 8), max_value=pad_max, max_denominator=8))
    lb = sum((d * d for d in deltas), start=F(0)) / (2 * lf) + pad * lf
    bundle = draw(st.sampled_from(list(bundles)))
    genus = draw(st.integers(1, 3))
    return BlowupVector(lf, lb, deltas, bundle, genus)


@st.composite
def chains(draw, height):
    n = draw(st.integers(1, 3))
    numerators = draw(st.lists(st.integers(1, 31), min_size=n, max_size=n, unique=True))
    heights = sorted(height * F(a, 32) for a in numerators)
    seq = [heights[0]]
    prev = 1
    for h in heights[1:]:
        prev = draw(st.sampled_from([x for x in range(1, 7) if math.gcd(x, prev) == 1]))
        seq += [prev, h]
    return Chain(tuple(seq))


@st.composite
def valid_graphs(draw, max_chains=5):
    height = draw(st.fractions(min_value=F(1, 2), max_value=4, max_denominator=4))
    genus = draw(st.integers(1, 2))
    bottom = FatVertex(draw(st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4)), genus)
    top = FatVertex(draw(st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4)), genus)
    n = draw(st.integers(0, max_chains))
    chain_list = tuple(draw(chains(height)) for _ in range(n))
    return DecoratedGraph(bottom, top, height, chain_list)


@st.composite
def blown_graphs(draw, max_blowups=3):
    """Graphs produced by actual blowup sequences from a ruled graph."""
    height = draw(st.fractions(min_value=F(1, 2), max_value=3, max_denominator=4))
    genus = draw(st.integers(1, 2))
    base = draw(st.fractions(min_value=F(1, 2), max_value=4, max_denominator=4))
    spread = draw(st.fractions(min_value=0, max_value=2, max_denominator=4))
    g = DecoratedGraph(FatVertex(base + spread, genus), FatVertex(base, genus), height)
    for _ in range(draw(st.integers(0, max_blowups))):
        room = min(g.bottom.area, g.top.area, g.height)
        delta = room * draw(st.fractions(min_value=F(1, 32), max_value=F(31, 32), max_denominator=32))
        options = all_blowups(g, delta)
        if not options:
            break
        g = draw(st.sampled_from(options))
    return g


@st.composite
def graph_pairs(draw):
    """Pairs biased toward the interesting relations: copies, flips, permutations, near misses."""
    g1 = draw(st.one_of(valid_graphs(), blown_graphs()))
    kind = draw(st.integers(0, 5))
    if kind == 0:
        g2 = draw(st.one_of(valid_graphs(), blown_graphs()))
    elif kind == 1:
        g2 = DecoratedGraph(g1.bottom, g1.top, g1.height, g1.chains)
    elif kind == 2:
        g2 = mirror(g1)
    elif kind == 3:
        g2 = permute_chains(g1, draw(st.permutations(range(len(g1.chains)))))
    elif kind == 4:
        g2 = permute_chains(mirror(g1), draw(st.permutations(range(len(g1.chains)))))
    else:
        g2 = tweak(g1)
    return g1, g2


# --- structural transforms used by generators and oracles -------------------


def permute_chains(g: DecoratedGraph, perm) -> DecoratedGraph:
    return DecoratedGraph(g.bottom, g.top, g.height, tuple(g.chains[i] for i in perm))


def mirror(g: DecoratedGraph) -> DecoratedGraph:
    """Independent reimplementation of the flip, for oracle use."""
    chain_list = tuple(
        Chain(tuple(x if i % 2 else g.height - x for i, x in enumerate(reversed(c.seq))))
        for c in g.chains
    )
    return DecoratedGraph(g.top, g.bottom, g.height, chain_list)


def tweak(g: DecoratedGraph) -> DecoratedGraph:
    """A near miss: move one vertex height (or one area) while staying valid."""
    if not g.chains:
        return DecoratedGraph(
            FatVertex(g.bottom.area + F(1, 7), g.bottom.genus), g.top, g.height, ()
        )
    chain = g.chains[0]
    lower = chain.heights[-2] if len(chain.heights) > 1 else F(0)
    upper = g.height
    vi = len(chain.heights) - 1
    new_h = (lower + upper) / 2
    if new_h == chain.heights[vi]:
        new_h = (lower + 3 * upper) / 4
    chain_list = (Chain(chain.seq[:-1] + (new_h,)),) + g.chains[1:]
    return DecoratedGraph(g.bottom, g.top, g.height, chain_list)


# --- brute-force oracles -----------------------------------------------------


def oracle_match(a: DecoratedGraph, b: DecoratedGraph) -> bool:
    """Exact equality up to an arbitrary bijection of the chains."""
    if a.height != b.height or a.bottom.area != b.bottom.area or a.top.area != b.top.area:
        return False
    if len(a.chains) != len(b.chains):
        return False
    return any(
        all(a.chains[i] == b.chains[p[i]] for i in range(len(a.chains)))
        for p in itertools.permutations(range(len(b.chains)))
    )


def oracle_equivalent(g1: DecoratedGraph, g2: DecoratedGraph) -> bool:
    """Try the identity matching and the flip matching over all chain bijections."""
    return oracle_match(g1, g2) or oracle_match(mirror(g1), g2)


def brute_force_min_classes(v: BlowupVector) -> set[tuple[str, int]]:
    """Argmin over the 2k exceptional areas, computed from the deltas alone."""
    areas: dict[tuple[str, int], F] = {}
    for i, d in enumerate(v.deltas, start=1):
        areas[("E", i)] = d
        areas[("F-E", i)] = v.lambda_f - d
    smallest = min(areas.values())
    return {cls for cls, area in areas.items() if area == smallest}


# --- seeded random builders (exact sample counts for the acceptance suite) ---


def random_fraction(rng: random.Random, lo_num=1, hi_num=31, den=32) -> F:
    return F(rng.randint(lo_num, hi_num), den)


def random_cone_vector(
    rng: random.Random,
    k: int,
    bundle: BundleType = BundleType.TRIVIAL,
    genus: int = 1,
    pad_fibers: int = 1,
) -> BlowupVector:
    """A cone vector with lambda_b at most ``pad_fibers`` fibers above the volume floor."""
    lf = F(rng.randint(1, 8), rng.randint(1, 4))
    deltas = tuple(lf * random_fraction(rng) for _ in range(k))
    floor = sum((d * d for d in deltas), start=F(0)) / (2 * lf)
    lb = floor + lf * F(rng.randint(1, 8 * pad_fibers), 8)
    return BlowupVector(lf, lb, deltas, bundle, genus)


def random_valid_graph(rng: random.Random, max_chains: int = 5) -> DecoratedGraph:
    height = F(rng.randint(1, 8), rng.randint(1, 2))
    genus = rng.randint(1, 2)
    bottom = FatVertex(F(rng.randint(1, 16), 4), genus)
    top = FatVertex(F(rng.randint(1, 16), 4), genus)
    chain_list = []
    for _ in range(rng.randint(0, max_chains)):
        n = rng.randint(1, 3)
        numerators = rng.sample(range(1, 32), n)
        heights = sorted(height * F(a, 32) for a in numerators)
        seq = [heights[0]]
        prev = 1
        for h in heights[1:]:
            prev = rng.choice([x for x in range(1, 7) if math.gcd(x, prev) == 1])
            seq += [prev, h]
        chain_list.append(Chain(tuple(seq)))
    return DecoratedGraph(bottom, top, height, tuple(chain_list))


def random_graph_pair(rng: random.Random) -> tuple[DecoratedGraph, DecoratedGraph]:
    g1 = random_valid_graph(rng)
    kind = rng.randrange(6)
    if kind == 0:
        return g1, random_valid_graph(rng)
    if kind == 1:
        return g1, DecoratedGraph(g1.bottom, g1.top, g1.height, g1.chains)
    if kind == 2:
        return g1, mirror(g1)
    perm = list(range(len(g1.chains)))
    rng.shuffle(perm)
    if kind == 3:
        return g1, permute_chains(g1, perm)
    if kind == 4:
        return g1, permute_chains(mirror(g1), perm)
    return g1, tweak(g1)
