"""Shared test helpers: seeded random hypergraph generation, and the
hypothesis profiles every ``@given`` test runs under.

``suite`` (60 derandomized draws) is loaded here, so it holds whichever test
files are collected; ``--hypothesis-profile=deep`` draws 300.
"""

from __future__ import annotations

import random

from hypothesis import settings

from hyperlin import Hypergraph

settings.register_profile("suite", max_examples=60, derandomize=True, deadline=None)
settings.register_profile("deep", max_examples=300, derandomize=True, deadline=None)
settings.load_profile("suite")


def random_hypergraph(
    rng: random.Random,
    max_vertices: int = 8,
    max_edges: int = 8,
    density: float = 0.4,
) -> Hypergraph:
    """A random hypergraph with distinct member sets.

    Vertices may be isolated and hyperedges may be singletons, so the
    generator exercises the degenerate paths too. Duplicate member sets are
    skipped (the model requires distinct hyperedges), so the edge count can
    come out below the draw.
    """
    n = rng.randint(1, max_vertices)
    m = rng.randint(1, max_edges)
    verts = [str(i) for i in range(1, n + 1)]
    seen: set[frozenset[str]] = set()
    pairs = []
    for j in range(1, m + 1):
        members = frozenset(v for v in verts if rng.random() < density)
        if not members:
            members = frozenset(rng.sample(verts, rng.randint(1, n)))
        if members in seen:
            continue
        seen.add(members)
        pairs.append((f"e{j}", sorted(members, key=int)))
    if not pairs:
        pairs = [("e1", [verts[0]])]
    return Hypergraph.from_members(pairs, vertices=verts)


def search_draws() -> list[Hypergraph]:
    """510 seeded random hypergraphs, 170 at each density 0.15, 0.3 and 0.5.

    Sparse draws leave isolated vertices and split components, dense ones
    give connected hypergraphs, so graph searches meet both answers.
    """
    return [
        random_hypergraph(random.Random(seed), density=density)
        for density in (0.15, 0.3, 0.5)
        for seed in range(170)
    ]
