"""Seeded input families for the benchmark, built without hyperlin.

Every family is a plain list of ``(label, members)`` pairs plus a vertex
order. The same ``random.Random`` seed gives the same hypergraph, and each
generator asserts the property that makes its workload meaningful, so a
bad draw stops the run instead of silently measuring something else.

The cost of exact arithmetic depends on a graph's structure (rw_betweenness
varied by 20% between random graphs of one size) and the float Jacobi sweeps
on its vertex order (A_GH spectra by 50%). So the workloads draw each
structure once, keep its declaration order, and let the run's seed only
permute the labels, via ``relabeled``: every seed gives the same matrices
under different names, and different reports.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from oracles import incidence_rows, int_rank, is_connected


#: Vertices per edge of every random family.
EDGE_SIZE = 4


class GeneratorError(RuntimeError):
    """A generated input lacks the property its workload relies on."""


@dataclass(frozen=True)
class Instance:
    """One generated hypergraph: declared vertex order and labeled edges."""

    name: str
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, frozenset[str]], ...]

    def to_json(self) -> str:
        """The JSON form hyperlin reads, members listed in vertex order."""
        return json.dumps(
            {
                "vertices": list(self.vertices),
                "hyperedges": {
                    label: [v for v in self.vertices if v in members]
                    for label, members in self.edges
                },
            },
            indent=2,
        )

    def write(self, directory: Path) -> Path:
        path = directory / f"{self.name}.json"
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    def vertex_nullity(self) -> int:
        """dim ker I^T, computed exactly with integer elimination."""
        return len(self.vertices) - int_rank(incidence_rows(self))


def random_connected(rng: random.Random, name: str, n: int, m: int) -> Instance:
    """Connected hypergraph with ``m`` distinct edges of EDGE_SIZE vertices each.

    A spanning chain comes first: each edge adds up to EDGE_SIZE - 1 new
    vertices and reuses covered ones, so every vertex has an edge and the
    whole is connected. The remaining edges are uniform EDGE_SIZE-subsets.
    """
    size = EDGE_SIZE
    verts = [f"v{i}" for i in range(n)]
    perm = verts[:]
    rng.shuffle(perm)
    covered = perm[:size]
    members = [frozenset(covered)]
    i = size
    while i < n:
        new = perm[i : i + size - 1]
        i += len(new)
        members.append(frozenset(new + rng.sample(covered, size - len(new))))
        covered = covered + new
    if len(members) > m:
        raise GeneratorError(f"{name}: {m} edges cannot span {n} vertices")
    seen = set(members)
    while len(members) < m:
        e = frozenset(rng.sample(verts, size))
        if e not in seen:
            seen.add(e)
            members.append(e)
    rng.shuffle(members)
    inst = Instance(name, tuple(verts), tuple((f"e{j}", e) for j, e in enumerate(members)))
    if not is_connected(inst):
        raise GeneratorError(f"{name} is not connected")
    return inst


def relabeled(inst: Instance, rng: random.Random) -> Instance:
    """The same hypergraph in the same declaration order, labels permuted."""
    names = list(inst.vertices)
    rng.shuffle(names)
    rename = dict(zip(inst.vertices, names))
    labels = [label for label, _ in inst.edges]
    rng.shuffle(labels)
    edges = tuple(
        (label, frozenset(rename[v] for v in members))
        for label, (_, members) in zip(labels, inst.edges)
    )
    return Instance(inst.name, tuple(names), edges)


def twins_with_hub(rng: random.Random, name: str, k: int) -> Instance:
    """``k`` twin pairs a_i, b_i and a hub h; nullity(I^T) is exactly ``k``.

    Edge p_i = {a_i, b_i} and edge g_i = {h, a_i, b_i} give a_i and b_i the
    same star, and g_i - p_i = h for every i, so rank(I) = k + 1 on
    2k + 1 vertices. The seed permutes the labels only.
    """
    verts = ["h"] + [f"{s}{i}" for i in range(k) for s in ("a", "b")]
    edges = [(f"p{i}", frozenset({f"a{i}", f"b{i}"})) for i in range(k)]
    edges += [(f"g{i}", frozenset({"h", f"a{i}", f"b{i}"})) for i in range(k)]
    inst = relabeled(Instance(name, tuple(verts), tuple(edges)), rng)
    if not is_connected(inst):
        raise GeneratorError(f"{name} is not connected")
    if inst.vertex_nullity() != k:
        raise GeneratorError(f"{name}: nullity(I^T) is not {k}")
    return inst


def spectra_family(rng: random.Random, n: int) -> Instance:
    """Random connected instance with m = 3n/4, so nullity(I^T) >= n/4."""
    inst = random_connected(rng, f"s{n}", n, (3 * n) // 4)
    if 4 * inst.vertex_nullity() < n:
        raise GeneratorError(f"{inst.name}: nullity(I^T) below n/4")
    return inst
