"""Reference hypergraphs used across tests, demos, and documentation.

Each builder returns a fresh immutable hypergraph. The same instances ship
as JSON files (see write_fixture_pack), and the HYPERLIN_FIXTURES
environment variable points the command line tool at such a directory.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Mapping

from .hypergraph import Hypergraph

__all__ = [
    "hub_cycle",
    "nested_chain",
    "leave_one_out",
    "unit_blocks",
    "balanced_overlap",
    "double_cover",
    "duplicated_nested",
    "write_fixture_pack",
    "fixtures_dir",
    "resolve_input_path",
]


def hub_cycle() -> Hypergraph:
    """Four triangles sharing a hub vertex around a 4-cycle, plus one chord.

    The four triangles satisfy one alternating-sign dependence, so both the
    vertex rows and the hyperedge columns of the incidence matrix are
    linearly dependent (rank 4 out of 5).
    """
    return Hypergraph.from_members(
        [
            ("e1", ["1", "2", "5"]),
            ("e2", ["2", "3", "5"]),
            ("e3", ["3", "4", "5"]),
            ("e4", ["1", "4", "5"]),
            ("e5", ["1", "2"]),
        ],
        vertices=["1", "2", "3", "4", "5"],
    )


def nested_chain(n: int) -> Hypergraph:
    """Hyperedges {1}, {1,2}, ..., {1..n}: a nonsingular triangular family."""
    return duplicated_nested(n)


def leave_one_out(n: int) -> Hypergraph:
    """Hyperedge i is everything except vertex i; determinant (-1)^(n-1) (n-1)."""
    if n < 2:
        raise ValueError("need n >= 2")
    verts = [str(i) for i in range(1, n + 1)]
    edges = [
        (f"e{i}", [str(j) for j in range(1, n + 1) if j != i]) for i in range(1, n + 1)
    ]
    return Hypergraph.from_members(edges, vertices=verts)


def unit_blocks() -> Hypergraph:
    """Eleven vertices falling into six units, five overlapping hyperedges.

    The units have sizes 2, 2, 3, 2, 1, 1, so contracting them removes five
    dimensions of nullspace; one dimension survives in the contraction.
    """
    return Hypergraph.from_members(
        [
            ("e1", ["1", "2", "5", "6", "7", "10", "11"]),
            ("e2", ["1", "2", "3", "4"]),
            ("e3", ["3", "4", "10"]),
            ("e4", ["5", "6", "7", "8", "9"]),
            ("e5", ["8", "9", "10", "11"]),
        ],
        vertices=[str(i) for i in range(1, 12)],
    )


def balanced_overlap() -> Hypergraph:
    """Three 4-member hyperedges meeting {1,5} twice and {2,3,4} twice each.

    The pair ({1,5}, {2,3,4}) is an equal partition: every hyperedge meets
    both sides in the same count.
    """
    return Hypergraph.from_members(
        [
            ("e1", ["1", "2", "3", "5"]),
            ("e2", ["1", "3", "4", "5"]),
            ("e3", ["1", "2", "4", "5"]),
        ],
        vertices=["1", "2", "3", "4", "5"],
    )


def double_cover() -> tuple[Hypergraph, Hypergraph, dict[str, str]]:
    """A two-sheeted cover of an 8-vertex, 4-hyperedge base.

    Returns (cover, base, projection). The projection sends both sheets
    u_i, v_i onto i; every star maps bijectively and every hyperedge keeps
    its size, so this classifies as a cardinality preserving covering.
    """
    cover = Hypergraph.from_members(
        [
            ("e1", ["u3", "u4", "u5"]),
            ("e2", ["v3", "v4", "v5"]),
            ("f1", ["u5", "v6", "v7"]),
            ("f2", ["v5", "u6", "u7"]),
            ("g1", ["u1", "u7", "u8"]),
            ("g2", ["v1", "v7", "v8"]),
            ("h1", ["u1", "u2", "u3"]),
            ("h2", ["v1", "v2", "v3"]),
        ],
        vertices=[f"u{i}" for i in range(1, 9)] + [f"v{i}" for i in range(1, 9)],
    )
    base = Hypergraph.from_members(
        [
            ("e", ["3", "4", "5"]),
            ("f", ["5", "6", "7"]),
            ("g", ["1", "7", "8"]),
            ("h", ["1", "2", "3"]),
        ],
        vertices=[str(i) for i in range(1, 9)],
    )
    projection = {f"u{i}": str(i) for i in range(1, 9)}
    projection.update({f"v{i}": str(i) for i in range(1, 9)})
    return cover, base, projection


def duplicated_nested(n: int, multiplicities: Mapping[int, int] | None = None) -> Hypergraph:
    """Nested chain with selected positions split into twin vertices.

    multiplicities maps a position (1-based) to its copy count; omitted
    positions keep one copy. Twins share a star, so the units are exactly
    the copy groups and the contraction is the plain nested chain. The
    incidence rows form a staircase of full rank n, so the incidence-graph
    nullity equals the total number of extra copies.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    mult = {int(k): int(v) for k, v in (multiplicities or {}).items()}
    for k, v in mult.items():
        if not 1 <= k <= n or v < 1:
            raise ValueError("multiplicities must map positions to counts >= 1")
    copies: dict[int, list[str]] = {}
    verts: list[str] = []
    for i in range(1, n + 1):
        k = mult.get(i, 1)
        if k == 1:
            copies[i] = [str(i)]
        else:
            copies[i] = [f"{i}{chr(ord('a') + j)}" for j in range(k)]
        verts.extend(copies[i])
    edges = []
    for i in range(1, n + 1):
        members: list[str] = []
        for j in range(1, i + 1):
            members.extend(copies[j])
        edges.append((f"e{i}", members))
    return Hypergraph.from_members(edges, vertices=verts)


_FIXTURE_BUILDERS = {
    "h_a": hub_cycle,
    "h_tri_4": lambda: nested_chain(4),
    "h_circ_4": lambda: leave_one_out(4),
    "h_units": unit_blocks,
    "h_eq": balanced_overlap,
    "h_cov_source": lambda: double_cover()[0],
    "h_cov_base": lambda: double_cover()[1],
}


def write_fixture_pack(directory: str | Path) -> list[Path]:
    """Write every named fixture as canonical JSON into ``directory``.

    Ships the hub-and-cycle example, one member each of the triangular and
    leave-one-out families, the unit-decomposition example, the balanced
    overlap example, and the two-sheet cover pair together with its vertex
    projection map.
    """
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, builder in _FIXTURE_BUILDERS.items():
        path = out / f"{name}.json"
        path.write_text(builder().to_json() + "\n", encoding="utf-8")
        written.append(path)
    _, _, projection = double_cover()
    map_path = out / "h_cov_map.json"
    map_path.write_text(
        json.dumps(projection, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    written.append(map_path)
    return written


def fixtures_dir() -> Path | None:
    """Directory named by the HYPERLIN_FIXTURES environment variable, if set."""
    value = os.environ.get("HYPERLIN_FIXTURES")
    return Path(value) if value else None


def resolve_input_path(path: str | Path) -> Path:
    """Resolve an input path, falling back to the fixtures directory.

    A path that does not exist as given is looked up relative to
    HYPERLIN_FIXTURES when that variable is set; the original path is
    returned otherwise so the caller reports the right name.
    """
    p = Path(path)
    if p.exists():
        return p
    base = fixtures_dir()
    if base is not None:
        candidate = base / p
        if candidate.exists():
            return candidate
    return p
