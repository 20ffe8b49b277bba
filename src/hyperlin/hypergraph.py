"""Core hypergraph model, parsing, and incidence constructions.

A hypergraph is a finite labeled vertex sequence plus a labeled sequence of
hyperedges, where each hyperedge is a non-empty subset of the vertices,
no two hyperedges share the same member set, and no label names both a
vertex and a hyperedge. Vertex and hyperedge order is preserved everywhere
so derived matrices and reports are deterministic.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Sequence

from .errors import (
    DuplicateHyperedgeSetError,
    EmptyHyperedgeError,
    EmptyStarError,
    HypergraphSyntaxError,
    IsolatedVertexError,
    UnknownVertexError,
)
from .linalg import RationalMatrix, _known

__all__ = [
    "Hypergraph",
    "IncidenceGraph",
    "parse",
    "incidence_matrix",
    "incidence_graph",
    "incidence_graph_adjacency",
    "dual",
]


@dataclass(frozen=True)
class Hypergraph:
    """Immutable labeled hypergraph.

    vertices: vertex labels in declaration order.
    hyperedges: (label, members) pairs in declaration order; a member
    listed twice is an error, not read as once.
    """

    vertices: tuple[str, ...]
    hyperedges: tuple[tuple[str, frozenset[str]], ...]
    #: Hyperedge labels in declaration order.
    edge_labels: tuple[str, ...] = field(init=False, repr=False, compare=False)
    #: Indexes built once so ``star``, ``degree`` and ``members`` scan nothing.
    _stars: dict[str, frozenset[str]] = field(init=False, repr=False, compare=False)
    _members: dict[str, frozenset[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        verts = tuple(str(v) for v in self.vertices)
        if len(set(verts)) != len(verts):
            raise HypergraphSyntaxError("duplicate vertex labels")
        vert_set = set(verts)
        members_of: dict[str, frozenset[str]] = {}
        seen_sets: dict[frozenset[str], str] = {}
        for label, members in self.hyperedges:
            label = str(label)
            listed = [str(m) for m in members]
            members = frozenset(listed)
            if len(members) < len(listed):
                raise HypergraphSyntaxError(
                    f"hyperedge {label!r} lists {_repeated_member(listed)!r} twice"
                )
            if label in members_of:
                raise HypergraphSyntaxError(f"duplicate hyperedge label {label!r}")
            if not members:
                raise EmptyHyperedgeError(f"hyperedge {label!r} is empty")
            unknown = members - vert_set
            if unknown:
                raise UnknownVertexError(
                    f"hyperedge {label!r} uses undeclared vertices: {sorted(unknown)}"
                )
            if members in seen_sets:
                raise DuplicateHyperedgeSetError(
                    f"hyperedges {seen_sets[members]!r} and {label!r} have the same members"
                )
            seen_sets[members] = label
            members_of[label] = members
        shared = vert_set & members_of.keys()
        if shared:
            raise HypergraphSyntaxError(
                f"labels name both a vertex and a hyperedge: {sorted(shared)}"
            )
        edges = tuple(members_of.items())
        stars = {v: frozenset(label for label, ms in edges if v in ms) for v in verts}
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "hyperedges", edges)
        object.__setattr__(self, "edge_labels", tuple(members_of))
        object.__setattr__(self, "_stars", stars)
        object.__setattr__(self, "_members", members_of)

    # -- basic accessors --------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_hyperedges(self) -> int:
        return len(self.hyperedges)

    def members(self, edge_label: str) -> frozenset[str]:
        members = self._members.get(edge_label)
        if members is None:
            _known([edge_label], self._members, "hyperedges")
        return members

    def star(self, v: str) -> frozenset[str]:
        """Labels of the hyperedges containing ``v``."""
        star = self._stars.get(v)
        if star is None:
            _known([v], self._stars, "vertices")
        return star

    def degree(self, v: str) -> int:
        return len(self.star(v))

    def vertex_order(self, labels: Iterable[str]) -> tuple[str, ...]:
        """The given vertex labels, sorted into declaration order."""
        given = set(labels)
        _known(given, self._stars, "vertices")
        return tuple(v for v in self.vertices if v in given)

    def is_connected(self) -> bool:
        """True when every vertex is reachable through shared hyperedges."""
        if not self.vertices:
            return True
        links = self._stars | self._members  # G_H: vertex and edge labels never collide
        return self._stars.keys() <= _hops(self.vertices[0], links.__getitem__).keys()

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        """Canonical order-preserving JSON form."""
        return {
            "vertices": list(self.vertices),
            "hyperedges": {
                label: [v for v in self.vertices if v in members]
                for label, members in self.hyperedges
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def digest(self) -> str:
        """Hex digest of the canonical JSON form."""
        text = json.dumps(self.to_json_dict(), separators=(",", ":"), sort_keys=False)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @classmethod
    def from_members(
        cls,
        hyperedges: Iterable[tuple[str, Iterable[str]]],
        vertices: Sequence[str] | None = None,
    ) -> "Hypergraph":
        """Build from (label, members) pairs.

        With an explicit ``vertices`` sequence every member must be declared
        in it. When ``vertices`` is omitted the vertex order is the first
        appearance order across hyperedges.
        """
        pairs = [(str(label), [str(m) for m in members]) for label, members in hyperedges]
        if vertices is None:
            vertices = dict.fromkeys(m for _, members in pairs for m in members)
        return cls(tuple(vertices), tuple(pairs))

    @classmethod
    def from_json(cls, text: str) -> "Hypergraph":
        """Parse the canonical JSON form.

        A repeated key anywhere is an error.
        """
        try:
            data = json.loads(text, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, a number over the digit limit, or nesting too deep to decode
            raise HypergraphSyntaxError(f"invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise HypergraphSyntaxError("top level must be an object")
        if "vertices" not in data or "hyperedges" not in data:
            raise HypergraphSyntaxError("need 'vertices' and 'hyperedges' keys")
        verts = data["vertices"]
        edges = data["hyperedges"]
        if not isinstance(verts, list) or not all(isinstance(v, str) for v in verts):
            raise HypergraphSyntaxError("'vertices' must be a list of strings")
        if not isinstance(edges, dict):
            raise HypergraphSyntaxError("'hyperedges' must be an object")
        pairs = []
        for label, members in edges.items():
            if not isinstance(members, list) or not all(isinstance(m, str) for m in members):
                raise HypergraphSyntaxError(f"members of {label!r} must be a list of strings")
            pairs.append((label, members))
        return cls(tuple(verts), tuple(pairs))

    @classmethod
    def from_lines(cls, text: str) -> "Hypergraph":
        """Parse the line format ``label: v1 v2 ...``.

        Lines starting with ``#`` are comments, except ``#vertices:`` which
        declares vertex order up front (and is the only way to get isolated
        vertices into this format). Vertex order is header order followed
        by first appearance.
        """
        declared: list[str] = []
        pairs: list[tuple[str, list[str]]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.lower().startswith("vertices:"):
                    for v in body[len("vertices:"):].split():
                        if v in declared:
                            raise HypergraphSyntaxError(
                                f"line {lineno}: vertex {v!r} declared twice"
                            )
                        declared.append(v)
                continue
            if ":" not in line:
                raise HypergraphSyntaxError(f"line {lineno}: expected 'label: members'")
            label, _, rest = line.partition(":")
            label = label.strip()
            if not label or " " in label:
                raise HypergraphSyntaxError(f"line {lineno}: bad hyperedge label {label!r}")
            members = rest.split()
            if not members:
                raise EmptyHyperedgeError(f"line {lineno}: hyperedge {label!r} is empty")
            repeated = _repeated_member(members)
            if repeated is not None:
                raise HypergraphSyntaxError(
                    f"line {lineno}: hyperedge {label!r} lists {repeated!r} twice"
                )
            pairs.append((label, members))
        order = dict.fromkeys([*declared, *(m for _, members in pairs for m in members)])
        return cls(tuple(order), tuple(pairs))


def _hops(start: Hashable, neighbours: Callable[[Hashable], Iterable[Hashable]]) -> dict:
    """Breadth-first hop counts from ``start`` in discovery order; unreached nodes are absent."""
    hops, queue = {start: 0}, deque([start])
    while queue:
        node = queue.popleft()
        step = hops[node] + 1
        for nxt in neighbours(node):
            if nxt not in hops:
                hops[nxt] = step
                queue.append(nxt)
    return hops


def _require_incident(h: Hypergraph) -> None:
    """The one isolated-vertex rule: IsolatedVertexError names the first vertex in no hyperedge."""
    for v in h.vertices:
        if h.degree(v) == 0:
            raise IsolatedVertexError(f"vertex {v!r} has no incident hyperedge")


def _repeated_member(members: list[str]) -> str | None:
    """The first member listed a second time, or None.

    A set would silently drop the repeat, so a hyperedge rejects it instead.
    """
    seen: set[str] = set()
    for m in members:
        if m in seen:
            return m
        seen.add(m)
    return None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """JSON object hook that rejects a key given twice instead of keeping the last."""
    out = dict(pairs)
    if len(out) < len(pairs):
        keys = [k for k, _ in pairs]
        repeated = sorted(k for k in out if keys.count(k) > 1)
        raise HypergraphSyntaxError(f"duplicate JSON keys {repeated}")
    return out


def parse(text: str, format: str = "json") -> Hypergraph:
    """Parse hypergraph text in the ``json`` or ``lines`` format."""
    if format == "json":
        return Hypergraph.from_json(text)
    if format == "lines":
        return Hypergraph.from_lines(text)
    raise ValueError(f"unknown format {format!r}")


def incidence_matrix(h: Hypergraph) -> RationalMatrix:
    """0/1 incidence matrix: rows are vertices, columns are hyperedges."""
    rows = [[int(v in members) for _, members in h.hyperedges] for v in h.vertices]
    return RationalMatrix._trusted(h.vertices, h.edge_labels, rows)


def _dot_quote(text: str) -> str:
    """``text`` as a DOT quoted string: backslashes and double quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot(
    name: str, nodes: Iterable[tuple[str, str | None, str]], edges: Iterable[tuple[str, str]]
) -> str:
    """Graphviz text of an undirected graph: nodes are (id, label or None, shape)."""
    out = [f"graph {name} {{"]
    for node, label, shape in nodes:
        shown = "" if label is None else f"label={_dot_quote(label)}, "
        out.append(f"  {_dot_quote(node)} [{shown}shape={shape}];")
    out += [f"  {_dot_quote(a)} -- {_dot_quote(b)};" for a, b in edges]
    return "\n".join(out) + "\n}\n"


@dataclass(frozen=True)
class IncidenceGraph:
    """Bipartite incidence graph: vertices on the left, hyperedges on the right."""

    left: tuple[str, ...]
    right: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    @property
    def n_nodes(self) -> int:
        return len(self.left) + len(self.right)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def to_dot(self) -> str:
        """Graphviz rendering with circles for vertices and boxes for hyperedges."""
        vertices = [("v_" + v, v, "circle") for v in self.left]
        edges = [("e_" + e, e, "box") for e in self.right]
        return _dot("incidence", vertices + edges, [("v_" + v, "e_" + e) for v, e in self.edges])


def incidence_graph(h: Hypergraph) -> IncidenceGraph:
    """The bipartite graph joining each vertex to the hyperedges containing it."""
    pairs = tuple((v, label) for label, members in h.hyperedges for v in h.vertices if v in members)
    return IncidenceGraph(left=h.vertices, right=h.edge_labels, edges=pairs)


def incidence_graph_adjacency(h: Hypergraph) -> RationalMatrix:
    """Adjacency matrix of the incidence graph.

    Block form: the top-right block is the incidence matrix, the bottom-left
    its transpose, the diagonal blocks are zero. Rows and columns are labeled
    by vertices followed by hyperedge labels, which never collide.
    """
    inc = incidence_matrix(h).numerators
    labels = h.vertices + h.edge_labels
    n, m = h.n_vertices, h.n_hyperedges
    rows = [[0] * n + list(row) for row in inc]
    rows += [[row[j] for row in inc] + [0] * m for j in range(m)]
    return RationalMatrix._trusted(labels, labels, rows)

def dual(h: Hypergraph) -> Hypergraph:
    """Dual hypergraph: vertices are hyperedge labels, hyperedges are stars.

    Equal stars are deduplicated (keeping first appearance), and each dual
    hyperedge is labeled by the first vertex that generates its star.

    Raises
    ------
    EmptyStarError
        If some vertex has an empty star, since an empty hyperedge is not
        allowed on the dual side.
    """
    star_edges: list[tuple[str, frozenset[str]]] = []
    seen: set[frozenset[str]] = set()
    for v in h.vertices:
        s = h.star(v)
        if not s:
            raise EmptyStarError(f"vertex {v!r} has an empty star")
        if s in seen:
            continue
        seen.add(s)
        star_edges.append((v, s))
    return Hypergraph(h.edge_labels, tuple(star_edges))
