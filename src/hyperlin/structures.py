"""Dependence certificates and combinatorial substructures.

This module finds and verifies the structures that witness linear
dependence among vertices or hyperedges: coefficient-vector certificates,
units (maximal sets of vertices with identical stars), unit contraction,
equal partitions, star partitions, and covering projections between
hypergraphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import compress, product
from typing import Iterable, Mapping

from .errors import (
    InvalidCertificateError,
    NotCardinalityPreservingError,
    NotDisjointError,
    NotInNullspaceError,
    OverlapError,
    TooSmallError,
    UnknownLabelError,
)
from .hypergraph import (
    Hypergraph,
    _dot,
    incidence_graph_adjacency,
    incidence_matrix,
)
from .linalg import NullspaceBasis, RationalLike, _int_array, _integer, _known, nullspace, rat, vector_support

__all__ = [
    "CertificateKind",
    "Certificate",
    "Unit",
    "UnitDecomposition",
    "ContractionMap",
    "ProjectionClass",
    "dependent_vertices",
    "dependent_hyperedges",
    "is_dependent_set",
    "vertex_pair_certificate",
    "partition_certificate",
    "units",
    "unit_contraction",
    "verify_unit_maximality",
    "contraction_nullspace_lift",
    "verify_equal_edge_partition",
    "find_equal_edge_partitions",
    "verify_star_partition",
    "verify_equal_star_partition",
    "verify_covering_projection",
    "pullback_dependent_set",
]


class CertificateKind(str, Enum):
    DEPENDENT_VERTICES = "DependentVertices"
    DEPENDENT_HYPEREDGES = "DependentHyperedges"
    EQUAL_EDGE_PARTITION = "EqualEdgePartition"
    EQUAL_STAR_PARTITION = "EqualStarPartition"
    STAR_PARTITION = "StarPartition"
    UNIT_WITNESS = "UnitWitness"


#: Which matrix annihilates a certificate of each flavor.
VERTEX_AXIS = "I_H^T"
EDGE_AXIS = "I_H"


@dataclass(frozen=True)
class Certificate:
    """An exact coefficient vector witnessing a dependence.

    coefficients maps every label of the ambient axis (all vertices, or all
    hyperedges) to a rational; support is exactly the set of labels with a
    nonzero coefficient.
    """

    kind: CertificateKind
    support: frozenset[str]
    coefficients: dict[str, Fraction]
    annihilated_by: str

    def __post_init__(self) -> None:
        coeffs = {str(k): rat(v) for k, v in self.coefficients.items()}
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "support", frozenset(str(s) for s in self.support))
        if self.support != vector_support(coeffs):
            raise InvalidCertificateError("support must equal the nonzero coefficients")
        if self.annihilated_by not in (VERTEX_AXIS, EDGE_AXIS, "A_GH"):
            raise InvalidCertificateError(f"unknown annihilator {self.annihilated_by!r}")

    @property
    def is_zero(self) -> bool:
        return not self.support

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "annihilated_by": self.annihilated_by,
            "support": sorted(self.support),
            "coefficients": {k: str(v) for k, v in self.coefficients.items()},
        }


def _certificate_from_vector(
    kind: CertificateKind, ambient: Iterable[str],
    values: Mapping[str, RationalLike], annihilated_by: str,
) -> Certificate:
    """The certificate of ``values`` over ``ambient``, in its order: 0 where none is given."""
    coeffs = {lab: values.get(lab, 0) for lab in ambient}
    return Certificate(
        kind=kind,
        support=vector_support(coeffs),
        coefficients=coeffs,
        annihilated_by=annihilated_by,
    )


def dependent_vertices(h: Hypergraph) -> Certificate | None:
    """Canonical certificate that V(H) is linearly dependent, if it is.

    The certificate is the first vector of the canonical nullspace basis of
    the transposed incidence matrix (the basis vector whose free column
    comes first in vertex order). Returns None when the vertex rows are
    independent.
    """
    return is_dependent_set(h, h.vertices, "vertices")


def dependent_hyperedges(h: Hypergraph) -> Certificate | None:
    """Canonical certificate that E(H) is linearly dependent, if it is."""
    return is_dependent_set(h, h.edge_labels, "hyperedges")


def is_dependent_set(h: Hypergraph, labels: Iterable[str], axis: str = "vertices") -> Certificate | None:
    """Certificate supported inside ``labels``, or None if that set is independent.

    axis is ``"vertices"`` (columns of the transposed incidence matrix) or
    ``"hyperedges"`` (columns of the incidence matrix). The restriction to the
    candidate set is solved exactly, and the certificate is embedded back
    into the full axis with zeros outside the set.
    """
    wanted = set(str(l) for l in labels)
    if axis == "vertices":
        m = incidence_matrix(h).transpose()
        ambient = h.vertices
        kind, annihilator = CertificateKind.DEPENDENT_VERTICES, VERTEX_AXIS
    elif axis == "hyperedges":
        m = incidence_matrix(h)
        ambient = h.edge_labels
        kind, annihilator = CertificateKind.DEPENDENT_HYPEREDGES, EDGE_AXIS
    else:
        raise ValueError(f"axis must be 'vertices' or 'hyperedges', got {axis!r}")
    _known(wanted, ambient, axis)
    cols = [l for l in ambient if l in wanted]
    if not cols:
        return None
    sub = m.submatrix(m.row_labels, cols)
    basis = nullspace(sub)
    if basis.dimension == 0:
        return None
    return _certificate_from_vector(kind, ambient, basis.vectors[0], annihilator)


def vertex_pair_certificate(h: Hypergraph, u: str, v: str) -> Certificate:
    """The difference vector of two vertices with identical stars.

    This is the simplest dependence certificate: +1 on the first vertex in
    declaration order, -1 on the other. Raises InvalidCertificateError when
    the stars differ (the difference would not be annihilated) or when u and
    v are one vertex.
    """
    pair = h.vertex_order([u, v])
    if len(pair) == 1:
        raise InvalidCertificateError(f"vertex {u!r} is given twice; a pair needs two vertices")
    first, second = pair
    if h.star(first) != h.star(second):
        raise InvalidCertificateError(f"vertices {u!r} and {v!r} have different stars")
    return _certificate_from_vector(
        CertificateKind.DEPENDENT_VERTICES, h.vertices, {first: 1, second: -1}, VERTEX_AXIS
    )


def partition_certificate(h: Hypergraph, u_part: Iterable[str], v_part: Iterable[str]) -> Certificate:
    """Certificate chi_U - chi_V for a verified equal partition."""
    u_part, v_part = list(u_part), list(v_part)
    ok, _ = verify_equal_edge_partition(h, u_part, v_part)
    if not ok:
        raise InvalidCertificateError("the pair is not an equal partition")
    coeffs = {str(x): 1 for x in u_part} | {str(x): -1 for x in v_part}
    return _certificate_from_vector(
        CertificateKind.EQUAL_EDGE_PARTITION, h.vertices, coeffs, VERTEX_AXIS
    )


# -- units ------------------------------------------------------------------


@dataclass(frozen=True)
class Unit:
    """A maximal set of vertices sharing one star (the unit's generator)."""

    members: tuple[str, ...]
    generator: frozenset[str]

    @property
    def label(self) -> str:
        return "{" + ",".join(self.members) + "}"

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class UnitDecomposition:
    """All units of a hypergraph, in deterministic order."""

    units: tuple[Unit, ...]

    def unit_of(self, v: str) -> Unit:
        for u in self.units:
            if v in u.members:
                return u
        _known([v], (m for u in self.units for m in u.members), "vertices")  # raises

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(u.label for u in self.units)

    def to_json_dict(self) -> dict:
        return {
            "units": [
                {"members": list(u.members), "generator": sorted(u.generator)}
                for u in self.units
            ]
        }


def units(h: Hypergraph) -> UnitDecomposition:
    """Group the vertices into units (star-equivalence classes).

    Members inside a unit are sorted by label and units are ordered by
    their smallest member label, so reports are reproducible. Isolated
    vertices form units with an empty generator.
    """
    by_star: dict[frozenset[str], list[str]] = {}
    for v in h.vertices:
        by_star.setdefault(h.star(v), []).append(v)
    out = [
        Unit(members=tuple(sorted(members)), generator=star)
        for star, members in by_star.items()
    ]
    out.sort(key=lambda u: u.members[0])
    return UnitDecomposition(units=tuple(out))


@dataclass(frozen=True)
class ContractionMap:
    """The quotient of a hypergraph by its unit partition.

    vertex_map sends each source vertex to its unit's label; edge_map is the
    induced bijection between source hyperedges and contracted hyperedges
    (labels are preserved, so it is the identity on labels).
    """

    source: Hypergraph
    contracted: Hypergraph
    decomposition: UnitDecomposition
    vertex_map: dict[str, str]
    edge_map: dict[str, str]

    def to_json_dict(self) -> dict:
        return {
            "contracted": self.contracted.to_json_dict(),
            "vertex_map": dict(self.vertex_map),
            "edge_map": dict(self.edge_map),
        }

    def to_dot(self) -> str:
        """Incidence rendering of the contraction, units drawn as boxes."""
        c = self.contracted
        units = [("u_" + u, u, "box") for u in c.vertices]
        edges = [("e_" + e, e, "ellipse") for e in c.edge_labels]
        pairs = [("u_" + u, "e_" + e) for e, ms in c.hyperedges for u in c.vertices if u in ms]
        return _dot("contraction", units + edges, pairs)


def unit_contraction(h: Hypergraph) -> ContractionMap:
    """Contract every unit to a single vertex.

    Each hyperedge maps to the set of units it meets; two source hyperedges
    can never collapse onto the same unit set (a hyperedge is the union of
    the units it meets, so the unit set pins the member set down), hence the
    edge map is a bijection and keeps the original labels. A hypergraph all
    of whose units are singletons contracts to an isomorphic copy of itself.
    A hyperedge labeled like a unit (``"{a,b}"``) would name both a vertex
    and a hyperedge of the contraction, so it raises HypergraphSyntaxError.
    """
    decomp = units(h)
    vmap = {v: u.label for u in decomp.units for v in u.members}
    contracted_edges = [
        (label, frozenset(vmap[v] for v in members)) for label, members in h.hyperedges
    ]
    contracted = Hypergraph(decomp.labels, tuple(contracted_edges))
    return ContractionMap(
        source=h,
        contracted=contracted,
        decomposition=decomp,
        vertex_map=vmap,
        edge_map={label: label for label in h.edge_labels},
    )


def verify_unit_maximality(h: Hypergraph, candidate: Iterable[str]) -> bool:
    """True iff ``candidate`` is exactly one unit with at least two members.

    Equivalently: all pairwise difference vectors of the candidate are
    annihilated by the incidence-graph adjacency, and no strict superset has
    that property.
    """
    cand = [str(v) for v in candidate]
    if len(set(cand)) < 2:
        raise TooSmallError("a unit check needs at least two distinct vertices")
    _known(cand, h._stars, "vertices")
    if len(set(cand)) != len(cand):
        repeated = sorted({v for v in cand if cand.count(v) > 1})
        raise OverlapError(f"repeated vertices in the candidate: {repeated}")
    star = h.star(cand[0])
    return {v for v in h.vertices if h.star(v) == star} == set(cand)


def contraction_nullspace_lift(
    h: Hypergraph, z: Mapping[str, Fraction]
) -> dict[str, Fraction]:
    """Lift a nullspace vector of the contracted incidence-graph adjacency.

    ``z`` is indexed by the contraction's incidence-graph nodes (unit labels
    and hyperedge labels) and must be annihilated by that adjacency matrix.
    The lift spreads each unit value uniformly over the unit's members
    (value divided by unit size) and copies hyperedge values across the edge
    bijection. The result is annihilated by the source adjacency matrix.
    """
    cmap = unit_contraction(h)
    adj = incidence_graph_adjacency(cmap.contracted)
    zz = {str(k): rat(v) for k, v in z.items()}
    _known(zz, adj.row_labels, "contraction labels")
    image = adj.apply(zz)
    if any(v != 0 for v in image.values()):
        raise NotInNullspaceError("vector is not annihilated by the contracted adjacency")
    lifted: dict[str, Fraction] = {}
    for unit in cmap.decomposition.units:
        value = zz.get(unit.label, Fraction(0)) / unit.size
        for v in unit.members:
            lifted[v] = value
    for e in h.edge_labels:
        lifted[e] = zz.get(cmap.edge_map[e], Fraction(0))
    return lifted


# -- partitions ---------------------------------------------------------------


def _check_disjoint(
    universe: Mapping[str, object], a: Iterable, b: Iterable, what: str
) -> tuple[frozenset[str], frozenset[str]]:
    """``a`` and ``b`` as disjoint label sets, every label a key of ``universe``.

    Raises UnknownLabelError naming the unknown ``what``, else NotDisjointError.
    """
    a_set = frozenset(str(x) for x in a)
    b_set = frozenset(str(x) for x in b)
    _known(a_set | b_set, universe, what)
    if a_set & b_set:
        raise NotDisjointError(f"sets overlap on {sorted(a_set & b_set)}")
    return a_set, b_set


def _equal_counts(
    sets: Iterable[tuple[str, frozenset[str]]], a: frozenset[str], b: frozenset[str]
) -> tuple[bool, dict[str, tuple[int, int]]]:
    """The table of (|a meet s|, |b meet s|) over the labeled sets (label, s),
    and whether every row is equal: the one counting rule of both axes."""
    table = {label: (len(a & s), len(b & s)) for label, s in sets}
    return all(x == y for x, y in table.values()), table


def verify_equal_edge_partition(
    h: Hypergraph, u_part: Iterable[str], v_part: Iterable[str]
) -> tuple[bool, dict[str, tuple[int, int]]]:
    """Check |U meet e| == |V meet e| for every hyperedge e.

    Returns the verdict plus the per-edge count table that witnesses it.
    U and V must be disjoint vertex sets.
    """
    u_set, v_set = _check_disjoint(h._stars, u_part, v_part, "vertices")
    return _equal_counts(h.hyperedges, u_set, v_set)


#: Most cells, rows times width, in one block of ``_sign_sums``: 128 KiB of
#: int64 sums, which stays in a core's L2 cache and bounds a call's memory
#: however many digits it runs, while a block still has rows enough (243 at
#: width 64) to amortize numpy's per-call cost. Measured on a 2-core VM,
#: 2^13 to 2^18 time alike on the check fixtures, and 2^14 is fastest on
#: twins with a hub, k = 9.
_BLOCK_CELLS = 1 << 14


def _sign_sums(vectors, start, allowed):
    """Yield blocks ``(c, sums)`` of every c in {-1, 0, 1}^k whose sums
    start + sum_j c_j vectors[j] all lie in ``allowed``, k dense int vectors.

    The 3^b partial sums of the first b digits are built once, b the most
    that keeps a block within ``_BLOCK_CELLS``, row r holding digit j at
    r // 3^j % 3 - 1; each assignment of the other digits shifts them, and
    one vectorized test keeps the rows in range. Every sum is at most
    max|start| + k max|vectors|, so ``_int_array`` takes the vectors, and
    the start with the allowed values, at weight k + 1.
    """
    import numpy as np

    k, width = len(vectors), len(start)
    vecs = _int_array(vectors, k + 1).reshape(k, width)
    ends = _int_array([*start, *allowed], k + 1)
    b = k
    while b and 3**b * max(width, 1) > _BLOCK_CELLS:
        b -= 1
    part, allowed = ends[None, :width], ends[width:]
    for v in vecs[:b]:
        part = (np.multiply.outer((-1, 0, 1), v)[:, None] + part).reshape(3 * len(part), width)
    for high in product((-1, 0, 1), repeat=k - b):
        sums = part + np.array(high, dtype=vecs.dtype) @ vecs[b:]
        rows = np.flatnonzero(np.logical_or.reduce([sums == a for a in allowed]).all(axis=1))
        if len(rows):
            c = np.empty((len(rows), k), dtype=np.int8)
            c[:, :b], c[:, b:] = rows[:, None] // 3 ** np.arange(b) % 3 - 1, high
            yield c, sums[rows]


def _oriented_pairs(labels, signs) -> list[tuple[frozenset[str], frozenset[str]]]:
    """The pair (U, V), U where it is 1 and V where -1, of each row of the 2-d
    numpy array ``signs`` whose first nonzero entry is 1."""
    import numpy as np

    signs = signs[signs[np.arange(len(signs)), (signs != 0).argmax(axis=1)] > 0]
    rows = map(np.ndarray.tolist, signs > 0), map(np.ndarray.tolist, signs < 0)
    return [(frozenset(compress(labels, u)), frozenset(compress(labels, v))) for u, v in zip(*rows)]


def find_equal_edge_partitions(
    h: Hypergraph, max_support: int = 8, *, basis: NullspaceBasis | None = None
) -> list[tuple[frozenset[str], frozenset[str]]]:
    """All equal partitions (U, V) with combined support at most ``max_support``.

    The search walks the nullspace of the transposed incidence matrix: a
    valid pair's signed indicator chi_U - chi_V must lie in it, so only
    sign combinations of the canonical basis vectors are enumerated (cost
    grows as 3^nullity, not with the number of vertex subsets). Each basis
    vector is +-1 on its own free column and 0 on the others, so no other
    coefficients can give a {-1, 0, 1} vector. The basis is integer rows
    over one denominator D, and ``_sign_sums`` enumerates the combinations
    of those rows in blocks, each one integer product, the enumerator that
    the exhaustive sweep of ``hyperlin check`` also uses, with the entries
    {-D, 0, D} allowed. A sum with no entry outside them is
    D (chi_U - chi_V) with I^T (chi_U - chi_V) = 0, which is
    |U meet e| == |V meet e| for every hyperedge e, so it is an equal
    partition without counting. Pairs are deduplicated by orienting the
    first supported vertex into U, so U is never empty; V may be empty
    (isolated vertices make this legitimate). Pairs are ordered by support
    size, then support positions, then U positions in vertex order.

    ``basis`` is ker I^T as ``nullspace(incidence_matrix(h).transpose())``
    gives it, for a caller that has it already; by default it is computed
    here. A basis over other labels than the vertices, in order, raises
    ValueError. The search trusts a basis it is given, so a caller that
    needs the pairs proved counts them itself, as ``hyperlin check`` does.
    """
    import numpy as np

    cap = _integer(max_support, "max_support", 1)
    if basis is None:
        basis = nullspace(incidence_matrix(h).transpose())
    elif basis.ambient_labels != h.vertices:
        raise ValueError(
            f"the basis is over {list(basis.ambient_labels)}, not the vertices {list(h.vertices)}"
        )
    if basis.dimension == 0:
        return []
    n, d = h.n_vertices, basis.matrix.denominator
    blocks = _sign_sums(basis.matrix.numerators, [0] * n, (-d, 0, d))
    signs = np.concatenate([np.sign(sums).astype(np.int8) for _, sums in blocks])
    signs = signs[(signs != 0).sum(axis=1) <= cap]
    # Python's tuple order as fixed-width columns: positions ascending, a short
    # support padded after its end; a U that ends first sorts first, so -1 pads it.
    # The smallest signed type holding -(n + 1) holds both pads.
    cols = np.arange(n, dtype=np.min_scalar_type(-n - 1))
    support = np.sort(np.where(signs != 0, cols, n), axis=1)
    u_pos = np.sort(np.where(signs > 0, cols, n), axis=1)
    u_pos[u_pos == n] = -1
    order = np.lexsort([*u_pos.T[::-1], *support.T[::-1], (signs != 0).sum(axis=1)])
    return _oriented_pairs(h.vertices, signs[order])


def verify_star_partition(h: Hypergraph, center: str, parts: Iterable[str]) -> bool:
    """True iff the stars of ``parts`` partition the star of ``center``.

    The parts' stars must be pairwise disjoint and their union must equal
    the center's star. ``center`` may not appear among the parts.
    """
    center = str(center)
    part_list = [str(p) for p in parts]
    if center in part_list:
        raise OverlapError(f"center {center!r} may not be one of the parts")
    _known([center, *part_list], h._stars, "vertices")
    if len(set(part_list)) != len(part_list):
        raise OverlapError("parts must be distinct vertices")
    stars = [h.star(p) for p in part_list]
    total = 0
    union: set[str] = set()
    for s in stars:
        total += len(s)
        union |= s
    if total != len(union):
        return False
    return union == h.star(center)


def verify_equal_star_partition(
    h: Hypergraph, e_part: Iterable[str], f_part: Iterable[str]
) -> tuple[bool, dict[str, tuple[int, int]]]:
    """Check |star(v) meet E| == |star(v) meet F| for every vertex v.

    E and F must be disjoint sets of hyperedge labels. This is the dual of
    verify_equal_edge_partition, so equivalently the signed indicator
    chi_E - chi_F is annihilated by the incidence matrix.
    """
    e_set, f_set = _check_disjoint(h._members, e_part, f_part, "hyperedges")
    return _equal_counts(h._stars.items(), e_set, f_set)


# -- covering projections ------------------------------------------------------


class ProjectionClass(str, Enum):
    NOT_HOMOMORPHISM = "NotHomomorphism"
    HOMOMORPHISM = "Homomorphism"
    COVERING = "Covering"
    CARDINALITY_PRESERVING_COVERING = "CardinalityPreservingCovering"


def _edge_image_map(
    source: Hypergraph, target: Hypergraph, f: Mapping[str, str]
) -> dict[str, str] | None:
    """Map each source hyperedge label to the target hyperedge its image equals.

    Returns None when some image set is not a hyperedge of the target.
    """
    by_members = {members: label for label, members in target.hyperedges}
    out: dict[str, str] = {}
    for label, members in source.hyperedges:
        image = frozenset(f[v] for v in members)
        hit = by_members.get(image)
        if hit is None:
            return None
        out[label] = hit
    return out


def _validate_vertex_map(
    source: Hypergraph, target: Hypergraph, f: Mapping[str, str]
) -> dict[str, str]:
    fmap = {str(k): str(v) for k, v in f.items()}
    missing = set(source.vertices) - set(fmap)
    if missing:
        raise UnknownLabelError(f"map not defined on: {sorted(missing)}")
    _known(fmap, source._stars, "source vertices")
    _known(fmap.values(), target._stars, "target vertices")
    return fmap


def verify_covering_projection(
    source: Hypergraph, target: Hypergraph, f: Mapping[str, str]
) -> ProjectionClass:
    """Classify a vertex map between hypergraphs.

    The classes are strictly ordered: a homomorphism sends every hyperedge
    onto a hyperedge of the target; a covering is additionally surjective
    with every star mapped bijectively onto the image vertex's star; and a
    cardinality preserving covering also keeps every hyperedge's size.
    The strongest applicable class is returned.
    """
    return _classify_projection(source, target, _validate_vertex_map(source, target, f))


def _classify_projection(
    source: Hypergraph, target: Hypergraph, fmap: dict[str, str]
) -> ProjectionClass:
    """``verify_covering_projection`` on a map ``_validate_vertex_map`` returned."""
    edge_map = _edge_image_map(source, target, fmap)
    if edge_map is None:
        return ProjectionClass.NOT_HOMOMORPHISM
    surjective = set(fmap.values()) == set(target.vertices)
    covering = surjective
    if covering:
        for v in source.vertices:
            star = source.star(v)
            images = {edge_map[e] for e in star}
            if len(images) != len(star) or images != target.star(fmap[v]):
                covering = False
                break
    if not covering:
        return ProjectionClass.HOMOMORPHISM
    preserves = all(
        len(members) == len(target.members(edge_map[label]))
        for label, members in source.hyperedges
    )
    if preserves:
        return ProjectionClass.CARDINALITY_PRESERVING_COVERING
    return ProjectionClass.COVERING


def _require_vertex_certificate(h: Hypergraph, cert: Certificate) -> None:
    if cert.annihilated_by != VERTEX_AXIS:
        raise InvalidCertificateError("certificate must be a vertex-axis certificate")
    if set(cert.coefficients) != set(h.vertices):
        raise InvalidCertificateError("certificate does not live on this hypergraph")


def pullback_dependent_set(
    source: Hypergraph,
    target: Hypergraph,
    f: Mapping[str, str],
    cert: Certificate,
) -> Certificate:
    """Pull a vertex-dependence certificate back through a covering.

    ``f`` must classify as a cardinality preserving covering from source to
    target, and ``cert`` must be a vertex certificate of the target. The
    pullback assigns x(u) = cert(f(u)); the result is again annihilated by
    the transposed incidence matrix of the source, which is checked exactly.
    """
    fmap = _validate_vertex_map(source, target, f)
    cls = _classify_projection(source, target, fmap)
    if cls != ProjectionClass.CARDINALITY_PRESERVING_COVERING:
        raise NotCardinalityPreservingError(f"map classifies as {cls.value}")
    _require_vertex_certificate(target, cert)
    image = incidence_matrix(target).transpose().apply(cert.coefficients)
    if any(v != 0 for v in image.values()):
        raise InvalidCertificateError("certificate is not annihilated on the target")
    coeffs = {u: cert.coefficients[fmap[u]] for u in source.vertices}
    check = incidence_matrix(source).transpose().apply(coeffs)
    if any(v != 0 for v in check.values()):
        raise NotInNullspaceError("the pulled-back vector left the source nullspace")
    return _certificate_from_vector(
        CertificateKind.DEPENDENT_VERTICES, source.vertices, coeffs, VERTEX_AXIS
    )
