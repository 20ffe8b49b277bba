"""Weighted hypergraph matrices and their spectra.

Matrices are built exactly, as integer rows over one denominator. Floating
point enters exactly once, inside eigenvalues_sym, after the exact
symmetry (or similarity) checks have passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import (
    InvalidCertificateError,
    NotSquareError,
    NotSymmetrizableError,
    SingletonEdgeError,
    WeightDomainMismatchError,
)
from .hypergraph import Hypergraph, _require_incident, incidence_graph_adjacency, incidence_matrix
from .linalg import RationalMatrix, _integer_row, rat
from .structures import Certificate, CertificateKind, _require_vertex_certificate

__all__ = [
    "WeightScheme",
    "Spectrum",
    "unit_weights",
    "edge_normalized_weights",
    "fully_normalized_weights",
    "weight_scheme",
    "build_Q",
    "build_D",
    "build_A",
    "build_K",
    "build_L",
    "build_A_GH",
    "eigenvalues_sym",
    "hypergraph_spectrum",
    "verify_Q_annihilation",
    "verify_A_eigenvalue",
    "verify_L_eigenvalue",
]

@dataclass(frozen=True)
class WeightScheme:
    """Positive rational weights on vertices and hyperedges."""

    name: str
    vertex_weights: dict[str, Fraction]
    edge_weights: dict[str, Fraction]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "vertex_weights", {str(k): rat(v) for k, v in self.vertex_weights.items()}
        )
        object.__setattr__(
            self, "edge_weights", {str(k): rat(v) for k, v in self.edge_weights.items()}
        )

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "vertex_weights": {k: str(v) for k, v in self.vertex_weights.items()},
            "edge_weights": {k: str(v) for k, v in self.edge_weights.items()},
        }


def unit_weights(h: Hypergraph) -> WeightScheme:
    """All weights equal to one."""
    return WeightScheme(
        name="unit",
        vertex_weights={v: Fraction(1) for v in h.vertices},
        edge_weights={e: Fraction(1) for e in h.edge_labels},
    )


def edge_normalized_weights(h: Hypergraph) -> WeightScheme:
    """Vertex weight 1, hyperedge weight 1/(|e| - 1).

    Hyperedges of size one make the normalization divide by zero, so they
    are rejected.
    """
    weights = {}
    for label, members in h.hyperedges:
        if len(members) < 2:
            raise SingletonEdgeError(
                f"hyperedge {label!r} has a single member; 1/(|e|-1) is undefined"
            )
        weights[label] = Fraction(1, len(members) - 1)
    return WeightScheme(
        name="edgenorm",
        vertex_weights={v: Fraction(1) for v in h.vertices},
        edge_weights=weights,
    )


def fully_normalized_weights(h: Hypergraph) -> WeightScheme:
    """Vertex weight 1/|star(v)|, hyperedge weight 1/(|e| - 1).

    A hyperedge of one member raises SingletonEdgeError first, through
    edge_normalized_weights; then a vertex in no hyperedge raises
    IsolatedVertexError, through the one isolated-vertex rule.
    """
    base = edge_normalized_weights(h)
    _require_incident(h)
    vweights = {v: Fraction(1, h.degree(v)) for v in h.vertices}
    return WeightScheme(name="fullnorm", vertex_weights=vweights, edge_weights=base.edge_weights)


WEIGHT_PRESETS = {
    "unit": unit_weights,
    "edgenorm": edge_normalized_weights,
    "fullnorm": fully_normalized_weights,
}


def weight_scheme(h: Hypergraph, name: str) -> WeightScheme:
    """Look up a preset by name: unit, edgenorm, or fullnorm."""
    try:
        build = WEIGHT_PRESETS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValueError(f"unknown weight preset {name!r}") from None
    return build(h)


def _check_weights(weights: Mapping[str, Fraction], labels: Sequence[str], kind: str, domain: str) -> None:
    """The one weight-domain rule: the ``kind`` weights cover exactly the
    ``labels`` of their ``domain`` and are positive, else WeightDomainMismatchError."""
    if set(weights) != set(labels):
        raise WeightDomainMismatchError(f"{kind} weights must cover exactly the {domain}")
    if any(x <= 0 for x in weights.values()):
        raise WeightDomainMismatchError(f"{kind} weights must be positive")


def _coincidence(h: Hypergraph, edge_weights: Mapping[str, Fraction]) -> tuple[list, int]:
    """Int rows over one denominator: entry (u, v) is the total weight over
    star(u) meet star(v), in vertex order, summed hyperedge by hyperedge.
    The one builder of Q, A, L, K, D, Perron and both uniform walk kernels."""
    scaled, d = _integer_row([edge_weights[e] for e in h.edge_labels])
    index = {v: i for i, v in enumerate(h.vertices)}
    rows = [[0] * len(index) for _ in index]
    for (_, members), weight in zip(h.hyperedges, scaled):
        at = [index[v] for v in members]
        for i in at:
            row = rows[i]
            for j in at:
                row[j] += weight
    return rows, d


def _q_rows(h: Hypergraph, w: WeightScheme) -> tuple[list, int]:
    """Int rows of Q in vertex order and their denominator; every weighted
    matrix is read off this table."""
    _check_weights(w.vertex_weights, h.vertices, "vertex", "vertices")
    _check_weights(w.edge_weights, h.edge_labels, "edge", "hyperedges")
    scaled, vd = _integer_row([w.vertex_weights[u] for u in h.vertices])
    rows, d = _coincidence(h, w.edge_weights)
    return [[s * x for x in row] for s, row in zip(scaled, rows)], d * vd


def _adjacency_rows(q: list[list[int]]) -> list[list[int]]:
    """Q with the diagonal zeroed."""
    return [[0 if i == j else x for j, x in enumerate(row)] for i, row in enumerate(q)]


def _laplacian_rows(a: list[list[int]]) -> list[list[int]]:
    """K - A for adjacency rows A, K carrying the row sums of A."""
    return [[sum(row) if i == j else -x for j, x in enumerate(row)] for i, row in enumerate(a)]


def _diagonal_part(rows: list[list[int]]) -> list[list[int]]:
    """The rows with every entry off the diagonal zeroed."""
    return [[x if i == j else 0 for j, x in enumerate(row)] for i, row in enumerate(rows)]


def build_Q(h: Hypergraph, w: WeightScheme) -> RationalMatrix:
    """Signless product matrix D_V I D_E I^T.

    Entry (u, v) is the vertex weight of u times the total edge weight of
    the hyperedges containing both u and v, summed hyperedge by hyperedge
    rather than multiplied out. The diagonal carries the weighted degree.
    """
    return RationalMatrix._trusted(h.vertices, h.vertices, *_q_rows(h, w))


def build_D(h: Hypergraph, w: WeightScheme) -> RationalMatrix:
    """Diagonal weighted-degree matrix: entry (v, v) is w_V(v) sum of w_E over star(v)."""
    q, d = _q_rows(h, w)
    return RationalMatrix._trusted(h.vertices, h.vertices, _diagonal_part(q), d)


def build_A(h: Hypergraph, w: WeightScheme) -> RationalMatrix:
    """Weighted adjacency: Q with the diagonal zeroed (equivalently Q - D)."""
    q, d = _q_rows(h, w)
    return RationalMatrix._trusted(h.vertices, h.vertices, _adjacency_rows(q), d)


def build_K(h: Hypergraph, w: WeightScheme) -> RationalMatrix:
    """Diagonal row-sum matrix of the weighted adjacency."""
    q, d = _q_rows(h, w)
    rows = _diagonal_part(_laplacian_rows(_adjacency_rows(q)))
    return RationalMatrix._trusted(h.vertices, h.vertices, rows, d)


def build_L(h: Hypergraph, w: WeightScheme) -> RationalMatrix:
    """Weighted Laplacian K - A."""
    q, d = _q_rows(h, w)
    return RationalMatrix._trusted(h.vertices, h.vertices, _laplacian_rows(_adjacency_rows(q)), d)


def build_A_GH(h: Hypergraph) -> RationalMatrix:
    """Adjacency matrix of the incidence graph (vertices then hyperedges)."""
    return incidence_graph_adjacency(h)


@dataclass(frozen=True)
class Spectrum:
    """Grouped eigenvalues of a symmetric (or symmetrizable) matrix."""

    matrix_kind: str
    tolerance: float
    eigenvalues: tuple[tuple[float, int], ...]

    @property
    def dimension(self) -> int:
        return sum(mult for _, mult in self.eigenvalues)

    def values(self) -> list[float]:
        """All eigenvalues, multiplicities expanded, ascending."""
        out: list[float] = []
        for value, mult in self.eigenvalues:
            out.extend([value] * mult)
        return out

    def multiplicity_of(self, x: float) -> int:
        """Total multiplicity within the grouping tolerance of ``x``."""
        return sum(m for v, m in self.eigenvalues if abs(v - x) <= self.tolerance)

    def to_json_dict(self) -> dict:
        return {
            "matrix": self.matrix_kind,
            "tol": self.tolerance,
            "eigs": [{"value": v, "multiplicity": m} for v, m in self.eigenvalues],
        }


def _group_eigenvalues(values: Sequence[float], group_tol: float) -> tuple[tuple[float, int], ...]:
    """Cluster ascending values whose successive gaps stay below group_tol."""
    groups: list[tuple[float, int]] = []
    block: list[float] = []
    for v in values:
        if block and v - block[-1] > group_tol:
            groups.append((sum(block) / len(block), len(block)))
            block = []
        block.append(v)
    if block:
        groups.append((sum(block) / len(block), len(block)))
    return tuple(groups)


def _check_tol(tol: float) -> None:
    """Raise ValueError unless the numeric tolerance ``tol`` is finite and positive."""
    if isinstance(tol, bool) or not 0 < tol < math.inf:  # NaN fails both comparisons
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def eigenvalues_sym(
    m: RationalMatrix,
    tol: float = 1e-12,
    similarity: Mapping[str, Fraction] | None = None,
    matrix_kind: str = "symmetric",
) -> Spectrum:
    """Eigenvalues of a symmetric or diagonally symmetrizable matrix.

    When ``m`` is not symmetric, a positive diagonal ``similarity`` may be
    declared. The exact condition m[i][j] * d[j] == m[j][i] * d[i] is then
    checked rationally; when it holds, the similar symmetric matrix with
    entries sign(m[i][j]) * sqrt(m[i][j] * m[j][i]) shares the spectrum and
    is handed to ``numpy.linalg.eigvalsh``.

    Parameters
    ----------
    tol : float
        Eigenvalues whose successive gaps stay within 10 * tol are grouped
        into one value with a multiplicity; it must be finite and positive.

    Raises
    ------
    ValueError, NotSquareError, NotSymmetrizableError
    """
    _check_tol(tol)
    import numpy as np  # on first use, so importing hyperlin does not load it

    if not m.is_square:
        raise NotSquareError("eigenvalues need a square matrix")
    group_tol = 10.0 * tol
    n, rows, den = m.rows, m.numerators, m.denominator
    # int true division rounds correctly, exactly as float(Fraction) does
    if m.is_symmetric():
        arr = np.array([[x / den for x in row] for row in rows], dtype=float).reshape(n, n)
    elif similarity is not None:
        d = {str(k): rat(v) for k, v in similarity.items()}
        if set(d) != set(m.row_labels) or m.row_labels != m.col_labels:
            raise NotSymmetrizableError("similarity diagonal must cover the matrix labels")
        if any(x <= 0 for x in d.values()):
            raise NotSymmetrizableError("similarity diagonal must be positive")
        dv, _ = _integer_row([d[lab] for lab in m.row_labels])
        arr = np.zeros((n, n), dtype=float)
        for i in range(n):
            arr[i, i] = rows[i][i] / den
            for j in range(i + 1, n):
                if rows[i][j] * dv[j] != rows[j][i] * dv[i]:
                    raise NotSymmetrizableError("matrix is not symmetric under the declared diagonal")
                val = math.sqrt(rows[i][j] * rows[j][i] / (den * den))
                arr[i, j] = arr[j, i] = -val if rows[i][j] < 0 else val
    else:
        raise NotSymmetrizableError("matrix is not symmetric and no similarity was declared")
    eigs = np.linalg.eigvalsh(arr)
    return Spectrum(
        matrix_kind=matrix_kind,
        tolerance=group_tol,
        eigenvalues=_group_eigenvalues(list(eigs), group_tol),
    )


_MATRIX_BUILDERS = {
    "Q": build_Q,
    "A": build_A,
    "L": build_L,
    "K": build_K,
    "D": build_D,
}


def hypergraph_spectrum(
    h: Hypergraph,
    matrix: str,
    w: WeightScheme | None = None,
    tol: float = 1e-12,
) -> Spectrum:
    """Spectrum of one of the named hypergraph matrices.

    ``matrix`` is Q, A, D, K, L, or A_GH. Weighted matrices default to unit
    weights; non-unit vertex weights are handled through the exact diagonal
    similarity, so the spectrum is still real.
    """
    if matrix == "A_GH":
        return eigenvalues_sym(build_A_GH(h), tol=tol, matrix_kind="A_GH")
    if matrix not in _MATRIX_BUILDERS:
        raise ValueError(f"unknown matrix kind {matrix!r}")
    scheme = w if w is not None else unit_weights(h)
    built = _MATRIX_BUILDERS[matrix](h, scheme)
    return eigenvalues_sym(
        built,
        tol=tol,
        similarity=scheme.vertex_weights,
        matrix_kind=matrix,
    )


def verify_Q_annihilation(h: Hypergraph, w: WeightScheme, cert: Certificate) -> bool:
    """Exact check that Q annihilates the certificate's coefficient vector.

    Sound vertex-dependence certificates always pass, for every positive
    weight scheme; a perturbed vector fails. The check itself never rounds.
    """
    _require_vertex_certificate(h, cert)
    image = build_Q(h, w).apply(cert.coefficients)
    return all(v == 0 for v in image.values())


def _eigen_check(
    h: Hypergraph,
    cert: Certificate,
    matrix: RationalMatrix,
    per_vertex_constant: Mapping[str, Fraction],
    sign: int,
) -> Fraction | None:
    """Shared engine for the adjacency and Laplacian eigenvalue conditions."""
    _require_vertex_certificate(h, cert)
    if cert.kind != CertificateKind.DEPENDENT_VERTICES:
        raise InvalidCertificateError("certificate kind must be DependentVertices")
    if cert.is_zero:
        raise InvalidCertificateError("the zero vector is not an eigenvector")
    image = incidence_matrix(h).transpose().apply(cert.coefficients)
    if any(v != 0 for v in image.values()):
        raise InvalidCertificateError("certificate is not a dependence certificate")
    constants = {per_vertex_constant[v] for v in cert.support}
    if len(constants) != 1:
        return None
    c = constants.pop()
    expected = Fraction(sign) * c
    image = matrix.apply(cert.coefficients)
    if any(image[v] != expected * cert.coefficients[v] for v in h.vertices):
        raise InvalidCertificateError(
            "eigenvalue identity fails although the constancy condition holds"
        )
    return expected


def verify_A_eigenvalue(h: Hypergraph, w: WeightScheme, cert: Certificate) -> Fraction | None:
    """Eigenvalue of the weighted adjacency carried by a dependence certificate.

    When the weighted degree is constant on the certificate's support the
    coefficient vector is an eigenvector of A with eigenvalue minus that
    constant, verified exactly; returns None when the degrees differ.
    """
    q, d = _q_rows(h, w)
    degrees = {v: Fraction(row[i], d) for i, (v, row) in enumerate(zip(h.vertices, q))}
    adjacency = RationalMatrix._trusted(h.vertices, h.vertices, _adjacency_rows(q), d)
    return _eigen_check(h, cert, adjacency, degrees, sign=-1)


def verify_L_eigenvalue(h: Hypergraph, w: WeightScheme, cert: Certificate) -> Fraction | None:
    """Eigenvalue of the weighted Laplacian carried by a dependence certificate.

    The relevant per-vertex constant sums edge weights over the stars of all
    vertices jointly incident with v, scaled by v's weight. When constant on
    the support, L has the certificate as an eigenvector with that eigenvalue.
    """
    q, d = _q_rows(h, w)
    constant = {v: Fraction(sum(row), d) for v, row in zip(h.vertices, q)}
    laplacian = RationalMatrix._trusted(h.vertices, h.vertices, _laplacian_rows(_adjacency_rows(q)), d)
    return _eigen_check(h, cert, laplacian, constant, sign=1)
