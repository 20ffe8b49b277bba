"""Weighted matrices and float spectra, cross-checked against numpy."""

import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fraction_oracles as oracle
from conftest import random_hypergraph

from hyperlin import (
    Hypergraph,
    build_A,
    build_A_GH,
    build_D,
    build_K,
    build_L,
    build_Q,
    dependent_hyperedges,
    dependent_vertices,
    eigenvalues_sym,
    hypergraph_spectrum,
    incidence_matrix,
    verify_A_eigenvalue,
    verify_L_eigenvalue,
    verify_Q_annihilation,
    vertex_pair_certificate,
    weight_scheme,
)
from hyperlin.errors import (
    InvalidCertificateError,
    IsolatedVertexError,
    NotSymmetrizableError,
    SingletonEdgeError,
    WeightDomainMismatchError,
)
from hyperlin.linalg import RationalMatrix, nullspace
from hyperlin import spectra
from hyperlin.spectra import WeightScheme, unit_weights
from hyperlin.structures import Certificate, CertificateKind, VERTEX_AXIS
from hyperlin import fixtures as fx
from hyperlin.fixtures import _FIXTURE_BUILDERS


def _to_numpy(m: RationalMatrix) -> np.ndarray:
    return np.array(
        [[float(m.entry(r, c)) for c in m.col_labels] for r in m.row_labels]
    )


def test_weight_presets_exact_values():
    h = fx.unit_blocks()
    w_unit = weight_scheme(h, "unit")
    assert all(v == 1 for v in w_unit.vertex_weights.values())
    assert all(v == 1 for v in w_unit.edge_weights.values())
    w_edge = weight_scheme(h, "edgenorm")
    assert w_edge.edge_weights["e1"] == Fraction(1, 6)
    assert w_edge.edge_weights["e2"] == Fraction(1, 3)
    assert all(v == 1 for v in w_edge.vertex_weights.values())
    w_full = weight_scheme(h, "fullnorm")
    assert w_full.edge_weights == w_edge.edge_weights
    assert w_full.vertex_weights["1"] == Fraction(1, 2)
    assert w_full.vertex_weights["10"] == Fraction(1, 3)


def test_edgenorm_rejects_singleton_edges():
    h = fx.nested_chain(3)  # contains the singleton hyperedge {1}
    with pytest.raises(SingletonEdgeError):
        weight_scheme(h, "edgenorm")


def test_weight_presets_are_one_table_of_named_builders():
    h = fx.unit_blocks()
    assert list(spectra.WEIGHT_PRESETS) == ["unit", "edgenorm", "fullnorm"]
    for name, build in spectra.WEIGHT_PRESETS.items():
        assert weight_scheme(h, name) == build(h)
        assert build(h).name == name


@pytest.mark.parametrize("name", ["bogus", "Unit", "", None, ["unit"], {"unit": 1}])
def test_weight_scheme_rejects_an_unknown_or_unhashable_name(name):
    with pytest.raises(ValueError, match="unknown weight preset"):
        weight_scheme(fx.unit_blocks(), name)


@pytest.mark.parametrize(
    "vertex_weights, edge_weights, message",
    [
        ({"a": 1}, {"e": 1, "f": 1}, "vertex weights must cover exactly the vertices"),
        ({"a": 1, "b": 0, "c": 1}, {"e": 1, "f": 1}, "vertex weights must be positive"),
        ({"a": 1, "b": 1, "c": 1}, {"e": 1}, "edge weights must cover exactly the hyperedges"),
        ({"a": 1, "b": 1, "c": 1}, {"e": 1, "f": -1}, "edge weights must be positive"),
    ],
)
def test_weighted_builders_reject_weights_off_their_axis_domain(
    vertex_weights, edge_weights, message
):
    h = Hypergraph.from_members([("e", ["a", "b"]), ("f", ["b", "c"])])
    w = WeightScheme("custom", vertex_weights, edge_weights)
    for build in (build_Q, build_A, build_D, build_K, build_L):
        with pytest.raises(WeightDomainMismatchError, match=f"^{message}$"):
            build(h, w)


def test_fullnorm_rejects_isolated_vertices():
    h = Hypergraph.from_members([("e", ["a", "b"])], vertices=["a", "b", "c"])
    with pytest.raises(IsolatedVertexError, match="^vertex 'c' has no incident hyperedge$"):
        weight_scheme(h, "fullnorm")


def test_fullnorm_names_a_singleton_edge_before_an_isolated_vertex():
    h = Hypergraph.from_members([("e", ["a", "b"]), ("f", ["b"])], vertices=["a", "b", "c"])
    with pytest.raises(SingletonEdgeError, match="^hyperedge 'f' has a single member"):
        weight_scheme(h, "fullnorm")


def test_matrix_builders_on_a_single_edge():
    h = Hypergraph.from_members([("e", ["a", "b"])])
    w = unit_weights(h)
    q = build_Q(h, w)
    assert q.row("a") == {"a": Fraction(1), "b": Fraction(1)}
    d = build_D(h, w)
    assert d.entry("a", "a") == 1 and d.entry("a", "b") == 0
    a = build_A(h, w)
    assert a.entry("a", "a") == 0 and a.entry("a", "b") == 1
    k = build_K(h, w)
    assert k.entry("a", "a") == 1 and k.entry("a", "b") == 0
    lap = build_L(h, w)
    assert lap.row("a") == {"a": Fraction(1), "b": Fraction(-1)}


def test_Q_is_weighted_incidence_product():
    h = fx.unit_blocks()
    for preset in ("unit", "edgenorm", "fullnorm"):
        w = weight_scheme(h, preset)
        inc = incidence_matrix(h)
        dv = RationalMatrix.diagonal(h.vertices, w.vertex_weights)
        de = RationalMatrix.diagonal(h.edge_labels, w.edge_weights)
        assert build_Q(h, w) == dv @ inc @ de @ inc.transpose()


def test_A_GH_matches_numpy_spectrum():
    h = fx.unit_blocks()
    spec = hypergraph_spectrum(h, "A_GH")
    expected = np.linalg.eigvalsh(_to_numpy(build_A_GH(h)))
    got = np.array(spec.values())
    assert np.allclose(np.sort(got), np.sort(expected), atol=1e-8)


@pytest.mark.parametrize("matrix", ["Q", "A", "L", "K", "D"])
@pytest.mark.parametrize("preset", ["unit", "edgenorm", "fullnorm"])
def test_weighted_spectra_match_numpy(matrix, preset):
    h = fx.unit_blocks()
    w = weight_scheme(h, preset)
    spec = hypergraph_spectrum(h, matrix, w)
    builders = {"Q": build_Q, "A": build_A, "L": build_L, "K": build_K, "D": build_D}
    floatm = _to_numpy(builders[matrix](h, w))
    # the weighted matrices need not be symmetric, but are similar to
    # symmetric ones; numpy's general eigenvalues come back essentially real
    expected = np.linalg.eigvals(floatm)
    assert np.max(np.abs(expected.imag)) < 1e-9
    got = np.array(spec.values())
    assert np.allclose(np.sort(got), np.sort(expected.real), atol=1e-8)


def test_spectrum_groups_multiplicities():
    h = Hypergraph.from_members([("e", ["a", "b", "c"])])
    spec = hypergraph_spectrum(h, "A")
    assert spec.dimension == 3
    assert spec.multiplicity_of(-1.0) == 2
    assert spec.multiplicity_of(2.0) == 1


def test_eigenvalues_sym_rejects_unsymmetrizable_input():
    m = RationalMatrix.from_rows(["a", "b"], ["a", "b"], [[0, 1], [0, 0]])
    with pytest.raises(NotSymmetrizableError):
        eigenvalues_sym(m)


def _similar(n=5, seed=3):
    """M = S D^-1 for a symmetric S with nonzero entries and distinct positive
    diagonal D: M is not symmetric, but M D is, so D is a similarity for M."""
    rng = random.Random(seed)
    labels = [f"v{i}" for i in range(n)]
    s = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            s[i][j] = s[j][i] = rng.choice([-3, -2, -1, 1, 2, 3])
    d = [Fraction(i + 1, 2) for i in range(n)]
    return labels, [[Fraction(s[i][j]) / d[j] for j in range(n)] for i in range(n)], d


def test_eigenvalues_sym_rejects_a_similarity_diagonal_that_misses_a_label():
    labels, rows, d = _similar()
    m = RationalMatrix.from_rows(labels, labels, rows)
    with pytest.raises(NotSymmetrizableError, match="^similarity diagonal must cover the matrix labels$"):
        eigenvalues_sym(m, similarity=dict(zip(labels[:-1], d)))


@pytest.mark.parametrize("bad", [0, -1, Fraction(-1, 3)])
def test_eigenvalues_sym_rejects_a_similarity_diagonal_entry_that_is_not_positive(bad):
    labels, rows, d = _similar()
    m = RationalMatrix.from_rows(labels, labels, rows)
    with pytest.raises(NotSymmetrizableError, match="^similarity diagonal must be positive$"):
        eigenvalues_sym(m, similarity={**dict(zip(labels, d)), labels[2]: bad})


def test_eigenvalues_sym_scans_every_pair_for_the_similarity():
    # only the last pair, (n - 2, n - 1), breaks M D == (M D)^T
    labels, rows, d = _similar()
    rows[-2][-1] += 1
    m = RationalMatrix.from_rows(labels, labels, rows)
    with pytest.raises(NotSymmetrizableError, match="^matrix is not symmetric under the declared diagonal$"):
        eigenvalues_sym(m, similarity=dict(zip(labels, d)))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0, True])
def test_eigenvalues_sym_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        eigenvalues_sym(RationalMatrix.from_rows(["a", "b"], ["a", "b"], [[1, 0], [0, 1]]), tol=tol)


def test_spectrum_symmetric_about_zero_for_incidence_graph():
    spec = hypergraph_spectrum(fx.hub_cycle(), "A_GH")
    vals = sorted(spec.values())
    assert np.allclose(np.array(vals), -np.array(vals[::-1]), atol=1e-8)


def test_Q_annihilation_of_all_certificates():
    for h in (fx.hub_cycle(), fx.unit_blocks(), fx.balanced_overlap()):
        basis = nullspace(incidence_matrix(h).transpose())
        for preset in ("unit", "edgenorm", "fullnorm"):
            w = weight_scheme(h, preset)
            for vec in basis.vectors:
                support = frozenset(k for k, v in vec.items() if v != 0)
                cert = Certificate(
                    CertificateKind.DEPENDENT_VERTICES, support, dict(vec), VERTEX_AXIS
                )
                assert verify_Q_annihilation(h, w, cert)


def test_Q_annihilation_rejects_non_kernel_vectors():
    h = fx.hub_cycle()
    coeffs = {v: Fraction(0) for v in h.vertices}
    coeffs["1"] = Fraction(1)
    cert = Certificate(
        CertificateKind.DEPENDENT_VERTICES, frozenset({"1"}), coeffs, VERTEX_AXIS
    )
    assert not verify_Q_annihilation(h, unit_weights(h), cert)


def test_unit_pair_eigenvalue_per_preset():
    h = fx.unit_blocks()
    cert = vertex_pair_certificate(h, "1", "2")
    expected = {
        "unit": Fraction(-2),
        "edgenorm": Fraction(-1, 2),
        "fullnorm": Fraction(-1, 4),
    }
    for preset, eigenvalue in expected.items():
        w = weight_scheme(h, preset)
        assert verify_A_eigenvalue(h, w, cert) == eigenvalue


def test_unit_pair_eigenvalues_appear_in_float_spectra():
    h = fx.unit_blocks()
    for preset, eigenvalue in (("unit", -2.0), ("edgenorm", -0.5), ("fullnorm", -0.25)):
        spec = hypergraph_spectrum(h, "A", weight_scheme(h, preset))
        assert any(abs(v - eigenvalue) < 1e-8 for v in spec.values())


def test_L_eigenvalue_for_unit_pairs():
    h = fx.unit_blocks()
    cert = vertex_pair_certificate(h, "1", "2")
    for preset in ("unit", "edgenorm", "fullnorm"):
        w = weight_scheme(h, preset)
        lam = verify_L_eigenvalue(h, w, cert)
        assert lam is not None and lam > 0
        # the certificate really is an eigenvector of L for this eigenvalue
        lap = build_L(h, w)
        image = lap.apply(cert.coefficients)
        assert image == {
            v: lam * cert.coefficients[v] for v in h.vertices
        }


def test_eigen_checks_return_none_when_not_constant():
    h = fx.hub_cycle()
    cert = dependent_vertices(h)
    w = unit_weights(h)
    # support {1,2,3,4} has non-constant weighted degrees toward the chord
    assert verify_A_eigenvalue(h, w, cert) is None


def test_eigen_checks_reject_wrong_axis():
    h = fx.hub_cycle()
    cert = dependent_hyperedges(h)
    with pytest.raises(InvalidCertificateError):
        verify_A_eigenvalue(h, unit_weights(h), cert)


@pytest.mark.parametrize("verify", [verify_A_eigenvalue, verify_L_eigenvalue], ids=["A", "L"])
@pytest.mark.parametrize(
    "case, message",
    [
        ("kind", "^certificate kind must be DependentVertices$"),
        ("zero", "^the zero vector is not an eigenvector$"),
        ("not in ker", "^certificate is not a dependence certificate$"),
        ("identity", "^eigenvalue identity fails although the constancy condition holds$"),
    ],
)
def test_eigen_checks_name_each_invalid_certificate(verify, case, message, monkeypatch):
    h = fx.unit_blocks()
    pair = vertex_pair_certificate(h, "1", "2")
    coefficients = {
        "kind": pair.coefficients,
        "zero": dict.fromkeys(h.vertices, 0),
        "not in ker": {v: int(v == "1") for v in h.vertices},
        "identity": pair.coefficients,
    }[case]
    kind = CertificateKind.EQUAL_EDGE_PARTITION if case == "kind" else CertificateKind.DEPENDENT_VERTICES
    support = frozenset(v for v, x in coefficients.items() if x)
    cert = Certificate(kind, support, coefficients, VERTEX_AXIS)
    if case == "identity":  # one more on the diagonal of A, so of L too, breaks both identities
        rows = spectra._adjacency_rows
        shifted = lambda q: [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(rows(q))]
        monkeypatch.setattr(spectra, "_adjacency_rows", shifted)
    with pytest.raises(InvalidCertificateError, match=message):
        verify(h, unit_weights(h), cert)


@pytest.mark.parametrize("fixture", sorted(_FIXTURE_BUILDERS))
def test_float_bridge_hands_numpy_the_fraction_oracle_array(monkeypatch, fixture):
    """Every array eigvalsh receives equals the one built from Fraction rows."""
    captured = []
    eigvalsh = np.linalg.eigvalsh

    def capture(arr):
        captured.append(np.array(arr, copy=True))
        return eigvalsh(arr)

    monkeypatch.setattr(np.linalg, "eigvalsh", capture)
    h = _FIXTURE_BUILDERS[fixture]()
    inc = [[Fraction(int(v in m)) for _, m in h.hyperedges] for v in h.vertices]
    n, m = h.n_vertices, h.n_hyperedges
    a_gh = [[Fraction(0)] * n + row for row in inc] + [
        [row[j] for row in inc] + [Fraction(0)] * m for j in range(m)
    ]
    cases = [("A_GH", None, a_gh)]
    for preset in ["unit", "edgenorm", "fullnorm"]:
        try:
            w = weight_scheme(h, preset)
        except SingletonEdgeError:
            continue
        q = oracle.q_rows(h, w)
        a = oracle.adjacency_rows(q)
        cases += [("Q", w, q), ("A", w, a), ("L", w, oracle.laplacian_rows(a))]
    for kind, w, rows in cases:
        captured.clear()
        hypergraph_spectrum(h, kind, w)
        assert len(captured) == 1
        assert np.array_equal(captured[0], oracle.float_bridge(rows))


def _diagonal(values: list[Fraction]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(x if i == j else Fraction(0) for j in range(len(values))) for i, x in enumerate(values))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 2**32), st.data())
def test_weighted_builders_equal_the_fraction_oracles(seed, data):
    """Q, A, D, K, L and the coincidence rows under random positive weights
    with mixed denominators equal the Fraction rows built entry by entry."""
    h = random_hypergraph(random.Random(seed))
    positive = st.fractions(min_value=Fraction(1, 12), max_value=30, max_denominator=12)
    w = WeightScheme(
        "random",
        {v: data.draw(positive) for v in h.vertices},
        {e: data.draw(positive) for e in h.edge_labels},
    )
    q = oracle.q_rows(h, w)
    a = oracle.adjacency_rows(q)
    assert build_Q(h, w).entries == tuple(map(tuple, q))
    assert build_A(h, w).entries == tuple(map(tuple, a))
    assert build_L(h, w).entries == tuple(map(tuple, oracle.laplacian_rows(a)))
    assert build_D(h, w).entries == _diagonal([row[i] for i, row in enumerate(q)])
    assert build_K(h, w).entries == _diagonal([sum(row, Fraction(0)) for row in a])
    rows, d = spectra._coincidence(h, w.edge_weights)
    assert [[Fraction(x, d) for x in row] for row in rows] == oracle.coincidence(h, w.edge_weights)
    captured = []
    with mock.patch.object(np.linalg, "eigvalsh", lambda arr: captured.append(arr) or np.zeros(0)):
        for kind, expected in (("Q", q), ("A", a)):
            hypergraph_spectrum(h, kind, w)
            assert np.array_equal(captured.pop(), oracle.float_bridge(expected))
