"""Randomized laws: rank identities, nullity additivity, partitions, duality."""

import itertools
import random
from fractions import Fraction

from hypothesis import example, given, strategies as st

from hyperlin import (
    Hypergraph,
    WalkPolicy,
    find_equal_edge_partitions,
    hitting_times,
    transition_matrix,
    unit_contraction,
    units,
    verify_equal_edge_partition,
    verify_Q_annihilation,
)
from hyperlin.errors import IsolatedVertexError, SingletonEdgeError, SingletonEdgeNonLazyError
from hyperlin.hypergraph import dual, incidence_graph_adjacency, incidence_matrix
from hyperlin.linalg import (
    _MODULAR_MIN_CELLS,
    RationalMatrix,
    _fraction_free_reduce,
    determinant,
    nullspace,
    rref,
)
from hyperlin.spectra import (
    WEIGHT_PRESETS,
    build_A,
    build_A_GH,
    build_D,
    build_K,
    build_L,
    build_Q,
    weight_scheme,
)
from hyperlin.structures import Certificate, CertificateKind, VERTEX_AXIS


@st.composite
def hypergraphs(draw, max_vertices=7, max_edges=7):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    verts = [str(i) for i in range(1, n + 1)]
    member_sets = draw(
        st.lists(
            st.frozensets(st.sampled_from(verts), min_size=1),
            min_size=1,
            max_size=max_edges,
            unique=True,
        )
    )
    pairs = [
        (f"e{i}", sorted(ms, key=int)) for i, ms in enumerate(member_sets, start=1)
    ]
    return Hypergraph.from_members(pairs, vertices=verts)


@given(hypergraphs())
def test_json_roundtrip_identity(h):
    assert Hypergraph.from_json(h.to_json()) == h


@given(hypergraphs())
def test_row_and_column_rank_agree(h):
    inc = incidence_matrix(h)
    assert rref(inc).rank == rref(inc.transpose()).rank


@given(hypergraphs())
def test_incidence_graph_nullity_is_additive(h):
    inc = incidence_matrix(h)
    n_edge = nullspace(inc).dimension
    n_vertex = nullspace(inc.transpose()).dimension
    n_big = nullspace(incidence_graph_adjacency(h)).dimension
    assert n_big == n_edge + n_vertex
    assert n_big >= abs(h.n_vertices - h.n_hyperedges)


@given(hypergraphs())
def test_square_determinant_detects_singularity(h):
    if h.n_vertices != h.n_hyperedges:
        return
    inc = incidence_matrix(h)
    n_big = nullspace(incidence_graph_adjacency(h)).dimension
    assert (determinant(inc) != 0) == (n_big == 0)


# the first nonzero entry of the one basis vector is 1/2, not 1: (1/2, 1/2, 1/2, -1)
@example(Hypergraph.from_members(
    [("e1", ["1", "2", "4"]), ("e2", ["2", "3", "4"]), ("e3", ["1", "3", "4"])], vertices=["1", "2", "3", "4"]
))
@given(hypergraphs())
def test_nullspace_basis_is_canonical_and_annihilated(h):
    inc_t = incidence_matrix(h).transpose()
    basis = nullspace(inc_t)
    res = rref(inc_t)
    free = [lab for c, lab in enumerate(h.vertices) if c not in res.pivot_cols]
    assert basis.matrix.row_labels == tuple(free)
    assert basis.ambient_labels == h.vertices
    assert len(basis.vectors) == basis.dimension == len(free)
    for f, vec in zip(free, basis.vectors):
        image = inc_t.apply(vec)
        assert all(v == 0 for v in image.values())
        assert [g for g in free if vec[g] != 0] == [f] and abs(vec[f]) == 1
        leading = next(vec[lab] for lab in h.vertices if vec[lab] != 0)
        assert leading > 0


@given(hypergraphs())
def test_units_partition_and_characterize_stars(h):
    dec = units(h)
    seen = [v for u in dec.units for v in u.members]
    assert sorted(seen) == sorted(h.vertices)
    stars = []
    for u in dec.units:
        member_stars = {h.star(v) for v in u.members}
        assert member_stars == {u.generator}
        stars.append(u.generator)
    # distinct units have distinct stars, otherwise they would have merged
    assert len(stars) == len(set(stars))


@given(hypergraphs())
def test_contraction_removes_exactly_the_unit_excess(h):
    con = unit_contraction(h)
    excess = sum(len(u.members) - 1 for u in con.decomposition.units)
    big = nullspace(incidence_graph_adjacency(h)).dimension
    small = nullspace(incidence_graph_adjacency(con.contracted)).dimension
    assert big == small + excess


@given(hypergraphs(max_vertices=6, max_edges=6))
def test_partitions_agree_with_the_nullspace_both_ways(h):
    inc_t = incidence_matrix(h).transpose()
    found = set(find_equal_edge_partitions(h, max_support=h.n_vertices))
    labels = list(h.vertices)
    for signs in itertools.product((-1, 0, 1), repeat=len(labels)):
        u_set = frozenset(l for l, s in zip(labels, signs) if s == 1)
        v_set = frozenset(l for l, s in zip(labels, signs) if s == -1)
        if not u_set and not v_set:
            continue
        for lab in labels:
            if lab in u_set:
                break
            if lab in v_set:
                u_set, v_set = v_set, u_set
                break
        counted, _ = verify_equal_edge_partition(h, u_set, v_set)
        chi = {v: Fraction(1) for v in u_set}
        chi.update({v: Fraction(-1) for v in v_set})
        in_null = all(x == 0 for x in inc_t.apply(chi).values())
        assert counted == in_null
        assert ((u_set, v_set) in found) == counted


@given(hypergraphs())
def test_certificates_annihilate_Q_under_every_applicable_preset(h):
    basis = nullspace(incidence_matrix(h).transpose())
    if basis.dimension == 0:
        return
    presets = ["unit"]
    if all(len(m) >= 2 for _, m in h.hyperedges):
        presets.append("edgenorm")
        if all(h.degree(v) >= 1 for v in h.vertices):
            presets.append("fullnorm")
    for vec in basis.vectors:
        support = frozenset(k for k, v in vec.items() if v != 0)
        cert = Certificate(
            CertificateKind.DEPENDENT_VERTICES, support, dict(vec), VERTEX_AXIS
        )
        for preset in presets:
            assert verify_Q_annihilation(h, weight_scheme(h, preset), cert)


@given(hypergraphs())
def test_dual_transposes_incidence_up_to_star_merging(h):
    if any(h.degree(v) == 0 for v in h.vertices):
        return
    stars = [h.star(v) for v in h.vertices]
    if len(set(stars)) != len(stars):
        d = dual(h)
        assert d.n_hyperedges == len(set(stars))
        return
    d = dual(h)
    inc_d = incidence_matrix(d)
    inc_t = incidence_matrix(h).transpose()
    assert inc_d.entries == inc_t.entries


@given(hypergraphs(max_vertices=6, max_edges=5))
def test_unit_pair_hitting_symmetry(h):
    if any(h.degree(v) == 0 for v in h.vertices):
        return
    if any(len(m) < 2 for _, m in h.hyperedges):
        return
    if not h.is_connected():
        return
    tm = transition_matrix(h, WalkPolicy.uniform_nonlazy())
    for u in units(h).units:
        members = list(u.members)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                assert hitting_times(tm, b)[a] == hitting_times(tm, a)[b]
                to_a = hitting_times(tm, a)
                to_b = hitting_times(tm, b)
                for w in h.vertices:
                    if w not in (a, b):
                        assert to_a[w] == to_b[w]


# -- the library's own matrices need no validation --------------------------


def _as_validated(*matrices):
    """Each matrix is what the validating constructor builds from its own
    fields, with every numerator and the denominator of exact type int."""
    for m in matrices:
        assert type(m.denominator) is int
        assert all(type(x) is int for row in m.numerators for x in row)
        assert RationalMatrix(m.row_labels, m.col_labels, m.numerators, m.denominator) == m


def _eliminated(m):
    """``m``, its RREF and its nullspace basis."""
    return m, rref(m).matrix, nullspace(m).matrix


@given(hypergraphs())
def test_the_internal_producers_build_what_the_validating_constructor_builds(h):
    inc = incidence_matrix(h)
    built = [*_eliminated(inc), *_eliminated(inc.transpose()), *_eliminated(build_A_GH(h))]
    built.append(inc @ inc.transpose())
    for preset in WEIGHT_PRESETS:
        try:
            w = weight_scheme(h, preset)
        except (SingletonEdgeError, IsolatedVertexError):
            continue
        q = build_Q(h, w)
        built += [q, build_A(h, w), build_K(h, w), build_D(h, w), q @ inc, *_eliminated(build_L(h, w))]
    for policy in (WalkPolicy.uniform_lazy(), WalkPolicy.uniform_nonlazy()):
        try:
            built.append(transition_matrix(h, policy).matrix)
        except (IsolatedVertexError, SingletonEdgeNonLazyError):
            pass
    _as_validated(*built)


@st.composite
def large_hypergraphs(draw):
    """20 to 24 vertices and 1.5 times as many distinct hyperedges of 4, so I,
    I^T and A_GH all reach the multimodular RREF."""
    n = draw(st.integers(min_value=20, max_value=24))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    verts = [str(i) for i in range(1, n + 1)]
    edges = set()
    while len(edges) < 3 * n // 2:
        edges.add(frozenset(rng.sample(verts, 4)))
    pairs = [(f"e{i}", sorted(ms, key=int)) for i, ms in enumerate(sorted(edges, key=sorted), start=1)]
    return Hypergraph.from_members(pairs, vertices=verts)


@given(large_hypergraphs())
def test_the_multimodular_rref_builds_what_the_validating_constructor_builds(h):
    inc, a_gh = incidence_matrix(h), build_A_GH(h)
    assert inc.rows * inc.cols >= _MODULAR_MIN_CELLS and a_gh.rows * a_gh.cols >= _MODULAR_MIN_CELLS
    _as_validated(*_eliminated(inc), *_eliminated(inc.transpose()), *_eliminated(a_gh))


@st.composite
def integer_matrices(draw):
    """Small labelled int matrices over a denominator of either sign."""
    r = draw(st.integers(min_value=1, max_value=5))
    c = draw(st.integers(min_value=1, max_value=5))
    row = st.lists(st.integers(min_value=-4, max_value=4), min_size=c, max_size=c)
    rows = draw(st.lists(row, min_size=r, max_size=r))
    d = draw(st.integers(min_value=-6, max_value=6).filter(bool))
    return RationalMatrix([f"r{i}" for i in range(r)], [f"c{j}" for j in range(c)], rows, d)


_NEGATIVE_PIVOT = [[1, 2, 1], [3, 4, 0]]


def test_the_example_matrix_ends_on_a_negative_bareiss_pivot():
    assert _fraction_free_reduce([list(row) for row in _NEGATIVE_PIVOT], 3)[1] == -2


@example(RationalMatrix(["r0", "r1"], ["c0", "c1", "c2"], _NEGATIVE_PIVOT))
@given(integer_matrices())
def test_transpose_product_and_bareiss_build_what_the_validating_constructor_builds(m):
    t = m.transpose()
    _as_validated(t, m @ t, t @ m, *_eliminated(m), *_eliminated(t))
