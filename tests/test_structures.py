"""Dependence certificates, units, contraction, partitions, coverings."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from hyperlin import (
    Hypergraph,
    contraction_nullspace_lift,
    dependent_hyperedges,
    dependent_vertices,
    find_equal_edge_partitions,
    is_dependent_set,
    pullback_dependent_set,
    unit_contraction,
    units,
    verify_covering_projection,
    verify_equal_edge_partition,
    verify_equal_star_partition,
    verify_unit_maximality,
)
from hyperlin import structures
from hyperlin.errors import (
    HypergraphSyntaxError,
    InvalidCertificateError,
    NotCardinalityPreservingError,
    NotDisjointError,
    NotInNullspaceError,
    OverlapError,
    TooSmallError,
    UnknownLabelError,
)
from hyperlin.hypergraph import dual, incidence_graph_adjacency, incidence_matrix
from hyperlin.linalg import nullspace
from hyperlin.randwalk import WalkPolicy, transition_matrix, verify_partition_transition
from hyperlin.structures import (
    Certificate,
    CertificateKind,
    EDGE_AXIS,
    ProjectionClass,
    VERTEX_AXIS,
    partition_certificate,
    verify_star_partition,
    vertex_pair_certificate,
)
from hyperlin import fixtures as fx


def test_dependent_vertices_alternating_signs():
    cert = dependent_vertices(fx.hub_cycle())
    assert cert is not None
    assert cert.support == frozenset({"1", "2", "3", "4"})
    assert cert.coefficients == {
        "1": Fraction(1),
        "2": Fraction(-1),
        "3": Fraction(1),
        "4": Fraction(-1),
        "5": Fraction(0),
    }


def test_dependent_hyperedges_alternating_signs():
    cert = dependent_hyperedges(fx.hub_cycle())
    assert cert is not None
    assert cert.support == frozenset({"e1", "e2", "e3", "e4"})
    assert cert.coefficients["e1"] == 1
    assert cert.coefficients["e2"] == -1
    assert cert.coefficients["e3"] == 1
    assert cert.coefficients["e4"] == -1
    assert cert.coefficients["e5"] == 0


def test_independent_hypergraph_has_no_certificates():
    h = fx.nested_chain(4)
    assert dependent_vertices(h) is None
    assert dependent_hyperedges(h) is None


@pytest.mark.parametrize(
    "h",
    [builder() for builder in fx._FIXTURE_BUILDERS.values()]
    + [Hypergraph(("a", "b"), ()), Hypergraph((), ())],
    ids=list(fx._FIXTURE_BUILDERS) + ["no_hyperedges", "no_vertices"],
)
def test_dependent_axes_certify_the_first_basis_vector(h):
    inc = incidence_matrix(h)
    for find, m, kind, annihilator in (
        (dependent_vertices, inc.transpose(), CertificateKind.DEPENDENT_VERTICES, VERTEX_AXIS),
        (dependent_hyperedges, inc, CertificateKind.DEPENDENT_HYPEREDGES, EDGE_AXIS),
    ):
        basis = nullspace(m)
        cert = find(h)
        if not basis.vectors:
            assert cert is None
            continue
        assert (cert.kind, cert.annihilated_by) == (kind, annihilator)
        assert list(cert.coefficients.items()) == list(basis.vectors[0].items())


def _fixture_certificates(h):
    """Every certificate the constructors build on ``h``: each subset of at
    most three labels on both axes, each vertex pair with one star, and each
    found equal partition."""
    for axis, labels in (("vertices", h.vertices), ("hyperedges", h.edge_labels)):
        for k in range(1, 4):
            for subset in itertools.combinations(labels, k):
                cert = is_dependent_set(h, subset, axis)
                if cert is not None:
                    yield labels, cert
    for u, v in itertools.combinations(h.vertices, 2):
        if h.star(u) == h.star(v):
            yield h.vertices, vertex_pair_certificate(h, u, v)
    for u_part, v_part in find_equal_edge_partitions(h):
        yield h.vertices, partition_certificate(h, u_part, v_part)


@pytest.mark.parametrize("name", list(fx._FIXTURE_BUILDERS))
def test_certificates_list_every_ambient_label_in_order(name):
    h = fx._FIXTURE_BUILDERS[name]()
    for ambient, cert in _fixture_certificates(h):
        assert list(cert.coefficients) == list(ambient)
        assert all(cert.coefficients[x] == 0 for x in ambient if x not in cert.support)


def test_pullback_lists_every_source_vertex_in_order():
    cover, base, proj = fx.double_cover()
    lifted = pullback_dependent_set(cover, base, proj, dependent_vertices(base))
    assert list(lifted.coefficients) == list(cover.vertices)


def test_is_dependent_set_detects_only_real_supports():
    h = fx.hub_cycle()
    assert is_dependent_set(h, ["1", "2", "3", "4"]) is not None
    assert is_dependent_set(h, ["1", "2", "3"]) is None
    assert is_dependent_set(h, ["1", "2", "3", "4", "5"]) is not None
    assert (
        is_dependent_set(h, ["e1", "e2", "e3", "e4"], axis="hyperedges") is not None
    )
    assert is_dependent_set(h, ["e1", "e2", "e5"], axis="hyperedges") is None


def test_certificates_are_annihilated_exactly():
    h = fx.hub_cycle()
    inc = incidence_matrix(h)
    vcert = dependent_vertices(h)
    assert all(v == 0 for v in inc.transpose().apply(vcert.coefficients).values())
    ecert = dependent_hyperedges(h)
    assert all(v == 0 for v in inc.apply(ecert.coefficients).values())


def test_unit_decomposition_frozen_example():
    dec = units(fx.unit_blocks())
    got = [(u.members, u.generator) for u in dec.units]
    assert got == [
        (("1", "2"), frozenset({"e1", "e2"})),
        (("10",), frozenset({"e1", "e3", "e5"})),
        (("11",), frozenset({"e1", "e5"})),
        (("3", "4"), frozenset({"e2", "e3"})),
        (("5", "6", "7"), frozenset({"e1", "e4"})),
        (("8", "9"), frozenset({"e4", "e5"})),
    ]
    assert dec.labels == ("{1,2}", "{10}", "{11}", "{3,4}", "{5,6,7}", "{8,9}")


def test_units_partition_the_vertices():
    for h in (fx.hub_cycle(), fx.unit_blocks(), fx.balanced_overlap()):
        dec = units(h)
        all_members = [v for u in dec.units for v in u.members]
        assert sorted(all_members) == sorted(h.vertices)


def test_unit_members_share_their_star():
    h = fx.unit_blocks()
    for u in units(h).units:
        stars = {h.star(v) for v in u.members}
        assert len(stars) == 1
        assert stars.pop() == u.generator


def test_verify_unit_maximality():
    h = fx.unit_blocks()
    assert verify_unit_maximality(h, ["1", "2"])
    assert verify_unit_maximality(h, ["5", "6", "7"])
    # strict subset of a unit is not maximal
    assert not verify_unit_maximality(h, ["5", "6"])
    # mixed stars are not a unit at all
    assert not verify_unit_maximality(h, ["1", "3"])


def test_verify_unit_maximality_rejects_a_repeated_vertex():
    h = fx.unit_blocks()
    with pytest.raises(OverlapError, match=r"\['1'\]"):
        verify_unit_maximality(h, ["1", "1", "2"])
    with pytest.raises(TooSmallError):
        verify_unit_maximality(h, ["1", "1"])


def test_vertex_pair_certificate_for_twins():
    h = fx.unit_blocks()
    cert = vertex_pair_certificate(h, "1", "2")
    assert cert.support == frozenset({"1", "2"})
    assert cert.coefficients["1"] == 1
    assert cert.coefficients["2"] == -1
    a = incidence_graph_adjacency(h)
    assert all(v == 0 for v in a.apply(cert.coefficients).values())


def test_vertex_pair_certificate_rejects_one_vertex_given_twice():
    with pytest.raises(InvalidCertificateError, match="vertex '1' is given twice"):
        vertex_pair_certificate(fx.unit_blocks(), "1", "1")


def test_contraction_shape_and_bijection():
    con = unit_contraction(fx.unit_blocks())
    assert con.contracted.n_vertices == 6
    assert con.contracted.n_hyperedges == 5
    assert sorted(con.edge_map) == sorted(con.source.edge_labels)
    assert sorted(con.edge_map.values()) == sorted(con.contracted.edge_labels)
    # every vertex maps onto the unit containing it
    for u in con.decomposition.units:
        for v in u.members:
            assert con.vertex_map[v] == u.label


def test_contraction_rejects_a_hyperedge_labeled_like_a_unit():
    h = Hypergraph.from_members([("{a,b}", ["a", "b"]), ("x", ["a", "b", "c"])])
    with pytest.raises(HypergraphSyntaxError, match=r"\['\{a,b\}'\]"):
        unit_contraction(h)


def test_contracting_twice_changes_nothing():
    con = unit_contraction(fx.unit_blocks())
    again = unit_contraction(con.contracted)
    assert all(len(u.members) == 1 for u in again.decomposition.units)
    assert again.contracted.n_vertices == con.contracted.n_vertices
    assert again.contracted.n_hyperedges == con.contracted.n_hyperedges


def test_nullity_drops_by_unit_excess_under_contraction():
    h = fx.unit_blocks()
    big = nullspace(incidence_graph_adjacency(h))
    assert big.dimension == 6
    con = unit_contraction(h)
    small = nullspace(incidence_graph_adjacency(con.contracted))
    assert small.dimension == 1
    excess = sum(len(u.members) - 1 for u in con.decomposition.units)
    assert big.dimension == small.dimension + excess


def test_contraction_lift_is_annihilated():
    h = fx.unit_blocks()
    con = unit_contraction(h)
    small = nullspace(incidence_graph_adjacency(con.contracted))
    a = incidence_graph_adjacency(h)
    for vec in small.vectors:
        lifted = contraction_nullspace_lift(h, vec)
        assert all(v == 0 for v in a.apply(lifted).values())


def test_lift_rejects_vectors_outside_the_nullspace():
    h = fx.unit_blocks()
    con = unit_contraction(h)
    labels = con.contracted.vertices + con.contracted.edge_labels
    bogus = {lab: Fraction(1) for lab in labels}
    with pytest.raises(NotInNullspaceError):
        contraction_nullspace_lift(h, bogus)


def test_verify_equal_edge_partition_counts():
    h = fx.balanced_overlap()
    ok, table = verify_equal_edge_partition(h, ["1", "5"], ["2", "3", "4"])
    assert ok
    assert table == {"e1": (2, 2), "e2": (2, 2), "e3": (2, 2)}
    bad, table2 = verify_equal_edge_partition(h, ["1"], ["2"])
    assert not bad
    assert table2["e2"] == (1, 0)


def test_verify_equal_edge_partition_requires_disjoint_sets():
    with pytest.raises(NotDisjointError):
        verify_equal_edge_partition(fx.balanced_overlap(), ["1", "2"], ["2", "3"])


def _transition_pair(h, u_part, v_part):
    return verify_partition_transition(
        transition_matrix(h, WalkPolicy.uniform_nonlazy()), u_part, v_part
    )


@pytest.mark.parametrize(
    "verify, u_part, v_part, error, message",
    [
        (verify_equal_edge_partition, ["1", "x"], ["e1", "2"], UnknownLabelError, "unknown vertices: ['e1', 'x']"),
        (verify_equal_edge_partition, ["x", "1"], ["1"], UnknownLabelError, "unknown vertices: ['x']"),
        (verify_equal_edge_partition, ["1", "2", "3"], ["3", "2"], NotDisjointError, "sets overlap on ['2', '3']"),
        (verify_equal_star_partition, ["e1", "1"], ["e9"], UnknownLabelError, "unknown hyperedges: ['1', 'e9']"),
        (verify_equal_star_partition, ["e1", "e2"], ["e2"], NotDisjointError, "sets overlap on ['e2']"),
        (_transition_pair, ["1", "e1"], ["zz"], UnknownLabelError, "unknown states: ['e1', 'zz']"),
        (_transition_pair, ["1", "5"], ["5", "2"], NotDisjointError, "sets overlap on ['5']"),
    ],
)
def test_pair_verifiers_name_unknown_labels_and_overlaps(verify, u_part, v_part, error, message):
    with pytest.raises(error) as info:
        verify(fx.hub_cycle(), u_part, v_part)
    assert type(info.value) is error
    assert str(info.value) == message


def test_find_equal_edge_partitions_frozen_examples():
    assert find_equal_edge_partitions(fx.balanced_overlap()) == [
        (frozenset({"1"}), frozenset({"5"})),
        (frozenset({"1", "5"}), frozenset({"2", "3", "4"})),
    ]
    assert find_equal_edge_partitions(fx.hub_cycle()) == [
        (frozenset({"1", "3"}), frozenset({"2", "4"}))
    ]


@pytest.mark.parametrize("cap", [0, -1, float("nan"), 2.5, 4.0, True, False, "3", None])
def test_find_equal_edge_partitions_rejects_a_cap_that_is_not_a_positive_integer(cap):
    with pytest.raises(ValueError, match="max_support must be a positive integer, got "):
        find_equal_edge_partitions(fx.hub_cycle(), max_support=cap)


def test_find_equal_edge_partitions_takes_int_and_numpy_integer_caps():
    import numpy as np

    h = fx.hub_cycle()  # one pair, of support 4
    assert len(find_equal_edge_partitions(h, max_support=4)) == 1
    assert find_equal_edge_partitions(h, max_support=np.int64(4)) == find_equal_edge_partitions(h, 4)
    assert find_equal_edge_partitions(h, max_support=np.uint8(3)) == []


@pytest.mark.parametrize("name", sorted(fx._FIXTURE_BUILDERS))
def test_find_equal_edge_partitions_gives_the_same_pairs_from_a_given_basis(name):
    h = fx._FIXTURE_BUILDERS[name]()
    basis = nullspace(incidence_matrix(h).transpose())
    for cap in (2, max(h.n_vertices, 1)):
        found = find_equal_edge_partitions(h, max_support=cap)
        assert find_equal_edge_partitions(h, max_support=cap, basis=basis) == found


def test_find_equal_edge_partitions_rejects_a_basis_over_other_labels():
    h = fx.balanced_overlap()
    reordered = Hypergraph(h.vertices[::-1], h.hyperedges)
    for basis in (
        nullspace(incidence_matrix(h)),  # ker I, over the hyperedges
        nullspace(incidence_matrix(reordered).transpose()),  # the vertices in another order
        nullspace(incidence_matrix(fx.nested_chain(4)).transpose()),  # vertices 1 to 4 of 5
    ):
        with pytest.raises(ValueError, match="the basis is over .*, not the vertices"):
            find_equal_edge_partitions(h, basis=basis)


def _random_disjoint_pairs(rng, labels, count=20):
    """``count`` pairs of disjoint label sets, each label in the first, the
    second or neither with equal odds."""
    pairs = []
    for _ in range(count):
        side = [rng.randrange(3) for _ in labels]
        pairs.append(
            ({x for x, s in zip(labels, side) if s == 1}, {x for x, s in zip(labels, side) if s == 2})
        )
    return pairs


@pytest.mark.parametrize("name", sorted(fx._FIXTURE_BUILDERS))
def test_both_partition_verifiers_equal_a_direct_count(name):
    h = fx._FIXTURE_BUILDERS[name]()
    rng = random.Random(name)
    axes = (
        (
            verify_equal_edge_partition,
            h.vertices,
            [(e, h.members(e)) for e in h.edge_labels],
            find_equal_edge_partitions(h, max_support=max(h.n_vertices, 1)),
        ),
        (
            verify_equal_star_partition,
            h.edge_labels,
            [(v, h.star(v)) for v in h.vertices],
            # equal edge partitions of the dual are equal star partitions
            find_equal_edge_partitions(dual(h), max_support=max(h.n_hyperedges, 1)),
        ),
    )
    for verify, labels, sets, found in axes:
        for a, b in found + _random_disjoint_pairs(rng, labels):
            table = {key: (sum(x in s for x in a), sum(x in s for x in b)) for key, s in sets}
            ok, got = verify(h, a, b)
            assert list(got.items()) == list(table.items())
            assert ok == all(x == y for x, y in table.values())
        assert all(verify(h, a, b)[0] for a, b in found)


def _sign_sums_directly(vectors, start, allowed):
    """Every (c, start + sum_j c_j vectors[j]) with all entries in ``allowed``, in Python."""
    out = set()
    for c in itertools.product((-1, 0, 1), repeat=len(vectors)):
        sums = tuple(s + sum(cj * v[i] for cj, v in zip(c, vectors)) for i, s in enumerate(start))
        if all(x in allowed for x in sums):
            out.add((c, sums))
    return out


def _sign_sums_yielded(vectors, start, allowed):
    out = []
    for c, sums in structures._sign_sums(vectors, start, allowed):
        assert len(c) == len(sums) > 0
        out += zip(map(tuple, c.tolist()), map(tuple, sums.tolist()))
    assert len(out) == len(set(out))
    return set(out)


@pytest.mark.parametrize("k", range(10))
def test_sign_sums_equal_a_direct_computation(k, monkeypatch):
    rng = random.Random(k)
    # widths k and 12 - k cover 0..12; the small cap makes k below, at and above
    # the block's digits at most widths
    for width in sorted({k, 12 - k}):
        vectors = [[rng.choice((-2, -1, 0, 0, 0, 0, 1, 2)) for _ in range(width)] for _ in range(k)]
        start = [rng.choice((-2, 0, 0, 2)) for _ in range(width)]
        for allowed in ((0,), (-2, 0, 2)):
            want = _sign_sums_directly(vectors, start, allowed)
            for cells in (structures._BLOCK_CELLS, 9 * max(width, 1)):
                monkeypatch.setattr(structures, "_BLOCK_CELLS", cells)
                assert _sign_sums_yielded(vectors, start, allowed) == want


def test_sign_sums_take_python_ints_when_int64_could_overflow():
    big = 2**62
    vectors = [[big, 1, 0], [big, -1, big], [0, 1, -big]]
    start, allowed = [big, 0, 0], (0, 1, big, 2 * big, 3 * big)
    blocks = list(structures._sign_sums(vectors, start, allowed))
    assert all(sums.dtype == object for _, sums in blocks)
    got = _sign_sums_yielded(vectors, start, allowed)
    assert got == _sign_sums_directly(vectors, start, allowed)
    assert max(max(sums) for _, sums in got) == 3 * big


def test_sign_sums_hold_one_block_whatever_k():
    vectors = [[0] * 8 for _ in range(20)]
    tracemalloc.start()
    try:
        c, sums = next(structures._sign_sums(vectors, [0] * 8, (0,)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.shape[1] == 20 and len(c) < 3**20
    assert peak < 4 * 2**20


def test_found_partitions_match_the_nullspace_both_ways():
    h = fx.balanced_overlap()
    inc_t = incidence_matrix(h).transpose()
    for u_set, v_set in find_equal_edge_partitions(h):
        chi = {v: Fraction(1) for v in u_set}
        chi.update({v: Fraction(-1) for v in v_set})
        assert all(x == 0 for x in inc_t.apply(chi).values())


def test_partition_certificate_wraps_the_indicator():
    cert = partition_certificate(fx.balanced_overlap(), ["1", "5"], ["2", "3", "4"])
    assert cert.kind == CertificateKind.EQUAL_EDGE_PARTITION
    assert cert.annihilated_by == VERTEX_AXIS
    assert cert.coefficients["1"] == 1
    assert cert.coefficients["2"] == -1


def test_partition_certificate_reads_one_shot_iterables_once():
    h = fx.balanced_overlap()
    u_part, v_part = find_equal_edge_partitions(h)[0]
    from_sets = partition_certificate(h, u_part, v_part)
    assert from_sets.support == frozenset({"1", "5"})
    assert partition_certificate(h, iter(u_part), iter(v_part)) == from_sets


def test_equal_star_partition_on_edge_sets():
    h = fx.hub_cycle()
    ok, table = verify_equal_star_partition(h, ["e1", "e3"], ["e2", "e4"])
    assert ok
    assert table["5"] == (2, 2)
    bad, _ = verify_equal_star_partition(h, ["e1"], ["e2"])
    assert not bad


def _star_pair():
    return Hypergraph.from_members([("a", ["c", "p"]), ("b", ["c", "q"])], vertices=["c", "p", "q"])


def test_star_partition_makes_the_center_row_the_sum_of_the_parts():
    h = _star_pair()
    assert verify_star_partition(h, "c", ["p", "q"])
    cert = is_dependent_set(h, ["c", "p", "q"])
    assert cert.coefficients == {"c": 1, "p": -1, "q": -1}


def test_star_partition_fails_on_overlapping_stars_or_an_uncovered_edge():
    overlap = Hypergraph.from_members([("a", ["c", "p", "q"]), ("b", ["c", "q"])])
    assert not verify_star_partition(overlap, "c", ["p", "q"])
    assert not verify_star_partition(_star_pair(), "c", ["p"])


@pytest.mark.parametrize(
    "center, parts, error",
    [
        ("c", ["p", "c"], OverlapError),
        ("c", ["p", "p"], OverlapError),
        ("c", ["p", "x"], UnknownLabelError),
        ("x", ["p"], UnknownLabelError),
    ],
)
def test_star_partition_rejects_bad_parts(center, parts, error):
    with pytest.raises(error):
        verify_star_partition(_star_pair(), center, parts)


def test_covering_projection_classes():
    cover, base, proj = fx.double_cover()
    assert (
        verify_covering_projection(cover, base, proj)
        is ProjectionClass.CARDINALITY_PRESERVING_COVERING
    )
    con = unit_contraction(fx.unit_blocks())
    got = verify_covering_projection(
        fx.unit_blocks(), con.contracted, dict(con.vertex_map)
    )
    assert got is ProjectionClass.COVERING


def test_non_projection_is_rejected():
    cover, base, proj = fx.double_cover()
    broken = dict(proj)
    broken["u1"] = "2"  # no longer maps stars onto stars
    got = verify_covering_projection(cover, base, broken)
    assert got is ProjectionClass.NOT_HOMOMORPHISM


def test_a_star_that_collapses_is_a_homomorphism_but_not_a_covering():
    path = Hypergraph.from_members([("e1", "ab"), ("e2", "bc")])
    edge = Hypergraph.from_members([("f", "xy")])
    # both hyperedges go onto f, so b's star of two maps onto y's star of one
    got = verify_covering_projection(path, edge, {"a": "x", "b": "y", "c": "x"})
    assert got is ProjectionClass.HOMOMORPHISM


def test_a_homomorphism_that_misses_a_vertex_is_not_a_covering():
    edge = Hypergraph.from_members([("e", "ab")])
    path = Hypergraph.from_members([("f1", "xy"), ("f2", "yz")])
    # e goes onto f1, but no vertex goes to z
    got = verify_covering_projection(edge, path, {"a": "x", "b": "y"})
    assert got is ProjectionClass.HOMOMORPHISM


def test_pullback_lifts_certificates_exactly():
    cover, base, proj = fx.double_cover()
    cert = dependent_vertices(base)
    assert cert is not None
    lifted = pullback_dependent_set(cover, base, proj, cert)
    assert lifted.support == frozenset(
        u for u, b in proj.items() if b in cert.support
    )
    inc_t = incidence_matrix(cover).transpose()
    assert all(v == 0 for v in inc_t.apply(lifted.coefficients).values())


def test_pullback_validates_the_vertex_map_once(monkeypatch):
    calls = []
    validate = structures._validate_vertex_map

    def counting(*args):
        calls.append(args)
        return validate(*args)

    monkeypatch.setattr(structures, "_validate_vertex_map", counting)
    cover, base, proj = fx.double_cover()
    pullback_dependent_set(cover, base, proj, dependent_vertices(base))
    assert len(calls) == 1
    verify_covering_projection(cover, base, proj)
    assert len(calls) == 2


def test_pullback_requires_cardinality_preservation():
    h = fx.unit_blocks()
    con = unit_contraction(h)
    cert = dependent_vertices(con.contracted)
    if cert is None:
        small = nullspace(incidence_matrix(con.contracted).transpose())
        assert small.dimension == 0
        pytest.skip("contraction has no vertex certificate to pull back")
    with pytest.raises(NotCardinalityPreservingError):
        pullback_dependent_set(h, con.contracted, dict(con.vertex_map), cert)


def test_certificate_validation():
    with pytest.raises(Exception):
        Certificate(
            CertificateKind.DEPENDENT_VERTICES,
            frozenset({"a"}),
            {"a": Fraction(0)},
            VERTEX_AXIS,
        )
