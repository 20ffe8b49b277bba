"""The integer kernels agree with plain Fraction loops.

Each public exact routine is compared, entry by entry, with the reference
loop in ``fraction_oracles`` on generated matrices: empty shapes,
rank-deficient matrices, zero columns ahead of a pivot, negative entries
and non-unit denominators. The integer partition search is compared with
the Fraction enumeration on generated hypergraphs and twin families.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import fraction_oracles as oracle
from hyperlin import Hypergraph, WalkPolicy, rw_betweenness, transition_matrix
from hyperlin.errors import SingularError
from hyperlin.linalg import RationalMatrix, determinant, nullspace, rref, solve
from hyperlin.structures import find_equal_edge_partitions

KERNEL = settings(max_examples=150, derandomize=True, deadline=None)

scalars = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
)


def _matrix(rows: list[list[Fraction]], ncols: int) -> RationalMatrix:
    return RationalMatrix.from_rows(
        [f"r{i}" for i in range(len(rows))], [f"c{j}" for j in range(ncols)], rows
    )


@st.composite
def matrices(draw, square: bool = False) -> RationalMatrix:
    nrows = draw(st.integers(0, 6))
    ncols = nrows if square else draw(st.integers(0, 6))
    rows = [[draw(scalars) for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 3 and draw(st.booleans()):
        # a combination of two other rows makes the matrix rank-deficient
        i, j, k = draw(st.permutations(range(nrows)))[:3]
        a, b = draw(scalars), draw(scalars)
        rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    if ncols >= 2 and draw(st.booleans()):
        # a zero column ahead of the first pivot
        c = draw(st.integers(0, ncols - 2))
        for row in rows:
            row[c] = Fraction(0)
    return _matrix(rows, ncols)


EMPTY_ROWS = _matrix([], 4)
EMPTY_COLS = _matrix([[], [], []], 0)
ZERO_LEAD = _matrix([[0, 0, 2, -1], [0, 0, 4, -2], [0, 0, Fraction(1, 3), 5]], 4)


@KERNEL
@given(matrices())
@example(EMPTY_ROWS)
@example(EMPTY_COLS)
@example(ZERO_LEAD)
def test_rref_matches_fraction_gauss_jordan(m):
    reduced, pivots = oracle.gauss_jordan([list(r) for r in m.entries], m.cols)
    res = rref(m)
    assert res.matrix.entries == tuple(tuple(r) for r in reduced)
    assert res.pivot_cols == tuple(pivots)
    assert res.rank == len(pivots)


@KERNEL
@given(matrices())
@example(EMPTY_ROWS)
@example(EMPTY_COLS)
@example(ZERO_LEAD)
def test_nullspace_matches_fraction_basis(m):
    expected = oracle.nullspace_vectors([list(r) for r in m.entries], m.cols)
    basis = nullspace(m)
    assert [[v[lab] for lab in m.col_labels] for v in basis.vectors] == expected


@KERNEL
@given(matrices(square=True), st.lists(scalars, min_size=6, max_size=6))
@example(_matrix([], 0), [])
@example(_matrix([[0, 3], [Fraction(-1, 2), 1]], 2), [Fraction(1, 5), 2])
def test_solve_matches_fraction_solution(m, rhs):
    rhs = rhs[: m.rows]
    expected = oracle.solve([list(r) for r in m.entries], rhs)
    if expected is None:
        with pytest.raises(SingularError):
            solve(m, rhs)
    else:
        assert solve(m, rhs) == dict(zip(m.col_labels, expected))


@KERNEL
@given(matrices(square=True))
@example(_matrix([], 0))
@example(_matrix([[0, 1], [1, 0]], 2))
@example(_matrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(-1, 4), Fraction(2, 5)]], 2))
def test_determinant_matches_fraction_bareiss(m):
    assert determinant(m) == oracle.determinant([list(r) for r in m.entries])


@st.composite
def kernels(draw):
    """A uniform walk kernel on a hypergraph whose every vertex has a hyperedge.

    The non-lazy walk (zero diagonal) is drawn when no hyperedge is a singleton.
    """
    n = draw(st.integers(1, 6))
    verts = [str(i) for i in range(1, n + 1)]
    member_sets = draw(
        st.lists(
            st.frozensets(st.sampled_from(verts), min_size=1),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    covered = frozenset().union(*member_sets)
    if covered != frozenset(verts):
        member_sets.append(frozenset(verts) - covered)
    h = Hypergraph.from_members(
        [(f"e{j}", sorted(ms)) for j, ms in enumerate(member_sets)], vertices=verts
    )
    if all(len(ms) >= 2 for ms in member_sets) and draw(st.booleans()):
        return transition_matrix(h, WalkPolicy.uniform_nonlazy())
    return transition_matrix(h, WalkPolicy.uniform_lazy())


@KERNEL
@given(kernels(), st.integers(1, 6))
def test_rw_betweenness_matches_fraction_power_sums(tm, horizon):
    expected = oracle.rw_betweenness([list(r) for r in tm.matrix.entries], horizon)
    rep = rw_betweenness(tm, horizon)
    assert [rep.values[v] for v in tm.states] == expected


@st.composite
def hypergraphs_with_cap(draw):
    """A hypergraph (isolated vertices allowed) and a support cap up to |V|."""
    n = draw(st.integers(1, 7))
    verts = [str(i) for i in range(1, n + 1)]
    member_sets = draw(
        st.lists(
            st.frozensets(st.sampled_from(verts), min_size=1),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    h = Hypergraph.from_members(
        [(f"e{j}", sorted(ms)) for j, ms in enumerate(member_sets)], vertices=verts
    )
    return h, draw(st.integers(1, n))


def _twins(k: int, hub: bool) -> Hypergraph:
    """k twin pairs a_i, b_i, each pair also in one edge with the hub if ``hub``."""
    pairs = [(f"p{i}", [f"a{i}", f"b{i}"]) for i in range(k)]
    if hub:
        pairs += [(f"g{i}", ["h", f"a{i}", f"b{i}"]) for i in range(k)]
    return Hypergraph.from_members(pairs)


# a basis with denominator 2 whose combinations still give a partition
HALVES = Hypergraph.from_members(
    [
        ("e0", ["1", "2", "3", "4", "5", "6", "7"]),
        ("e1", ["1", "2", "5", "6", "7"]),
        ("e2", ["1", "3", "5", "6", "7"]),
        ("e3", ["1", "4", "5", "7"]),
        ("e4", ["4", "5"]),
    ]
)


@KERNEL
@given(hypergraphs_with_cap())
@example((HALVES, 7))
def test_partition_search_matches_fraction_enumeration(case):
    h, cap = case
    assert find_equal_edge_partitions(h, max_support=cap) == oracle.equal_edge_partitions(h, cap)


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("hub", [False, True])
def test_partition_search_matches_fraction_enumeration_on_twins(k, hub):
    h = _twins(k, hub)
    for cap in (1, 2, 4, h.n_vertices):
        assert find_equal_edge_partitions(h, max_support=cap) == oracle.equal_edge_partitions(h, cap)
