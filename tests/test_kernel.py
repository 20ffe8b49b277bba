"""The integer kernels agree with plain Fraction loops.

Each public exact routine is compared, entry by entry, with the reference
loop in ``fraction_oracles`` on generated matrices: empty shapes,
rank-deficient matrices, zero columns ahead of a pivot, negative entries
and non-unit denominators. The multimodular RREF is compared with the
same oracles on those matrices (cut-over patched to 0) and on sized ones:
0/1 and small-int matrices of 20 to 60 rows, numerators beyond int64,
matrices that need several primes, an unlucky prime first or second in
the prime source, and corrupted reconstructions the certificate must
reject.
The integer partition search is compared with
the Fraction enumeration on generated hypergraphs and twin families, and
the integer walk functions with Fraction stepping, absorption, row sums
and solves on generated kernels under uniform and unequal custom policies.
The star-indexed integer build of the uniform kernels is compared with the
rule-by-rule Fraction kernel, and its ints with that kernel's canonical
integer rows.
Random-walk betweenness by first passage equals the deleted-row power
sums on generated kernels at short and long horizons.
The block simulator and its bucket tables are compared with the
one-trajectory-at-a-time simulator on the same kernels and on kernels
that put two bounds in one bucket: visit counts and first-hit tables, key
order included.
"""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fraction_oracles as oracle
from hyperlin import (
    Hypergraph,
    TransitionMatrix,
    WalkPolicy,
    first_hit_probabilities,
    hitting_times,
    randwalk,
    rw_betweenness,
    simulate,
    step_distribution,
    transition_matrix,
    verify_partition_transition,
)
from hyperlin import centrality, fixtures as fx, linalg
from hyperlin.errors import (
    NotUniformPolicyError,
    SingletonEdgeNonLazyError,
    SingularError,
    UnreachableError,
)
from hyperlin.hypergraph import incidence_matrix
from hyperlin.linalg import RationalMatrix, _integer_row, determinant, nullspace, rank, rref, solve
from hyperlin.randwalk import SplitMix64, trajectory_seed
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


def _assert_rref_rank_and_nullspace_match_the_oracles(m: RationalMatrix) -> None:
    rows = [list(r) for r in m.entries]
    reduced, pivots = oracle.gauss_jordan(rows, m.cols)
    res = rref(m)
    assert res.matrix.entries == tuple(tuple(r) for r in reduced)
    assert res.pivot_cols == tuple(pivots)
    assert res.rank == rank(m) == len(pivots)
    basis = nullspace(m)
    assert [[v[lab] for lab in m.col_labels] for v in basis.vectors] == oracle.nullspace_vectors(rows, m.cols)


@KERNEL
@given(matrices())
@example(EMPTY_ROWS)
@example(EMPTY_COLS)
@example(ZERO_LEAD)
def test_modular_rref_rank_and_nullspace_match_the_oracles(m):
    """The multimodular engine on the small strategies, with the cut-over at 0."""
    with mock.patch.object(linalg, "_MODULAR_MIN_CELLS", 0):
        _assert_rref_rank_and_nullspace_match_the_oracles(m)


def _count_primes(monkeypatch) -> list[int]:
    """Record every prime the multimodular engine takes."""
    taken: list[int] = []
    primes = linalg._primes

    def counting():
        for p in primes():
            taken.append(p)
            yield p

    monkeypatch.setattr(linalg, "_primes", counting)
    return taken


def _random_rows(seed: int, nrows: int, ncols: int, values, deficient: int) -> list[list[int]]:
    """Random rows drawn from ``values``; the last ``deficient`` rows are
    combinations of two earlier ones, so the rank is at most nrows - deficient."""
    rng = random.Random(seed)
    rows = [[rng.choice(values) for _ in range(ncols)] for _ in range(nrows)]
    for k in range(1, deficient + 1):
        i, j = rng.sample(range(nrows - deficient), 2)
        a, b = rng.randint(-3, 3), rng.randint(1, 3)
        rows[-k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    return rows


@pytest.mark.parametrize(
    "seed, nrows, ncols, values, deficient",
    [
        (1, 20, 30, (0, 1), 0),
        (2, 30, 20, (0, 1), 4),
        (3, 40, 40, (0, 0, 0, 1), 6),
        (4, 60, 25, (-2, -1, 0, 1, 2), 0),
        (5, 25, 60, (0, 1), 5),
        (6, 50, 36, (0, 0, 1, 2), 20),
    ],
)
def test_modular_rref_matches_the_oracles_at_size(monkeypatch, seed, nrows, ncols, values, deficient):
    taken = _count_primes(monkeypatch)
    m = _matrix(_random_rows(seed, nrows, ncols, values, deficient), ncols)
    assert m.rows * m.cols >= linalg._MODULAR_MIN_CELLS
    _assert_rref_rank_and_nullspace_match_the_oracles(m)
    assert taken


@pytest.mark.parametrize("scale", [2**62 + 1, 2**64 + 13, Fraction(2**70 + 1, 2**65 + 3)])
def test_modular_rref_on_numerators_beyond_int64(monkeypatch, scale):
    """Scaling one row keeps the RREF small but makes numerators large. From
    2^62 + 1 the certificate's int64 bound fails, so its product runs in
    Python ints; from 2^64 the residues too are taken by Python's %."""
    taken = _count_primes(monkeypatch)
    rows = _random_rows(7, 24, 30, (0, 1), 3)
    rows[0] = [x * scale for x in rows[0]]
    m = _matrix(rows, 30)
    assert max(abs(x) for row in m.numerators for x in row) > 2**62
    _assert_rref_rank_and_nullspace_match_the_oracles(m)
    assert taken


def test_modular_rref_combines_primes_when_one_is_not_enough(monkeypatch):
    """A dense small-int matrix has RREF entries far above sqrt(p / 2)."""
    taken = _count_primes(monkeypatch)
    m = _matrix(_random_rows(8, 24, 30, range(-5, 6), 2), 30)
    _assert_rref_rank_and_nullspace_match_the_oracles(m)
    assert len(taken) > 2
    assert max(abs(x) for row in rref(m).matrix.numerators for x in row) > 2**62


#: A prime far from the engine's first ones, to plant in a pivot minor.
UNLUCKY = 1_000_003


@pytest.mark.parametrize("position", [0, 1])
@pytest.mark.parametrize("kind", ["later pivots", "fewer pivots"])
def test_modular_rref_drops_an_unlucky_prime(monkeypatch, kind, position):
    """The prime source yields UNLUCKY at ``position``, then ends after a few
    usual primes, so a result that kept its residues could not be certified."""
    usual = list(itertools.islice(linalg._primes(), 16))
    source = usual[:position] + [UNLUCKY] + usual[position:]
    monkeypatch.setattr(linalg, "_primes", lambda: iter(source))
    taken = _count_primes(monkeypatch)
    # dense small ints, so the engine needs more than one prime and meets UNLUCKY
    rows = _random_rows(9, 24, 30, range(-5, 6), 0)
    if kind == "later pivots":  # column 0 vanishes mod UNLUCKY
        rows = [[UNLUCKY * row[0], *row[1:]] for row in rows]
    else:  # the last row equals the first mod UNLUCKY, and only mod UNLUCKY
        rows[-1] = [x + UNLUCKY * y for x, y in zip(rows[0], rows[-1])]
    m = _matrix(rows, 30)
    _assert_rref_rank_and_nullspace_match_the_oracles(m)
    assert UNLUCKY in taken


def _tampered(n, d: int, corrupt: str):
    n = n.copy()
    if corrupt == "one entry":
        n[0, -1] += 1
        return n, d
    f = next(q for q in range(2, d + 1) if d % q == 0)
    n[n == d] = d // f  # the pivots agree with the smaller denominator
    return n, d // f


@pytest.mark.parametrize("corrupt", ["one entry", "dropped denominator factor"])
def test_a_corrupted_reconstruction_fails_the_certificate(monkeypatch, corrupt):
    """The first candidate is corrupted: the certificate must reject it and
    the engine must go on to a prime whose candidate it proves."""
    m = _matrix(_random_rows(10, 20, 30, (0, 1), 0), 30)
    reconstruct = linalg._reconstruct
    seen = []

    def corrupting(residues, modulus):
        found = reconstruct(residues, modulus)
        if found is not None and not seen:
            assert found[1] > 1
            found = _tampered(*found, corrupt)
        seen.append(found)
        return found

    monkeypatch.setattr(linalg, "_reconstruct", corrupting)
    _assert_rref_rank_and_nullspace_match_the_oracles(m)
    assert len(seen) > 1


def test_the_certificate_takes_python_ints_above_the_int64_bound():
    """2 (1 - 2^63) = 2 - 2^64 wraps to 2 in int64, so an int64 product
    would certify this wrong row; max|A| max|N| r = 2 (2^63 - 1) is above
    the bound, so the product runs in Python ints and rejects it."""
    a = np.array([[2, 2]], dtype=np.int64)
    assert linalg._certified(a, np.array([[1, 1]], dtype=np.int64), 1, [0])
    assert not linalg._certified(a, np.array([[1, 1 - 2**63]], dtype=np.int64), 1, [0])


def _certificate_input(scale: int):
    """A = scale A0 with its exact RREF N / d and pivots, for ``_certified``:
    int64 arrays at scale 1, object arrays past the int64 bound at 2^62."""
    rows = [[0, 2, 1, 3, 1], [0, 4, 2, 1, 5], [0, 1, 3, 2, 2]]
    res = rref(_matrix([[Fraction(x) for x in row] for row in rows], 5))
    dtype = np.int64 if scale == 1 else object
    a = np.array([[scale * x for x in row] for row in rows], dtype=dtype)
    n = np.array(res.matrix.numerators[: res.rank], dtype=dtype)
    return a, n, res.matrix.denominator, list(res.pivot_cols)


@pytest.mark.parametrize("scale", [1, 2**62])
@pytest.mark.parametrize("tamper", ["none", "off-diagonal pivot entry", "pivot entry not d", "one free entry"])
def test_the_certificate_checks_the_pivot_block_and_multiplies_the_free_columns(scale, tamper):
    a, n, d, pivots = _certificate_input(scale)
    free = [c for c in range(a.shape[1]) if c not in pivots]
    assert pivots == [1, 2, 3] and free == [0, 4] and d > 1
    n = n.copy()
    if tamper == "off-diagonal pivot entry":
        n[0, pivots[1]] = 1
    elif tamper == "pivot entry not d":
        n[1, pivots[1]] = d + 1
    elif tamper == "one free entry":
        n[2, free[1]] += 1
    assert linalg._certified(a, n, d, pivots) == (tamper == "none")


@pytest.mark.parametrize("scale", [1, 2**62])
def test_the_certificate_rejects_a_rank_that_only_holds_mod_p(scale):
    """A = [[p]] (times 2^62, past the int64 bound) has rank 0 mod p: the
    empty candidate fails, as its empty product cannot give d A; the rank-1
    candidate over a second prime holds with no free column to multiply."""
    p = next(linalg._primes())
    dtype = np.int64 if scale == 1 else object
    a = np.array([[scale * p]], dtype=dtype)
    assert not linalg._certified(a, np.zeros((0, 1), dtype=dtype), 1, [])
    assert linalg._certified(a, np.array([[1]], dtype=dtype), 1, [0])


def test_the_int64_bound_reads_the_magnitude_of_minus_2_to_the_63():
    """abs(-2^63) wraps to -2^63 in int64, which would put the bound under
    2^63; read from min and max, it sends this product to Python ints,
    where -2^63 * 2 = -2^64, which int64 wraps to 0, is not 0."""
    a = np.array([[-(2**63), 0]], dtype=np.int64)
    assert linalg._certified(a, np.array([[1, 0]], dtype=np.int64), 1, [0])
    assert not linalg._certified(a, np.array([[1, 2]], dtype=np.int64), 1, [0])


def test_a_certificate_tampered_past_2_to_the_63_still_fails():
    """N[0, 1] = 1 + 2^63 is past int64, and 2 (1 + 2^63) = 2 + 2^64 wraps to
    2 = d A[0, 1] in int64; the product must run in Python ints to reject it."""
    a = np.array([[2, 2]], dtype=np.int64)
    assert not linalg._certified(a, np.array([[1, 1 + 2**63]], dtype=object), 1, [0])
    assert linalg._certified(a, np.array([[1, 1]], dtype=object), 1, [0])


@pytest.mark.parametrize(
    "rows, weight, python_ints",
    [
        ([[2**63 - 1, 0]], 1, False),
        ([[2**62, 1]], 2, True),
        ([[7, -3]], (2**63 - 1) // 7, False),
        ([[7, -3]], (2**63 - 1) // 7 + 1, True),
        (np.array([[-(2**63), 5]], dtype=np.int64), 1, True),
        ([[2**63, 0]], 0, True),
        (np.array([[-(2**63), 5]], dtype=np.int64), 0, False),
        (np.zeros((0, 3), dtype=np.int64), 2**70, False),
    ],
    ids=["2^63-1", "2^63", "7w=2^63-1", "7w=2^63", "-2^63 read as 2^63", "past int64", "no weight", "empty"],
)
def test_the_int_array_rule_takes_python_ints_from_weight_times_max_at_2_to_the_63(rows, weight, python_ints):
    got = linalg._int_array(rows, weight)
    assert got.dtype == (object if python_ints else np.int64)
    assert got.tolist() == np.asarray(rows, dtype=object).tolist()
    if python_ints:
        assert all(type(x) is int for x in got.flat)


def test_the_int_array_rule_gives_an_object_array_that_fits_back_as_int64():
    """The CRT path reconstructs object arrays of small ints."""
    got = linalg._int_array(np.array([[1, -2], [3, 2**40]], dtype=object), 2**20)
    assert got.dtype == np.int64
    assert got.tolist() == [[1, -2], [3, 2**40]]


def test_trial_division_is_the_definition_of_a_prime():
    definition = [n >= 2 and all(n % q for q in range(2, n)) for n in range(5001)]
    assert [linalg._is_prime(n) for n in range(5001)] == definition


def test_word_primes_are_the_primes_below_2_to_the_31_in_descending_order():
    by_trial = [
        p for p in range(2**31 - 1, 2**31 - 400, -2) if all(p % q for q in range(3, math.isqrt(p) + 1, 2))
    ]
    assert list(itertools.islice(linalg._primes(), len(by_trial))) == by_trial


def _products(a: list[list[Fraction]], b: list[list[Fraction]], inner: int, k: int) -> list[list[Fraction]]:
    return [[sum((row[t] * b[t][j] for t in range(inner)), Fraction(0)) for j in range(k)] for row in a]


@KERNEL
@given(st.data())
def test_integer_rows_are_canonical_and_match_the_fraction_algebra(data):
    """Stored ints are canonical, so two scalings of one value are equal and
    hash equal, and entries give back the drawn rows, on which the tests
    above compare rref, nullspace, solve and determinant with their oracles;
    @, apply, transpose and submatrix equal Fraction arithmetic on them."""
    nrows, ncols, k = (data.draw(st.integers(0, 5)) for _ in range(3))
    rows = [[data.draw(scalars) for _ in range(ncols)] for _ in range(nrows)]
    m = _matrix(rows, ncols)
    assert m.denominator > 0
    assert math.gcd(m.denominator, *(x for row in m.numerators for x in row)) == 1
    assert m.entries == tuple(map(tuple, rows))
    factor = data.draw(st.integers(-6, 6).filter(bool))
    scaled = [[x * factor for x in row] for row in m.numerators]
    again = RationalMatrix(m.row_labels, m.col_labels, scaled, m.denominator * factor)
    assert again == m and hash(again) == hash(m)
    assert again.transpose().entries == tuple(tuple(row[j] for row in rows) for j in range(ncols))
    other_rows = [[data.draw(scalars) for _ in range(k)] for _ in range(ncols)]
    other = RationalMatrix.from_rows(m.col_labels, [f"d{j}" for j in range(k)], other_rows)
    assert (again @ other).entries == tuple(map(tuple, _products(rows, other_rows, ncols, k)))
    x = {c: data.draw(scalars) for c in m.col_labels if data.draw(st.booleans())}
    vec = [[x.get(c, Fraction(0))] for c in m.col_labels]
    expected = [row[0] for row in _products(rows, vec, ncols, 1)]
    assert again.apply(x) == dict(zip(m.row_labels, expected))
    ri = data.draw(st.permutations(range(nrows)))[: data.draw(st.integers(0, nrows))]
    ci = data.draw(st.permutations(range(ncols)))[: data.draw(st.integers(0, ncols))]
    sub = again.submatrix([m.row_labels[i] for i in ri], [m.col_labels[j] for j in ci])
    assert sub.entries == tuple(tuple(rows[i][j] for j in ci) for i in ri)


def _custom_policy(h: Hypergraph, weights: list[int]) -> WalkPolicy:
    """Unequal rules: each choice normalizes positive integer weights taken
    in turn from ``weights``, so rows get differing denominators."""
    cycle = itertools.cycle(weights)
    edge_w = {(u, e): next(cycle) for u in h.vertices for e in sorted(h.star(u))}
    vertex_w = {
        (u, e, v): next(cycle)
        for u in h.vertices for e in sorted(h.star(u)) for v in sorted(h.members(e))
    }

    def edge_rule(u, e):
        return Fraction(edge_w[u, e], sum(edge_w[u, x] for x in h.star(u)))

    def vertex_rule(u, e, v):
        return Fraction(vertex_w[u, e, v], sum(vertex_w[u, e, x] for x in h.members(e)))

    return WalkPolicy.custom(edge_rule, vertex_rule)


# edge choices 1/3 with 2/3 (from b) and 2/7 with 5/7 (from c); member choices unequal too
UNEQUAL = Hypergraph.from_members([("e0", ["a", "b", "c"]), ("e1", ["b", "c"])])
UNEQUAL_TM = transition_matrix(UNEQUAL, _custom_policy(UNEQUAL, [1, 1, 2, 2, 5, 3, 1, 2, 5]))


@st.composite
def walk_hypergraphs(draw):
    """A hypergraph whose every vertex has a hyperedge, of mixed edge sizes
    from singletons up to all vertices."""
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
    return Hypergraph.from_members(
        [(f"e{j}", sorted(ms)) for j, ms in enumerate(member_sets)], vertices=verts
    )


@st.composite
def kernels(draw):
    """A walk kernel on a drawn walk hypergraph.

    The policy is uniform lazy, uniform non-lazy (drawn when no hyperedge is
    a singleton), or custom with unequal drawn weights.
    """
    h = draw(walk_hypergraphs())
    member_sets = [ms for _, ms in h.hyperedges]
    kind = draw(st.sampled_from(["lazy", "nonlazy", "custom"]))
    if kind == "custom":
        weights = draw(st.lists(st.integers(1, 7), min_size=1, max_size=8))
        return transition_matrix(h, _custom_policy(h, weights))
    if kind == "nonlazy" and all(len(ms) >= 2 for ms in member_sets):
        return transition_matrix(h, WalkPolicy.uniform_nonlazy())
    return transition_matrix(h, WalkPolicy.uniform_lazy())


@st.composite
def walks(draw):
    """A kernel and a start: one state, or a distribution with mixed denominators."""
    tm = draw(kernels())
    if draw(st.booleans()):
        return tm, draw(st.sampled_from(tm.states))
    raw = [draw(st.fractions(0, 3, max_denominator=7)) for _ in tm.states]
    if not any(raw):
        raw[0] = Fraction(1)
    total = sum(raw)
    return tm, {v: x / total for v, x in zip(tm.states, raw)}


@KERNEL
@given(walk_hypergraphs())
@example(fx.hub_cycle())
@example(fx.nested_chain(3))
@example(UNEQUAL)
def test_uniform_kernels_match_the_fraction_rules(h):
    """The star-indexed integer build equals the rule-by-rule Fraction kernel,
    and its ints are the canonical M / D of that kernel's entries."""
    for lazy, policy in ((True, WalkPolicy.uniform_lazy()), (False, WalkPolicy.uniform_nonlazy())):
        if not lazy and any(len(ms) == 1 for _, ms in h.hyperedges):
            with pytest.raises(SingletonEdgeNonLazyError):
                transition_matrix(h, policy)
            continue
        expected = oracle.transition_kernel(h, lazy)
        tm = transition_matrix(h, policy)
        assert tm.matrix.row_labels == tm.matrix.col_labels == h.vertices
        assert _kernel_rows(tm) == expected
        flat, scale = _integer_row([x for row in expected for x in row])
        n = len(expected)
        assert tm.matrix.numerators == tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))
        assert tm.matrix.denominator == scale
        # from_rows derives the same ints from the Fraction rules
        again = TransitionMatrix(
            source=h, policy=policy, matrix=RationalMatrix.from_rows(h.vertices, h.vertices, expected)
        )
        assert (again.matrix.numerators, again.matrix.denominator) == (tm.matrix.numerators, scale)


def _kernel_rows(tm) -> list[list[Fraction]]:
    return [list(r) for r in tm.matrix.entries]


def _start_vector(tm, init) -> list[Fraction]:
    if isinstance(init, str):
        return [Fraction(int(v == init)) for v in tm.states]
    return [init[v] for v in tm.states]


MIXED = {"a": Fraction(1, 2), "b": Fraction(1, 3), "c": Fraction(1, 6)}


@KERNEL
@given(walks(), st.integers(0, 6))
@example((UNEQUAL_TM, "a"), 0)
@example((UNEQUAL_TM, MIXED), 0)
@example((UNEQUAL_TM, MIXED), 3)
def test_step_distribution_matches_fraction_stepping(walk, t):
    tm, init = walk
    expected = oracle.step_distribution(_kernel_rows(tm), _start_vector(tm, init), t)
    assert list(step_distribution(tm, init, t).items()) == list(zip(tm.states, expected))


@KERNEL
@given(walks(), st.integers(1, 6), st.integers(0, 5))
@example((UNEQUAL_TM, "a"), 4, 0)
@example((UNEQUAL_TM, MIXED), 4, 1)
def test_first_hit_matches_fraction_absorption(walk, horizon, target):
    tm, init = walk
    target %= len(tm.states)
    expected = oracle.first_hit_probabilities(
        _kernel_rows(tm), target, horizon, _start_vector(tm, init)
    )
    assert first_hit_probabilities(tm, tm.states[target], horizon, init) == expected


@KERNEL
@given(kernels(), st.integers(0, 5), st.sampled_from(["return", "zero"]))
@example(UNEQUAL_TM, 0, "return")
@example(UNEQUAL_TM, 2, "zero")
def test_hitting_times_match_fraction_solve(tm, target, self_time):
    target %= len(tm.states)
    expected = oracle.hitting_times(_kernel_rows(tm), target, self_time)
    if expected is None:
        with pytest.raises(UnreachableError):
            hitting_times(tm, tm.states[target], self_time=self_time)
    else:
        times = hitting_times(tm, tm.states[target], self_time=self_time)
        assert list(times.items()) == list(zip(tm.states, expected))


@KERNEL
@given(kernels(), st.lists(st.sampled_from([-1, 0, 1]), min_size=6, max_size=6))
def test_partition_balance_matches_fraction_sums(tm, signs):
    if not tm.policy.is_uniform:
        with pytest.raises(NotUniformPolicyError):
            verify_partition_transition(tm, [], [])
        return
    signs = signs[: len(tm.states)]
    u = {i for i, s in enumerate(signs) if s == 1}
    v = {i for i, s in enumerate(signs) if s == -1}
    pairs = [(u, v)] + [
        ({tm.states.index(x) for x in a}, {tm.states.index(x) for x in b})
        for a, b in find_equal_edge_partitions(tm.source, max_support=len(tm.states))
    ]
    for a, b in pairs:
        labels_a = [tm.states[i] for i in a]
        labels_b = [tm.states[i] for i in b]
        expected = oracle.partition_balanced(_kernel_rows(tm), a, b)
        assert verify_partition_transition(tm, labels_a, labels_b) == expected


ONE_STATE_TM = transition_matrix(Hypergraph.from_members([("e0", ["a"])]), WalkPolicy.uniform_lazy())
# two components, so the power sums are zero between them
SPLIT_TM = transition_matrix(
    Hypergraph.from_members([("e0", ["a", "b"]), ("e1", ["c", "d", "e"])]),
    WalkPolicy.uniform_nonlazy(),
)


@KERNEL
@given(kernels(), st.integers(1, 6))
@example(ONE_STATE_TM, 1)
@example(SPLIT_TM, 5)
def test_rw_betweenness_matches_fraction_power_sums(tm, horizon):
    expected = oracle.rw_betweenness([list(r) for r in tm.matrix.entries], horizon)
    rep = rw_betweenness(tm, horizon)
    assert [rep.values[v] for v in tm.states] == expected


LEAVE_ONE_OUT_TM = transition_matrix(fx.leave_one_out(12), WalkPolicy.uniform_nonlazy())


@settings(max_examples=60, derandomize=True, deadline=None)
@given(kernels(), st.one_of(st.integers(1, 6), st.integers(150, 400)))
@example(ONE_STATE_TM, 1)
@example(ONE_STATE_TM, 200)
@example(UNEQUAL_TM, 1)
@example(SPLIT_TM, 1)
@example(SPLIT_TM, 5)
@example(SPLIT_TM, 300)
@example(LEAVE_ONE_OUT_TM, 10)
def test_rw_betweenness_paths_agree(tm, horizon):
    """First passage, with its partial sums all kept and all recomputed, and
    the deleted-row power sums give the same values in the same key order,
    on both sides of the horizon at which ``rw_betweenness`` switches
    between them."""
    deleted = centrality._betweenness_by_deleted_rows(tm, horizon)
    assert list(deleted) == list(tm.states)
    for budget in (0, math.inf):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(centrality, "_KEPT_PARTIAL_SUMS", budget)
            first = centrality._betweenness_by_first_passage(tm, horizon)
        assert list(first.items()) == list(deleted.items())


@pytest.mark.parametrize("budget", [0, math.inf], ids=["recomputed", "kept"])
@pytest.mark.parametrize(
    "tm, horizon",
    [
        (ONE_STATE_TM, 200),
        (UNEQUAL_TM, 1),
        (UNEQUAL_TM, 6),
        (UNEQUAL_TM, 150),
        (SPLIT_TM, 300),
        (LEAVE_ONE_OUT_TM, 10),
    ],
    ids=["one-state-200", "unequal-1", "unequal-6", "unequal-150", "split-300", "leave-one-out-12-10"],
)
def test_first_passage_matches_fraction_power_sums(monkeypatch, budget, tm, horizon):
    monkeypatch.setattr(centrality, "_KEPT_PARTIAL_SUMS", budget)
    got = centrality._betweenness_by_first_passage(tm, horizon)
    assert list(got) == list(tm.states)
    assert list(got.values()) == oracle.rw_betweenness([list(r) for r in tm.matrix.entries], horizon)


@pytest.mark.parametrize("spare", [-1, 0])
def test_first_passage_keeps_partial_sums_only_within_the_budget(monkeypatch, spare):
    """12 states at horizon 10 keep 10 * 12^2 = 1440 partial sums: a budget
    of 1440 keeps them from the one pass over the rows, one less recomputes
    each target's rows, and both give the same values."""
    tm, horizon, n = LEAVE_ONE_OUT_TM, 10, 12
    want = centrality._betweenness_by_deleted_rows(tm, horizon)
    passes = []
    row = centrality._power_sum_row

    def counted(columns, scale, w, horizon, partials=None):
        passes.append((w, partials is not None))
        return row(columns, scale, w, horizon, partials)

    monkeypatch.setattr(centrality, "_power_sum_row", counted)
    monkeypatch.setattr(centrality, "_KEPT_PARTIAL_SUMS", horizon * n * n + spare)
    got = centrality._betweenness_by_first_passage(tm, horizon)
    assert list(got.items()) == list(want.items())
    if spare < 0:
        assert passes == [(w, False) for w in range(n)] + [(w, True) for w in range(n)]
    else:
        assert passes == [(w, True) for w in range(n)]


@pytest.mark.parametrize(
    "tm, horizon, path",
    [
        (LEAVE_ONE_OUT_TM, 10, "first_passage"),
        (transition_matrix(fx.hub_cycle(), WalkPolicy.uniform_nonlazy()), 1000, "deleted_rows"),
    ],
)
def test_rw_betweenness_picks_its_path_by_horizon_and_kernel_size(monkeypatch, tm, horizon, path):
    """12 states at horizon 10 (the benchmark's size) take first passage;
    the 5-state hub cycle at horizon 1000 takes the deleted-row sums."""
    taken = []
    for name in ("first_passage", "deleted_rows"):
        helper = getattr(centrality, f"_betweenness_by_{name}")
        monkeypatch.setattr(
            centrality,
            f"_betweenness_by_{name}",
            lambda tm, horizon, name=name, helper=helper: taken.append(name) or helper(tm, horizon),
        )
    rw_betweenness(tm, horizon)
    assert taken == [path]


def _assert_same_simulation(tm, init, steps, trajectories, seed):
    got = simulate(tm, init, steps, trajectories, seed)
    want = oracle.simulate(tm, init, steps, trajectories, seed)
    assert list(got.visit_counts.items()) == list(want.visit_counts.items())
    assert list(got.first_hits) == list(want.first_hits)
    for v in tm.states:
        assert list(got.first_hits[v].items()) == list(want.first_hits[v].items())
    assert (got.trajectories, got.steps, got.seed) == (trajectories, steps, seed)


EDGE_SEEDS = [0, -1, 2**64 - 1, 2**70 + 5]


@KERNEL
@given(
    walks(),
    st.integers(0, 8),
    st.integers(1, 40),
    st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(-(2**70), 2**70)),
)
@example((UNEQUAL_TM, MIXED), 6, 25, 2**70 + 5)
def test_simulate_matches_one_trajectory_at_a_time(walk, steps, trajectories, seed):
    tm, init = walk
    _assert_same_simulation(tm, init, steps, trajectories, seed)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("steps, trajectories", [(0, 1), (0, 30), (1, 1), (9, 1), (9, 23), (5, 28)])
def test_simulate_blocks_match_one_trajectory_at_a_time(monkeypatch, seed, steps, trajectories):
    monkeypatch.setattr(randwalk, "_BLOCK", 7)
    _assert_same_simulation(UNEQUAL_TM, MIXED, steps, trajectories, seed)
    _assert_same_simulation(UNEQUAL_TM, "b", steps, trajectories, seed)


def test_simulate_crosses_the_default_block():
    tm = transition_matrix(UNEQUAL, WalkPolicy.uniform_lazy())
    _assert_same_simulation(tm, MIXED, 3, randwalk._BLOCK + 5, 11)


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("steps", [0, 1, 2, 3, 4, 7])
def test_simulate_steps_across_draw_chunks(monkeypatch, chunk, steps):
    monkeypatch.setattr(randwalk, "_CHUNK", chunk)
    monkeypatch.setattr(randwalk, "_BLOCK", 5)
    _assert_same_simulation(UNEQUAL_TM, MIXED, steps, 12, 2**64 - 1)
    _assert_same_simulation(SHARED_BUCKET_TM, "b", steps, 12, 3)


@pytest.mark.parametrize("seed", EDGE_SEEDS + [12345])
def test_block_draws_equal_the_reference_generator(seed):
    block = SplitMix64(trajectory_seed(seed, np.arange(3, 8, dtype=np.uint64)))
    rngs = [SplitMix64(trajectory_seed(seed, i)) for i in range(3, 8)]
    for _ in range(4):
        assert block.next_u64().tolist() == [r.next_u64() for r in rngs]
    # a chunk of draws at once: row t holds every generator's output t + 1,
    # here outputs 5 to 9, which follow the four above
    seeds = trajectory_seed(seed, np.arange(3, 8, dtype=np.uint64))
    chunk = trajectory_seed(seeds, np.arange(4, 9, dtype=np.uint64)[:, None])
    assert chunk.tolist() == [[r.next_u64() for r in rngs] for _ in range(5)]


def _one_edge_kernel(masses):
    """From every state of one hyperedge a, b, c, ... step to the i-th with masses[i]."""
    labels = "abcdefgh"[: len(masses)]
    h = Hypergraph.from_members([("e", list(labels))])
    weights = dict(zip(labels, masses))
    return transition_matrix(
        h, WalkPolicy.custom(lambda u, e: Fraction(1), lambda u, e, v: weights[v])
    )


TINY = Fraction(1, 2**70)
# two bounds in one of 16 buckets: a, b and c each take a part of it
SHARED_BUCKET_TM = _one_edge_kernel([Fraction(33, 64), Fraction(1, 64), Fraction(15, 32)])
# over the denominator 3 * 2^70, TINY moves no bound by a whole unit: a's and b's are equal
EQUAL_BOUNDS_TM = _one_edge_kernel([Fraction(1, 3), TINY, Fraction(2, 3) - TINY])
# bounds 1 and 17, thresholds 0 and 16, share bucket 0
TINY_MASS_TM = _one_edge_kernel([TINY, Fraction(1, 2**60), 1 - Fraction(1, 2**60) - TINY])


@pytest.mark.parametrize("tm", [SHARED_BUCKET_TM, EQUAL_BOUNDS_TM, TINY_MASS_TM])
@pytest.mark.parametrize("seed", [0, 7, 2**70 + 5])
def test_buckets_holding_two_bounds_fall_back_to_the_bisect(monkeypatch, tm, seed):
    table = randwalk._threshold_table(tm.matrix.numerators, tm.matrix.denominator)
    assert randwalk._bucket_table(*table)[-1].any()
    looked_up = []
    choose = randwalk._choose

    def counting_choose(draws, *table):
        looked_up.append(len(draws))
        return choose(draws, *table)

    monkeypatch.setattr(randwalk, "_choose", counting_choose)
    _assert_same_simulation(tm, "a", 20, 60, seed)
    # past the one initial draw per block, some steps took the bisect
    assert sum(looked_up[1:]) > 0


def test_the_bucket_table_keeps_one_split_per_bucket():
    """Per bucket: one uint64 split, one mark and two intp picks, 25 bytes."""
    thresholds, targets = randwalk._threshold_table([[1] * 1000] * 4, 1000)
    shift, row_bits, *kept = randwalk._bucket_table(thresholds, targets)
    buckets = 4 << row_bits
    assert (64 - shift, row_bits) == (12, 12)
    assert sum(a.nbytes for a in kept) <= 25 * buckets


@pytest.mark.parametrize("past", [0, 1])
def test_a_draw_on_a_bound_takes_the_next_state(past):
    """State k is drawn for u < bound_k: a draw one below the bound of "a"
    picks "a", a draw equal to it picks "b", at the start and in a step."""
    seed = 99
    rng = SplitMix64(trajectory_seed(seed, 0))
    first, second = rng.next_u64(), rng.next_u64()
    init_a = Fraction(first + 1 - past, 2**64)
    step_a = Fraction(second + 1 - past, 2**64)
    h = Hypergraph.from_members([("e", ["a", "b"])])
    tm = transition_matrix(
        h,
        WalkPolicy.custom(
            lambda u, e: Fraction(1),
            lambda u, e, v: step_a if v == "a" else 1 - step_a,
        ),
    )
    # from "a", the bound of "a" is the one threshold in its bucket: its split
    thresholds, targets = randwalk._threshold_table(tm.matrix.numerators, tm.matrix.denominator)
    assert thresholds[0, 0] == second - past
    shift, _, splits, picks, marked = randwalk._bucket_table(thresholds, targets)
    slot = second >> shift
    assert (splits[slot], marked[slot]) == (second - past, False)
    assert picks[2 * slot : 2 * slot + 2].tolist() == [0, 1]
    picked, other = ("a", "b") if past == 0 else ("b", "a")
    for init in ({"a": init_a, "b": 1 - init_a}, picked):
        sim = simulate(tm, init, 1, 1, seed)
        assert sim.visit_counts == {picked: 2, other: 0}
        assert sim.first_hits == {picked: {1: 1}, other: {}}
        _assert_same_simulation(tm, init, 1, 1, seed)


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


def test_partition_search_matches_fraction_enumeration_on_seven_twins_and_a_hub():
    # all 3^7 combinations of the basis and (3^7 - 1) / 2 pairs, one per unordered
    # nonzero combination: every step of the walk reaches a leaf that is kept
    h = _twins(7, hub=True)
    found = find_equal_edge_partitions(h, max_support=h.n_vertices)
    assert len(found) == 1093
    assert found == oracle.equal_edge_partitions(h, h.n_vertices)


def test_partition_search_matches_fraction_enumeration_on_128_vertices():
    # the last six vertices have pairs of one support whose U sets differ in size, and
    # 128, the pad past the last position, no longer fits in an int8
    h = Hypergraph.from_members(
        [(f"s{i}", [f"f{i}"]) for i in range(122)]
        + [("e1", ["1", "2", "4"]), ("e2", ["1", "2", "4", "6"])],
        vertices=[*(f"f{i}" for i in range(122)), "1", "2", "3", "4", "5", "6"],
    )
    assert h.n_vertices == 128
    for cap in (2, 4, h.n_vertices):
        assert find_equal_edge_partitions(h, max_support=cap) == oracle.equal_edge_partitions(h, cap)


def test_partition_search_on_a_zero_dimensional_basis_is_empty():
    h = Hypergraph.from_members([("e1", ["1"]), ("e2", ["1", "2"]), ("e3", ["2", "3"])])
    assert nullspace(incidence_matrix(h).transpose()).dimension == 0
    for cap in (1, h.n_vertices):
        assert find_equal_edge_partitions(h, max_support=cap) == []
        assert oracle.equal_edge_partitions(h, cap) == []
