"""Exact rational matrices: construction, elimination, kernels, determinants."""

import random
from fractions import Fraction

import numpy as np
import pytest

from hyperlin.errors import NotSquareError, SingularError, UnknownLabelError
from hyperlin.linalg import (
    RationalMatrix,
    determinant,
    nullspace,
    rat,
    rref,
    solve,
    vector_support,
)


def test_rat_accepts_exact_inputs():
    assert rat(3) == Fraction(3)
    assert rat("2/5") == Fraction(2, 5)
    assert rat(Fraction(-7, 3)) == Fraction(-7, 3)


def test_rat_gives_a_fraction_of_numpy_integers_python_int_parts():
    x = rat(Fraction(np.int64(6), np.int64(4)))
    assert x == Fraction(3, 2) and type(x.numerator) is int and type(x.denominator) is int
    # so a trusted builder fed such weights still holds Python ints only
    from hyperlin import fixtures
    from hyperlin.spectra import WeightScheme, build_Q

    h = fixtures.hub_cycle()
    w = WeightScheme(
        "numpy",
        {v: Fraction(np.int64(2), np.int64(3)) for v in h.vertices},
        {e: Fraction(np.int64(1)) for e in h.edge_labels},
    )
    q = build_Q(h, w)
    assert all(type(x) is int for row in q.numerators for x in row) and type(q.denominator) is int


def test_rat_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(True)


def _m(rows, row_labels=None, col_labels=None):
    r = len(rows)
    c = len(rows[0]) if rows else 0
    rl = row_labels or [f"r{i}" for i in range(r)]
    cl = col_labels or [f"c{j}" for j in range(c)]
    return RationalMatrix.from_rows(rl, cl, rows)


def test_matrix_shape_and_entries():
    m = _m([[1, 2], [3, 4], [5, 6]])
    assert m.row_labels == ("r0", "r1", "r2")
    assert m.col_labels == ("c0", "c1")
    assert m.entry("r1", "c0") == 3
    assert m.row("r2") == {"c0": Fraction(5), "c1": Fraction(6)}


def test_transpose_involution_and_matmul_identity():
    m = _m([[1, 2], [3, 4]])
    assert m.transpose().transpose() == m
    ident = RationalMatrix.identity(["c0", "c1"])
    assert (m @ ident).entries == m.entries


def test_matmul_known_product():
    a = _m([[1, 2], [3, 4]])
    b = _m([[0, 1], [1, 0]], row_labels=["c0", "c1"], col_labels=["x", "y"])
    prod = a @ b
    assert prod.entry("r0", "x") == 2
    assert prod.entry("r0", "y") == 1
    assert prod.entry("r1", "x") == 4
    assert prod.entry("r1", "y") == 3


def test_matmul_over_an_empty_inner_dimension_is_zero():
    a = RationalMatrix.from_rows(["r0", "r1"], [], [[], []])
    b = RationalMatrix.from_rows([], ["x", "y", "z"], [])
    prod = a @ b
    assert (prod.row_labels, prod.col_labels) == (("r0", "r1"), ("x", "y", "z"))
    assert prod.entries == ((Fraction(0),) * 3,) * 2


@pytest.mark.parametrize("inner", [["b", "a"], ["a"], ["a", "b", "c"]], ids=["order", "fewer", "more"])
def test_matmul_rejects_inner_labels_that_differ(inner):
    """A product pairs the left factor's columns with the right factor's rows
    by label: the same labels in another order, or other labels, raise."""
    a = RationalMatrix(["r"], ["a", "b"], [[1, 0]])
    b = RationalMatrix(inner, ["c"], [[1]] + [[0]] * (len(inner) - 1))
    with pytest.raises(ValueError, match=r"^inner labels do not match: columns \['a', 'b'\] against rows "):
        a @ b


def test_apply_treats_missing_keys_as_zero():
    m = _m([[1, 1], [0, 2]])
    out = m.apply({"c1": Fraction(3)})
    assert out == {"r0": Fraction(3), "r1": Fraction(6)}


def test_apply_and_solve_reject_keys_that_are_not_labels():
    m = RationalMatrix.from_rows(["a", "b"], ["a", "b"], [[1, 0], [0, 1]])
    with pytest.raises(UnknownLabelError, match="'bb'"):
        m.apply({"a": 1, "bb": 5})
    with pytest.raises(UnknownLabelError, match="'bb'"):
        solve(m, {"a": 1, "bb": 5})


def test_diagonal_counts_a_missing_label_as_zero_and_rejects_an_unknown_one():
    assert RationalMatrix.diagonal(["a", "b"], {"b": 2}) == RationalMatrix.from_rows(
        ["a", "b"], ["a", "b"], [[0, 0], [0, 2]]
    )
    with pytest.raises(UnknownLabelError, match="'zzz'"):
        RationalMatrix.diagonal(["a"], {"a": 1, "zzz": 5})


@pytest.mark.parametrize("field", ["rows", "cols"])
@pytest.mark.parametrize("value", [1.9, True, -1, "1"])
def test_json_shape_must_be_a_nonnegative_int(field, value):
    data = _m([[1]]).to_json_dict()
    data[field] = value
    with pytest.raises(ValueError, match=repr(field)):
        RationalMatrix.from_json_dict(data)


@pytest.mark.parametrize("field", ["row_labels", "col_labels", "entries"])
@pytest.mark.parametrize("value", ["abc", "1", None, {"a": 1}, ("a",)])
def test_json_labels_and_entries_must_be_lists(field, value):
    data = _m([[1]]).to_json_dict()
    data[field] = value
    with pytest.raises(ValueError, match=repr(field)):
        RationalMatrix.from_json_dict(data)


@pytest.mark.parametrize("bad", [True, 1.5, None, ["1"], "abc", "1/0"])
def test_json_entries_must_be_rationals_named_by_position(bad):
    data = _m([[1, 2]]).to_json_dict()
    data["entries"][1] = bad
    with pytest.raises(ValueError, match=r"^'entries' item 1 "):
        RationalMatrix.from_json_dict(data)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("cols", 5, r"^'cols' is 5 but 'col_labels' has 1 labels$"),
        ("rows", 2, r"^'rows' is 2 but 'row_labels' has 0 labels$"),
    ],
)
def test_json_declared_counts_must_match_the_labels_of_an_empty_matrix(field, value, message):
    data = {"rows": 0, "cols": 1, "row_labels": [], "col_labels": ["a"], "entries": []}
    data[field] = value
    with pytest.raises(ValueError, match=message):
        RationalMatrix.from_json_dict(data)


def test_json_names_every_missing_field():
    data = _m([[1]]).to_json_dict()
    for field in ("rows", "col_labels", "entries"):
        del data[field]
    with pytest.raises(ValueError, match=r"^missing fields \['rows', 'col_labels', 'entries'\]$"):
        RationalMatrix.from_json_dict(data)


@pytest.mark.parametrize("field", ["row_labels", "col_labels"])
@pytest.mark.parametrize("label", [1, None, 1.5, True, ["a"]])
def test_json_labels_must_be_strings(field, label):
    data = _m([[1]]).to_json_dict()
    data[field] = [label]
    with pytest.raises(ValueError, match=repr(field)):
        RationalMatrix.from_json_dict(data)


def test_positional_constructor_stores_canonical_python_ints():
    m = RationalMatrix(["a"], ["b", "c"], [[np.int64(-4), 6]], -10)
    assert m.numerators == ((2, -3),) and m.denominator == 5
    assert all(type(x) is int for x in m.numerators[0])
    assert m == RationalMatrix.from_rows(["a"], ["b", "c"], [["2/5", "-3/5"]])
    m = RationalMatrix(["a"], ["b", "c"], [[np.int32(2), np.uint8(4)]], 6)
    assert m.numerators == ((1, 2),) and m.denominator == 3
    assert all(type(x) is int for x in m.numerators[0])
    for bad in (True, False):
        with pytest.raises(TypeError, match="bool"):
            RationalMatrix(["a"], ["b", "c"], [[2, bad]])
    for bad in (Fraction(1, 2), 2.0, "1", None, np.float64(1.0)):
        with pytest.raises(TypeError):
            RationalMatrix(["a"], ["b", "c"], [[2, bad]])
    with pytest.raises(ValueError, match="row labels"):
        RationalMatrix(["a", "z"], ["b"], [[1]])
    with pytest.raises(ValueError, match="column labels"):
        RationalMatrix(["a"], ["b"], [[1, 2]])
    for bad in (0, 2.0, True):
        with pytest.raises(ValueError, match="denominator"):
            RationalMatrix(["a"], ["b"], [[1]], bad)


def test_json_roundtrip():
    m = _m([["1/3", 0], [5, "-2/7"]])
    again = RationalMatrix.from_json_dict(m.to_json_dict())
    assert again == m


def test_rref_known_rank_and_pivots():
    m = _m([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    res = rref(m)
    assert res.rank == 2
    assert res.pivot_cols == (0, 1)


def test_rank_nullity_sum_on_seeded_matrices():
    rng = random.Random(7)
    for _ in range(25):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
        m = _m(rows)
        assert rref(m).rank + nullspace(m).dimension == c


def test_nullspace_vectors_are_annihilated_exactly():
    rng = random.Random(11)
    for _ in range(25):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
        m = _m(rows)
        for vec in nullspace(m).vectors:
            image = m.apply(vec)
            assert all(v == 0 for v in image.values())


def test_nullspace_sign_convention_leading_plus_one():
    m = _m([[1, 1]])
    basis = nullspace(m)
    assert basis.dimension == 1
    vec = basis.vectors[0]
    assert vec["c0"] == 1 and vec["c1"] == -1


def test_nullspace_basis_is_one_integer_matrix_over_one_denominator():
    # ker of [[1, 1, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1]] is spanned by (1/2, 1/2, 1/2, -1)
    basis = nullspace(_m([[1, 1, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1]]))
    assert basis.matrix == RationalMatrix(["c3"], ["c0", "c1", "c2", "c3"], [[1, 1, 1, -2]], 2)
    assert basis.ambient_labels == basis.matrix.col_labels and basis.dimension == 1
    assert list(basis.vectors[0].values()) == [Fraction(1, 2)] * 3 + [-1]


def test_nullspace_of_zero_matrix_is_canonical_basis():
    m = _m([[0, 0], [0, 0]])
    basis = nullspace(m)
    assert basis.dimension == 2
    assert basis.vectors[0]["c0"] == 1 and basis.vectors[0]["c1"] == 0
    assert basis.vectors[1]["c0"] == 0 and basis.vectors[1]["c1"] == 1


def test_determinant_known_values():
    assert determinant(RationalMatrix.identity(["a", "b", "c"])) == 1
    m = _m([[1, 2], [3, 4]])
    assert determinant(m) == -2
    degenerate = _m([[1, 2], [2, 4]])
    assert determinant(degenerate) == 0


def _cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * _cofactor_det(minor)
    return total


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]
        m = _m(rows)
        assert determinant(m) == _cofactor_det(rows)


def test_determinant_requires_square():
    with pytest.raises(NotSquareError):
        determinant(_m([[1, 2, 3], [4, 5, 6]]))


def test_solve_round_trips():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        m = _m(rows)
        if determinant(m) == 0:
            continue
        b = {f"r{i}": Fraction(rng.randint(-5, 5)) for i in range(n)}
        x = solve(m, b)
        assert m.apply(x) == b


def test_solve_requires_square():
    with pytest.raises(NotSquareError, match="^solve needs a square matrix, got 2x3$"):
        solve(_m([[1, 2, 3], [4, 5, 6]]), [1, 2])


@pytest.mark.parametrize("b", [[1], [1, 2, 3]])
def test_solve_rejects_a_right_hand_side_of_the_wrong_length(b):
    with pytest.raises(ValueError, match="^right hand side length does not match$"):
        solve(_m([[1, 0], [0, 1]]), b)


def test_solve_raises_on_singular():
    m = _m([[1, 1], [1, 1]])
    with pytest.raises(SingularError):
        solve(m, {"r0": Fraction(1), "r1": Fraction(0)})


def test_vector_support():
    assert vector_support({"a": Fraction(0), "b": Fraction(2)}) == frozenset({"b"})


def test_is_symmetric_is_the_elementwise_definition():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:
            rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        labels = [f"v{i}" for i in range(n)]
        m = RationalMatrix(labels, labels, rows, rng.randint(1, 3))
        assert m.is_symmetric() is all(m[i, j] == m[j, i] for i in range(n) for j in range(n))
    assert RationalMatrix((), (), []).is_symmetric() is True
    # the empty rows of a 0 x 3 matrix equal their transpose; only squareness rules it out
    assert RationalMatrix((), ("a", "b", "c"), []).is_symmetric() is False
    assert RationalMatrix(("a", "b", "c"), (), [[], [], []]).is_symmetric() is False
