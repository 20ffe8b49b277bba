"""Exact dense linear algebra over arbitrary-precision rationals.

A matrix is stored as integer rows over one positive common denominator,
reduced so that the numerators and the denominator share no factor; its
``entries`` are the :class:`fractions.Fraction` view of those rows.
Elimination (RREF, nullspace, solve, determinant) runs fraction-free on
the integer rows, so ranks, determinants, nullspaces and solutions are
exact, never approximate. Matrices carry row and column labels so results
can be read back in terms of the objects they were built from (vertices,
hyperedges, states).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import index, mul
from typing import Iterable, Mapping, Sequence, Union

from .errors import NotSquareError, SingularError, UnknownLabelError

__all__ = [
    "rat",
    "RationalMatrix",
    "RrefResult",
    "NullspaceBasis",
    "rref",
    "rank",
    "nullspace",
    "determinant",
    "solve",
    "vector_support",
]

RationalLike = Union[int, str, Fraction]


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, a 'p/q' string, or a Fraction to an exact Fraction.

    Floats are rejected on purpose: admitting them would silently launder
    rounding error into "exact" results.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not rational scalars")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
    raise TypeError(f"not an exact rational: {value!r}")


def _unique(labels: Sequence[str], axis: str) -> tuple[str, ...]:
    out = tuple(str(l) for l in labels)
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate {axis} labels")
    return out


def _integer_row(row: Sequence[Fraction]) -> tuple[list[int], int]:
    """The row times the lcm of its denominators, as ints, and that lcm."""
    scale = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row], scale


def _known(keys: Iterable[str], labels: Iterable[str], what: str = "labels") -> None:
    """Raise UnknownLabelError naming the keys that are not ``labels``.

    The one home of the unknown-label rule. ``labels`` may be a dict, whose
    key lookups keep the check O(len(keys)).
    """
    unknown = set(keys).difference(labels)
    if unknown:
        raise UnknownLabelError(f"unknown {what}: {sorted(unknown, key=str)}")


@dataclass(frozen=True)
class RationalMatrix:
    """A dense labeled matrix of exact rationals: ``numerators / denominator``.

    The integer rows are nested tuples, so instances are immutable and safe
    to share. The denominator is positive and shares no factor with all the
    numerators, so equal matrices compare and hash equal. Labels are unique
    per axis. Build from rationals with ``from_rows``.
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    numerators: tuple[tuple[int, ...], ...]
    denominator: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "row_labels", _unique(self.row_labels, "row"))
        object.__setattr__(self, "col_labels", _unique(self.col_labels, "column"))
        rows = tuple(tuple(map(index, row)) for row in self.numerators)  # ints, or TypeError
        if len(rows) != len(self.row_labels):
            raise ValueError("entry rows do not match row labels")
        if any(len(row) != len(self.col_labels) for row in rows):
            raise ValueError("entry row length does not match column labels")
        d = self.denominator
        if isinstance(d, bool) or not isinstance(d, int) or d == 0:
            raise ValueError(f"the denominator must be a nonzero int, got {d!r}")
        g = math.gcd(d, *(x for row in rows for x in row)) * (1 if d > 0 else -1)
        if g != 1:
            rows = tuple(tuple(x // g for x in row) for row in rows)
        object.__setattr__(self, "numerators", rows)
        object.__setattr__(self, "denominator", d // g)

    @cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as Fractions, row major."""
        d = self.denominator
        return tuple(tuple(Fraction(x, d) for x in row) for row in self.numerators)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        row_labels: Sequence[str],
        col_labels: Sequence[str],
        rows: Iterable[Iterable[RationalLike]],
    ) -> "RationalMatrix":
        """The matrix of rational ``rows``, scaled by the lcm of all their denominators."""
        rows = [[rat(x) for x in row] for row in rows]
        scale = math.lcm(*(x.denominator for row in rows for x in row))
        nums = [[x.numerator * (scale // x.denominator) for x in row] for row in rows]
        return cls(row_labels, col_labels, nums, scale)

    @classmethod
    def identity(cls, labels: Sequence[str]) -> "RationalMatrix":
        return cls(labels, labels, [[int(a == b) for b in labels] for a in labels])

    @classmethod
    def diagonal(cls, labels: Sequence[str], values: Mapping[str, RationalLike]) -> "RationalMatrix":
        rows = [[values[a] if a == b else 0 for b in labels] for a in labels]
        return cls.from_rows(labels, labels, rows)

    # -- shape and access -----------------------------------------------

    @property
    def rows(self) -> int:
        return len(self.row_labels)

    @property
    def cols(self) -> int:
        return len(self.col_labels)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def row_index(self, label: str) -> int:
        try:
            return self.row_labels.index(label)
        except ValueError:
            raise KeyError(f"no row labeled {label!r}") from None

    def col_index(self, label: str) -> int:
        try:
            return self.col_labels.index(label)
        except ValueError:
            raise KeyError(f"no column labeled {label!r}") from None

    def entry(self, row_label: str, col_label: str) -> Fraction:
        return self[self.row_index(row_label), self.col_index(col_label)]

    def __getitem__(self, idx: tuple[int, int]) -> Fraction:
        i, j = idx
        return Fraction(self.numerators[i][j], self.denominator)

    def row(self, label: str) -> dict[str, Fraction]:
        d, i = self.denominator, self.row_index(label)
        return {c: Fraction(x, d) for c, x in zip(self.col_labels, self.numerators[i])}

    # -- algebra ---------------------------------------------------------

    def transpose(self) -> "RationalMatrix":
        cols = tuple(zip(*self.numerators)) or ((),) * self.cols
        return RationalMatrix(self.col_labels, self.row_labels, cols, self.denominator)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        bt = list(zip(*other.numerators)) or [()] * other.cols
        out = [[sum(map(mul, row, col)) for col in bt] for row in self.numerators]
        d = self.denominator * other.denominator
        return RationalMatrix(self.row_labels, other.col_labels, out, d)

    def apply(self, x: Mapping[str, RationalLike]) -> dict[str, Fraction]:
        """Matrix-vector product M x with x indexed by column labels.

        Missing keys count as zero, so sparse vectors are fine; a key that is
        not a column label raises UnknownLabelError.
        """
        _known(x, self.col_labels)
        vec, scale = _integer_row([rat(x.get(lab, 0)) for lab in self.col_labels])
        d = self.denominator * scale
        rows = zip(self.row_labels, self.numerators)
        return {lab: Fraction(sum(map(mul, row, vec)), d) for lab, row in rows}

    def is_symmetric(self) -> bool:
        if not self.is_square:
            return False
        m = self.numerators
        return all(m[i][j] == m[j][i] for i in range(self.rows) for j in range(i + 1, self.rows))

    def submatrix(self, row_labels: Sequence[str], col_labels: Sequence[str]) -> "RationalMatrix":
        ri = [self.row_index(l) for l in row_labels]
        ci = [self.col_index(l) for l in col_labels]
        rows = [[self.numerators[i][j] for j in ci] for i in ri]
        return RationalMatrix(row_labels, col_labels, rows, self.denominator)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        """Serialize as a flat row-major list of 'p/q' strings."""
        return {
            "rows": self.rows,
            "cols": self.cols,
            "row_labels": list(self.row_labels),
            "col_labels": list(self.col_labels),
            "entries": [str(x) for row in self.entries for x in row],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "RationalMatrix":
        for field in ("rows", "cols"):
            value = data[field]
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(f"{field!r} must be a nonnegative integer, got {value!r}")
        rows, cols = data["rows"], data["cols"]
        flat = [rat(x) for x in data["entries"]]
        if len(flat) != rows * cols:
            raise ValueError("entry count does not match the declared shape")
        return cls.from_rows(
            data["row_labels"],
            data["col_labels"],
            [flat[i * cols : (i + 1) * cols] for i in range(rows)],
        )


@dataclass(frozen=True)
class RrefResult:
    """Reduced row echelon form together with rank and pivot columns."""

    matrix: RationalMatrix
    rank: int
    pivot_cols: tuple[int, ...]


@dataclass(frozen=True)
class NullspaceBasis:
    """A canonical basis for the right nullspace of a labeled matrix.

    Each vector is a full mapping from ambient label to coefficient. The
    basis follows the reduced-echelon free-variable pattern: vector k is
    supported on its own free column plus pivot columns, and is scaled so
    its first nonzero coordinate (in ambient order) equals +1.
    """

    ambient_labels: tuple[str, ...]
    vectors: tuple[dict, ...]

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def _fraction_free_reduce(a: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Gauss-Jordan on integer rows in place, dividing exactly by the previous pivot.

    After each pivot ``d`` every row is ``d`` times the Gauss-Jordan iterate
    and ``d`` is the determinant of the pivot block (Bareiss 1968), so a row
    whose pivot-column entry is zero still needs scaling by ``d / prev``.
    Pivots are sought in the first ``ncols`` columns. Returns the pivot
    columns, the last pivot ``d`` (the RREF is ``a / d``) and the sign of
    the row permutation.
    """
    nrows = len(a)
    pivots: list[int] = []
    prev = sign = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if a[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
            sign = -sign
        top = a[r]
        piv = top[c]
        for i in range(nrows):
            f = a[i][c]
            if i != r and (f or piv != prev):
                a[i] = [(x * piv - f * y) // prev for x, y in zip(a[i], top)]
        prev = piv
        pivots.append(c)
    return pivots, prev, sign


def _integer_solve(a: list[list[int]], n: int) -> tuple[list[list[int]], int]:
    """Solve an n x n integer system given as augmented rows ``a`` (reduced in place).

    Every column after the first n is a right-hand side. Returns the
    solution's numerators, one row per unknown with one entry per
    right-hand side, and their common denominator. Raises SingularError
    below full rank.
    """
    pivots, d, _ = _fraction_free_reduce(a, n)
    if len(pivots) < n:
        raise SingularError("matrix is singular")
    return [row[n:] for row in a], d


def rref(m: RationalMatrix) -> RrefResult:
    """Reduced row echelon form by exact Gauss-Jordan elimination.

    Returns
    -------
    RrefResult
        The echelon matrix (same labels), its rank, and pivot column
        indices in increasing order.
    """
    a = [list(row) for row in m.numerators]
    pivots, d, _ = _fraction_free_reduce(a, m.cols)
    reduced = RationalMatrix(m.row_labels, m.col_labels, a, d)
    return RrefResult(matrix=reduced, rank=len(pivots), pivot_cols=tuple(pivots))


def rank(m: RationalMatrix) -> int:
    """Exact rank."""
    return rref(m).rank


def nullspace(m: RationalMatrix) -> NullspaceBasis:
    """Canonical basis of the right nullspace of ``m``.

    One basis vector per free column, constructed from the reduced echelon
    form and sign-normalized so the leading nonzero coordinate is +1.
    """
    res = rref(m)
    a, d = res.matrix.numerators, res.matrix.denominator
    pivot_set = set(res.pivot_cols)
    vectors: list[dict] = []
    for f in (c for c in range(m.cols) if c not in pivot_set):
        coeffs = [0] * m.cols
        coeffs[f] = d
        for r, p in enumerate(res.pivot_cols):
            coeffs[p] = -a[r][f]
        if next(x for x in coeffs if x) < 0:
            coeffs = [-x for x in coeffs]
        vectors.append({lab: Fraction(x, d) for lab, x in zip(m.col_labels, coeffs)})
    return NullspaceBasis(ambient_labels=m.col_labels, vectors=tuple(vectors))


def determinant(m: RationalMatrix) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination.

    The last pivot is the determinant of the integer numerators up to the
    permutation sign; dividing by denominator^n gives the result.

    Raises
    ------
    NotSquareError
        If the matrix is not square.
    """
    if not m.is_square:
        raise NotSquareError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    pivots, d, sign = _fraction_free_reduce([list(row) for row in m.numerators], m.cols)
    if len(pivots) < m.rows:
        return Fraction(0)
    return Fraction(sign * d, m.denominator**m.rows)


def solve(m: RationalMatrix, b: Mapping[str, RationalLike] | Sequence[RationalLike]) -> dict[str, Fraction]:
    """Solve M x = b exactly for square nonsingular M.

    Parameters
    ----------
    m : RationalMatrix
        Square coefficient matrix.
    b : mapping or sequence
        Right hand side, either keyed by row label (missing keys are zero;
        a key that is not a row label raises UnknownLabelError) or a
        sequence aligned with the row order.

    Returns
    -------
    dict
        Solution keyed by column label.

    Raises
    ------
    NotSquareError, SingularError, UnknownLabelError
    """
    if not m.is_square:
        raise NotSquareError(f"solve needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    if isinstance(b, Mapping):
        _known(b, m.row_labels)
        rhs = [rat(b.get(lab, 0)) for lab in m.row_labels]
    else:
        rhs = [rat(x) for x in b]
        if len(rhs) != n:
            raise ValueError("right hand side length does not match")
    # with M = N / d and b = c / s, M x = b is N y = c for y = x s / d
    c, s = _integer_row(rhs)
    nums, last = _integer_solve([[*row, x] for row, x in zip(m.numerators, c)], n)
    return {lab: Fraction(x * m.denominator, last * s) for lab, (x,) in zip(m.col_labels, nums)}


def vector_support(x: Mapping[str, Fraction]) -> frozenset:
    """Labels carrying a nonzero coefficient."""
    return frozenset(lab for lab, v in x.items() if v != 0)
