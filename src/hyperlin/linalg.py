"""Exact dense linear algebra over arbitrary-precision rationals.

A matrix is stored as integer rows over one positive common denominator,
reduced so that the numerators and the denominator share no factor; its
``entries`` are the :class:`fractions.Fraction` view of those rows.
Ranks, determinants, nullspaces and solutions are exact, never
approximate. RREF (and so rank and nullspace) of a matrix of at least
``_MODULAR_MIN_CELLS`` entries is computed modulo word-size primes in
numpy, recovered by rational reconstruction and certified by one exact
integer product, so the result equals the exact RREF by proof; smaller
RREFs, solve and determinant run fraction-free (Bareiss) on the integer
rows. Matrices carry row and column labels so results can be read back in
terms of the objects they were built from (vertices, hyperedges, states).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import index, mul
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence, Union

from .errors import NotSquareError, SingularError, UnknownLabelError

if TYPE_CHECKING:
    import numpy as np

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


def _integer(value: object, name: str, least: int | None = None, error: type[Exception] = ValueError) -> int:
    """``value`` as an int, else ``error`` naming ``name``.

    The one integer rule: any integer type but bool (``operator.index``),
    and at least ``least`` (0 or 1) when that is given.
    """
    try:
        out = None if isinstance(value, bool) else index(value)
    except TypeError:
        out = None
    if out is not None and (least is None or out >= least):
        return out
    kind = {None: "an", 0: "a nonnegative", 1: "a positive"}[least]
    raise error(f"{name} must be {kind} integer, got {value!r}")


def rat(value: RationalLike) -> Fraction:
    """Coerce an integer, a 'p/q' string, or a Fraction to an exact Fraction.

    Floats are rejected on purpose: admitting them would silently launder
    rounding error into "exact" results. A Fraction of numpy integers comes
    back as one of Python ints, so no fixed-width integer reaches the exact
    layer.
    """
    if isinstance(value, Fraction):
        if type(value.numerator) is int and type(value.denominator) is int:
            return value
        return Fraction(int(value.numerator), int(value.denominator))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
    return Fraction(_integer(value, "a rational that is not a Fraction or 'p/q' string", error=TypeError))


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


def _position(labels: tuple[str, ...], label: str, what: str) -> int:
    """The index of ``label`` in ``labels``; a miss raises through ``_known``, naming ``what``."""
    try:
        return labels.index(label)
    except ValueError:
        _known([label], labels, what)
        raise


def _lowest_terms(rows: Sequence[Sequence[int]], d: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The int ``rows`` over nonzero ``d`` as nested tuples, with the common
    factor of d and every entry divided out, sign included, so d > 0."""
    g = 1 if d == 1 else math.gcd(d, *itertools.chain.from_iterable(rows)) * (1 if d > 0 else -1)
    if g != 1:
        return tuple(tuple(x // g for x in row) for row in rows), d // g
    return tuple(map(tuple, rows)), d


def _magnitude(a: np.ndarray) -> int:
    """max|a| as an int, 0 if empty, read from max and min: abs(-2^63) wraps in int64."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _int_array(rows, weight: int = 0) -> np.ndarray:
    """Integer ``rows`` (nested ints, or an int64 or object array) as int64 when
    they fit and weight * max|rows| < 2^63, else as Python ints in an object
    array: the one int64-or-Python-int rule of the exact kernel.

    A caller's weight w says that each value it computes from the array is
    at most w max|rows| in magnitude. The default, 0, asks only that the
    entries fit and reads no magnitude.
    """
    import numpy as np

    try:
        a = np.asarray(rows, dtype=np.int64)
    except OverflowError:  # an entry beyond int64
        return np.array(rows, dtype=object)
    return a.astype(object) if weight and weight * _magnitude(a) >= 2**63 else a


@dataclass(frozen=True)
class RationalMatrix:
    """A dense labeled matrix of exact rationals: ``numerators / denominator``.

    The integer rows are nested tuples, so instances are immutable and safe
    to share. The denominator is positive and shares no factor with all the
    numerators, so equal matrices compare and hash equal. Labels are unique
    per axis. Build from rationals with ``from_rows``.

    A matrix is validated once, where its labels or values enter the
    library: the positional constructor, ``from_rows``, ``identity``,
    ``diagonal``, ``submatrix`` and ``from_json_dict`` check label
    uniqueness, integer cells, the shape and the denominator. The library's
    own producers (``transpose``, ``@``, ``rref``, ``nullspace``, the
    incidence and spectra builders and the uniform walk kernels) build
    through ``_trusted``, which only reduces to lowest terms.
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    numerators: tuple[tuple[int, ...], ...]
    denominator: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "row_labels", _unique(self.row_labels, "row"))
        object.__setattr__(self, "col_labels", _unique(self.col_labels, "column"))
        rows = tuple(map(tuple, self.numerators))
        kinds = set(map(type, itertools.chain.from_iterable(rows)))
        if bool in kinds:
            raise TypeError("numerators must be integers, got a bool")
        if kinds - {int}:  # numpy ints become ints, non-integers a TypeError
            rows = tuple(tuple(map(index, row)) for row in rows)
        if len(rows) != len(self.row_labels):
            raise ValueError("entry rows do not match row labels")
        if any(len(row) != len(self.col_labels) for row in rows):
            raise ValueError("entry row length does not match column labels")
        d = _integer(self.denominator, "the denominator")
        if d == 0:
            raise ValueError("the denominator must be nonzero, got 0")
        rows, d = _lowest_terms(rows, d)
        object.__setattr__(self, "numerators", rows)
        object.__setattr__(self, "denominator", d)

    @classmethod
    def _trusted(
        cls,
        row_labels: tuple[str, ...],
        col_labels: tuple[str, ...],
        rows: Sequence[Sequence[int]],
        denominator: int = 1,
    ) -> "RationalMatrix":
        """The matrix ``rows / denominator``, built without validation.

        For the library's own producers, whose output already meets the
        contract: distinct ``str`` labels given as tuples, one row of Python
        ``int``s per row label with one entry per column label, and a
        nonzero ``int`` denominator. Only the reduction to lowest terms is
        done, sign included, since a Bareiss last pivot can be negative.
        """
        m = object.__new__(cls)
        rows, d = _lowest_terms(rows, denominator)
        object.__setattr__(m, "row_labels", row_labels)
        object.__setattr__(m, "col_labels", col_labels)
        object.__setattr__(m, "numerators", rows)
        object.__setattr__(m, "denominator", d)
        return m

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
        """The diagonal matrix of ``values``; a missing label counts as zero,
        a key that is not a label raises UnknownLabelError."""
        _known(values, labels)
        rows = [[values.get(a, 0) if a == b else 0 for b in labels] for a in labels]
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
        return _position(self.row_labels, label, "row labels")

    def col_index(self, label: str) -> int:
        return _position(self.col_labels, label, "column labels")

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
        return RationalMatrix._trusted(self.col_labels, self.row_labels, cols, self.denominator)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.col_labels != other.row_labels:
            raise ValueError(
                f"inner labels do not match: columns {list(self.col_labels)} "
                f"against rows {list(other.row_labels)}"
            )
        bt = list(zip(*other.numerators)) or [()] * other.cols
        out = [[sum(map(mul, row, col)) for col in bt] for row in self.numerators]
        d = self.denominator * other.denominator
        return RationalMatrix._trusted(self.row_labels, other.col_labels, out, d)

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
        return self.is_square and tuple(zip(*self.numerators)) == self.numerators

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
        missing = [f for f in ("rows", "cols", "row_labels", "col_labels", "entries") if f not in data]
        if missing:
            raise ValueError(f"missing fields {missing}")
        rows, cols = (_integer(data[field], repr(field), 0) for field in ("rows", "cols"))
        for field in ("row_labels", "col_labels", "entries"):
            if not isinstance(data[field], list):
                raise ValueError(f"{field!r} must be a list, got {data[field]!r}")
            if field != "entries" and not all(isinstance(x, str) for x in data[field]):
                raise ValueError(f"{field!r} must be a list of strings")
        for field, labels, count in (("rows", "row_labels", rows), ("cols", "col_labels", cols)):
            if len(data[labels]) != count:
                raise ValueError(f"{field!r} is {count} but {labels!r} has {len(data[labels])} labels")
        flat = []
        for i, x in enumerate(data["entries"]):
            try:
                flat.append(rat(x))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"'entries' item {i} is not an integer or a 'p/q' string: {x!r}") from exc
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

    ``matrix`` has one row per vector, labelled by its free column of the
    reduced echelon form, and the ambient labels as columns. A vector is
    +-1 on its free column and 0 on the other free columns, signed so its
    first nonzero coordinate (in ambient order) is positive, not always 1.
    """

    matrix: RationalMatrix

    @property
    def ambient_labels(self) -> tuple[str, ...]:
        return self.matrix.col_labels

    @property
    def dimension(self) -> int:
        return self.matrix.rows

    @cached_property
    def vectors(self) -> tuple[dict[str, Fraction], ...]:
        return tuple(dict(zip(self.matrix.col_labels, row)) for row in self.matrix.entries)


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

    Matrices of at least ``_MODULAR_MIN_CELLS`` entries are reduced by the
    certified multimodular engine, smaller ones fraction-free; both give
    the one RREF of the row space.

    Returns
    -------
    RrefResult
        The echelon matrix (same labels), its rank, and pivot column
        indices in increasing order.
    """
    if m.rows * m.cols >= _MODULAR_MIN_CELLS:
        a, d, pivots = _modular_rref(m.numerators, m.cols)
    else:
        a = [list(row) for row in m.numerators]
        pivots, d, _ = _fraction_free_reduce(a, m.cols)
    reduced = RationalMatrix._trusted(m.row_labels, m.col_labels, a, d)
    return RrefResult(matrix=reduced, rank=len(pivots), pivot_cols=tuple(pivots))


# -- multimodular RREF --------------------------------------------------------

#: rref reduces a matrix of at least this many cells (rows * cols) modulo
#: word-size primes, and smaller ones by Bareiss, whose Python-int row
#: updates beat numpy's per-call overhead while the matrix is small.
#: Measured in CPython 3.11 with numpy 2.4 on a 2-core VM: on incidence
#: matrices of random hypergraphs (m = 1.5n edges of 4), their transposes
#: and A_GH, and on random 0/1 and small-int square matrices, Bareiss won
#: up to about 300 cells and the modular engine from about 400, by 1.3x at
#: 600 cells (I, 20 x 30) and 4-6x at 2500 (A_GH, 50 x 50). Matrices whose
#: Bareiss pivots stay +-1, such as A_GH of twins with a hub, favour
#: Bareiss at every size tried (0.1 against 0.35 ms at 25 x 25, 0.33
#: against 0.67 ms at 49 x 49), as do dense random 0/1 matrices of 2:3
#: shape, whose RREF entries need three primes, up to about 1500 cells.
#: 600 keeps the structured fixture matrices (up to 24 x 24) on Bareiss.
_MODULAR_MIN_CELLS = 600

#: Primes found so far by ``_primes``, largest first.
_WORD_PRIMES: list[int] = []


def _is_prime(n: int) -> bool:
    """Trial division by 2 and by the odd numbers up to sqrt(n), in one numpy remainder."""
    import numpy as np

    if n < 4:
        return n > 1
    return bool(n % 2 and np.all(n % np.arange(3, math.isqrt(n) + 1, 2)))


def _primes() -> Iterator[int]:
    """The primes below 2^31, from 2^31 - 1 downwards.

    Each is found once, on first use, and kept in ``_WORD_PRIMES``.
    """
    for k in itertools.count():
        if k == len(_WORD_PRIMES):
            p = _WORD_PRIMES[-1] - 2 if _WORD_PRIMES else 2**31 - 1
            while not _is_prime(p):
                p -= 2
            _WORD_PRIMES.append(p)
        yield _WORD_PRIMES[k]


def _rref_mod(a: np.ndarray, p: int) -> list[int]:
    """Gauss-Jordan on the int64 residue array ``a`` modulo the prime ``p``, in place.

    Each pivot row is scaled to a leading 1 and cleared from every other
    row nonzero in its column by one vectorized update; entries stay in
    [0, p), so every product is below p^2 < 2^62. Returns the pivot columns.
    """
    import numpy as np

    nrows, ncols = a.shape
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        nonzero = np.flatnonzero(a[:, c])
        k = nonzero.searchsorted(r)
        if k == nonzero.size:
            continue
        i = nonzero[k]
        if i != r:
            a[[r, i]] = a[[i, r]]
        row = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        a[r, c:] = row
        if nonzero.size > 1:
            hit = nonzero[nonzero != i]  # rows r and i swapped, so no other row moved
            block = a[hit, c:]
            block -= np.outer(block[:, 0], row)
            block %= p
            a[hit, c:] = block
        pivots.append(c)
    return pivots


def _denominator(u: int, modulus: int, bound: int) -> int | None:
    """The denominator b of the fraction a/b = u (mod ``modulus``) with
    |a| <= bound and 0 < b <= bound, or None when there is none.

    Wang's rational reconstruction: the extended Euclidean algorithm on
    (modulus, u), stopped at the first remainder within the bound.
    """
    r0, r1, t0, t1 = modulus, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return abs(t1)


def _reconstruct(residues: np.ndarray, modulus: int) -> tuple[np.ndarray, int] | None:
    """Numerators N and one denominator d with N = d * residues (mod ``modulus``),
    every |N| and d at most sqrt(modulus / 2), or None when none is found.

    d starts at 1. While some entry of d * residues, lifted to the symmetric
    range, is too large, the first such entry is reconstructed as a
    fraction and d is multiplied by its denominator.
    """
    import numpy as np

    bound = math.isqrt(modulus // 2)
    d = 1
    while True:
        n = d * residues % modulus
        n[n > modulus // 2] -= modulus
        big = np.flatnonzero(abs(n) > bound)
        if not big.size:
            return n, d
        b = _denominator(int(n.flat[big[0]]) % modulus, modulus, bound)
        if b is None or d * b > bound:
            return None
        d *= b


def _certified(a: np.ndarray, n: np.ndarray, d: int, pivots: Sequence[int]) -> bool:
    """True when d A = A[:, P] N holds exactly, P being ``pivots``.

    The pivot block N[:, P] must be d Id: r nonzero entries, each d on the
    diagonal. Then A[:, P] N[:, P] = d A[:, P] holds by itself, so only the
    free columns F are multiplied, A[:, P] N[:, F] == d A[:, F]; with no free
    column the block is the whole check. ``_int_array`` decides whether the
    product runs in int64, at weight max(r max|N[:, F]|, d).

    Why this proves N / d = rref(A) for a candidate from ``_modular_rref``:
    N / d has the reduced echelon shape of the RREF of A mod p, with pivot
    columns P, because its pivot block is checked and reconstruction keeps
    each residue 0, so each entry left of a pivot, as 0. The equation writes
    every row of A as a combination of the r rows of N, so the row space of
    A lies in that of N, which has dimension at most r. A nonzero r x r
    minor mod p is nonzero over the integers, so rank_Q(A) >= rank_p(A) = r.
    Hence the two row spaces are equal, and N / d, being in reduced echelon
    form, is the unique RREF of that row space.
    """
    import numpy as np

    r = len(pivots)
    block = n[:, pivots]
    if np.count_nonzero(block) != r or (block.diagonal() != d).any():
        return False
    free = sorted(set(range(a.shape[1])).difference(pivots))
    tail = _int_array(n[:, free])
    a = _int_array(a, max(r * _magnitude(tail), d))
    return bool((a[:, pivots] @ tail == d * a[:, free]).all())


def _modular_rref(rows: Sequence[Sequence[int]], ncols: int) -> tuple[list[list[int]], int, list[int]]:
    """RREF of integer ``rows`` as numerators, one denominator and the pivot columns.

    A is reduced modulo primes from ``_primes``. A prime whose pivot
    columns are fewer, or as many but later, than the best seen so far is
    unlucky (it divides a pivot minor) and is dropped; a better one
    restarts the residues. Residues of primes with the best pivots are
    combined by CRT until rational reconstruction yields a candidate that
    ``_certified`` proves exact. An uncertified candidate is never
    returned: the next prime is taken instead.
    """
    import numpy as np

    nrows = len(rows)
    if not nrows or not ncols:
        return [list(row) for row in rows], 1, []
    a = _int_array(rows)  # numerators beyond int64 take their residues by Python's %
    best = None
    for p in _primes():
        res = (a % p).astype(np.int64)
        pivots = _rref_mod(res, p)
        r = len(pivots)
        key = (-r, pivots)
        if best is None or key < best:
            best, acc, modulus = key, res[:r], p
        elif key > best:
            continue
        else:
            acc = acc.astype(object)
            acc = acc + modulus * ((res[:r] - acc) * pow(modulus, -1, p) % p)
            modulus *= p
        found = _reconstruct(acc, modulus)
        if found is not None and _certified(a, *found, pivots):
            n, d = found
            return n.tolist() + [[0] * ncols for _ in range(nrows - r)], d, pivots


def rank(m: RationalMatrix) -> int:
    """Exact rank."""
    return rref(m).rank


def nullspace(m: RationalMatrix) -> NullspaceBasis:
    """Canonical basis of the right nullspace of ``m``.

    One basis vector per free column f of RREF(m) = N / d, as the integer
    row with d on f and -N[r][f] on the r-th pivot column, over d, negated
    when its first nonzero entry is negative (see ``NullspaceBasis``).
    """
    res = rref(m)
    a, d = res.matrix.numerators, res.matrix.denominator
    pivot_set = set(res.pivot_cols)
    rows: dict[str, list[int]] = {}
    for f in (c for c in range(m.cols) if c not in pivot_set):
        coeffs = [0] * m.cols
        coeffs[f] = d
        for r, p in enumerate(res.pivot_cols):
            coeffs[p] = -a[r][f]
        if next(x for x in coeffs if x) < 0:
            coeffs = [-x for x in coeffs]
        rows[m.col_labels[f]] = coeffs
    return NullspaceBasis(RationalMatrix._trusted(tuple(rows), m.col_labels, list(rows.values()), d))


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
