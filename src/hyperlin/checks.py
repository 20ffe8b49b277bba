"""The theorem checks behind ``hyperlin check``.

``run_checks`` verifies the paper's claims on one hypergraph: rank
equality, nullity(A_GH) = nullity(I) + nullity(I^T), the square-determinant
criterion, unit soundness, Q-annihilation of the vertex certificates, the
equal partition <=> ker I^T correspondence, the walk balance of equal
partitions, and the hitting-time symmetry of units. Every shared fact (the
incidence matrix, the ranks of I and A_GH, ker I^T, the unit decomposition,
the equal partitions and their signed matrix, the non-lazy kernel and its
one passage inverse) is computed once per run: ker I^T is eliminated once
and handed to ``find_equal_edge_partitions``, so a run makes three
eliminations, of I, I^T and A_GH. The search trusts that basis, but every
pair it returns is counted again here, so the check does not. The kernel is
built only when a walk check asks for it. The pairs are checked together,
one integer product per check.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from .centrality import _passage_inverse
from .errors import IsolatedVertexError, SingletonEdgeError, SingletonEdgeNonLazyError
from .hypergraph import Hypergraph, incidence_matrix
from .linalg import _int_array, determinant, nullspace, rank
from .randwalk import WalkPolicy, transition_matrix
from .spectra import WEIGHT_PRESETS, build_A_GH, build_Q, weight_scheme
from .structures import _oriented_pairs, _sign_sums, find_equal_edge_partitions, units

__all__ = ["ENUMERATION_BUDGET", "run_checks"]

#: Most sign assignments a check may enumerate: the partition search tries
#: 3^nullity(I^T) basis combinations and the exhaustive sweep 3^|V| vertex
#: assignments. One enumerator, ``structures._sign_sums``, serves both: it
#: sums the assignments in blocks, each block one integer product and one
#: vectorized range test. A search over budget is reported as ``skipped``.
ENUMERATION_BUDGET = 3 ** 10


def _check(name: str, status: str, witness: str) -> dict:
    return {"name": name, "status": status, "witness": witness}


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def _rank_equality(r_rows: int, r_cols: int) -> dict:
    return _check(
        "rank_equality",
        _verdict(r_rows == r_cols),
        f"rank(I)={r_rows}, rank(I^T)={r_cols}",
    )


def _nullity_additivity(h, edge_nullity: int, vertex_nullity: int, n_big: int) -> dict:
    bound = abs(h.n_vertices - h.n_hyperedges)
    ok = n_big == edge_nullity + vertex_nullity and n_big >= bound
    return _check(
        "nullity_additivity",
        _verdict(ok),
        f"nullity(A_GH)={n_big}, nullity(I)={edge_nullity}, "
        f"nullity(I^T)={vertex_nullity}, lower bound {bound}",
    )


def _square_determinant(h, inc, n_big: int) -> dict:
    if h.n_vertices != h.n_hyperedges:
        return _check(
            "square_determinant",
            "not-applicable",
            f"|V|={h.n_vertices} != |E|={h.n_hyperedges}",
        )
    det = determinant(inc)
    return _check(
        "square_determinant",
        _verdict((det != 0) == (n_big == 0)),
        f"det(I)={det}, nullity(A_GH)={n_big}",
    )


def _unit_soundness(h, dec) -> dict:
    """Cover V once, each star equal to its unit's generator, generators distinct.

    Together these make every unit a maximal star class.
    """
    covered = sorted(v for u in dec.units for v in u.members)
    sound = (
        covered == sorted(h.vertices)
        and all(h.star(v) == u.generator for u in dec.units for v in u.members)
        and len({u.generator for u in dec.units}) == len(dec.units)
    )
    return _check(
        "unit_soundness",
        _verdict(sound),
        f"{len(dec.units)} units partition {h.n_vertices} vertices",
    )


def _q_annihilation(h, vertex_basis) -> dict:
    if vertex_basis.dimension == 0:
        return _check("q_annihilation", "not-applicable", "nullity(I^T)=0, no certificates")
    basis_t = vertex_basis.matrix.transpose()
    products = []
    for preset in WEIGHT_PRESETS:
        try:
            w = weight_scheme(h, preset)
        except (SingletonEdgeError, IsolatedVertexError):
            continue
        products.append(build_Q(h, w) @ basis_t)
    ok = not any(any(map(any, p.numerators)) for p in products)
    witness = f"{vertex_basis.dimension} basis certificates under {len(products)} weight presets"
    return _check("q_annihilation", _verdict(ok), witness)


def _over_budget(name: str, vertex_nullity: int) -> dict:
    return _check(
        name,
        "skipped",
        f"3^{vertex_nullity} basis sign combinations exceed "
        f"ENUMERATION_BUDGET={ENUMERATION_BUDGET}",
    )


def _zero_assignments(h, rows) -> set:
    """The pairs (U, V) whose signed sum of vertex rows (``rows[i]`` vertex i's int
    vector) vanishes, each once with its first signed vertex in U, as the
    search orients them."""
    import numpy as np

    if not rows:
        return set()
    signs = np.concatenate([c for c, _ in _sign_sums(rows, [0] * len(rows[0]), (0,))])
    return set(_oriented_pairs(h.vertices, signs))


def _signed_rows(h, pairs):
    """The int64 rows chi_U - chi_V of the pairs, or None if one names a non-vertex
    or overlaps (then +1 is overwritten by -1, so fewer entries are nonzero)."""
    import numpy as np

    index = {v: i for i, v in enumerate(h.vertices)}
    signed = np.zeros((len(pairs), len(index)), dtype=np.int64)
    written = 0
    for side, sign in ((0, 1), (1, -1)):
        parts = [pair[side] for pair in pairs]
        try:
            cols = [index[x] for part in parts for x in part]
        except KeyError:
            return None
        signed[np.repeat(np.arange(len(parts)), list(map(len, parts))), cols] = sign
        written += len(cols)
    return signed if np.count_nonzero(signed) == written else None


def _edge_balanced(signed, h, table):
    """Per pair, |e meet U| == |e meet V| on every e: (S T)[p, e], T the stars' table."""
    import numpy as np

    stars = np.array(table, dtype=np.int64).reshape(h.n_vertices, h.n_hyperedges)
    return ~(signed @ stars).any(axis=1)


def _walk_balanced(signed, tm):
    """Per pair, whether each state w outside U and V enters both equally:
    (S M^T)[p, w], row w of the kernel's numerators M over U minus over V.
    S is in {-1, 0, 1}, so each entry sums n terms of M: ``_int_array`` at weight n."""
    flow = signed @ _int_array(tm.matrix.numerators, tm.matrix.cols).T
    return ~((flow != 0) & (signed == 0)).any(axis=1)


def _partition_nullspace(h, inc, pairs, signed, vertex_nullity: int) -> dict:
    if pairs is None:
        return _over_budget("partition_nullspace", vertex_nullity)
    # With I the stars' 0/1 table, I^T (chi_U - chi_V)[e] = |e meet U| - |e meet V|: a
    # counted pair lies in ker I^T, and the sweep over the stars sweeps the rows of I
    table = tuple(tuple(int(e in star) for e in h.edge_labels) for star in map(h.star, h.vertices))
    labels = (inc.row_labels, inc.col_labels) == (h.vertices, h.edge_labels)
    ok = labels and inc.denominator == 1 and inc.numerators == table
    if signed is None or not _edge_balanced(signed, h, table).all():
        ok = False
    witness = f"{len(pairs)} partitions from the nullspace all verified by counting"
    if 3 ** h.n_vertices <= ENUMERATION_BUDGET:
        if _zero_assignments(h, table) != set(pairs):
            ok = False
        witness += "; exhaustive counting sweep agreed both directions"
    return _check("partition_nullspace", _verdict(ok), witness)


def _partition_transition(pairs, signed, vertex_nullity: int, kernel) -> dict:
    if pairs is None:
        return _over_budget("partition_transition", vertex_nullity)
    if not pairs:
        return _check("partition_transition", "not-applicable", "no equal partitions")
    tm = kernel()
    if isinstance(tm, str):
        return _check("partition_transition", "not-applicable", tm)
    ok = signed is not None and _walk_balanced(signed[(signed < 0).any(axis=1)], tm).all()
    witness = f"{sum(1 for _, v in pairs if v)} partitions balance transition mass"
    return _check("partition_transition", _verdict(ok), witness)


def _walk_symmetries(dec, kernel) -> dict:
    multi = [u for u in dec.units if len(u.members) >= 2]
    if not multi:
        return _check(
            "walk_symmetries", "not-applicable", "no unit has two or more members"
        )
    tm = kernel()
    if isinstance(tm, str):
        return _check("walk_symmetries", "not-applicable", tm)
    inverse = _passage_inverse(tm)
    if inverse is None:
        # symmetric support: a reducible chain leaves the first target unreachable
        return _check("walk_symmetries", "not-applicable", "UnreachableError")
    x, _, w = inverse
    r = [sum(row) for row in x]
    total = sum(w)

    def e(u: int, v: int) -> int:  # E_u^v d w_v / D, as in ``centrality._passage_inverse``
        return (r[u] - r[v]) * w[v] + (x[v][v] - x[u][v]) * total

    pairs = [(tm._index[a], tm._index[b]) for u in multi for a, b in combinations(u.members, 2)]
    # E_a^b = E_b^a, and E_k^a = E_k^b from every other state k
    ok = all(
        e(a, b) * w[a] == e(b, a) * w[b]
        and all(e(k, a) * w[b] == e(k, b) * w[a] for k in range(len(w)) if k not in (a, b))
        for a, b in pairs
    )
    return _check(
        "walk_symmetries",
        _verdict(ok),
        f"{len(pairs)} unit pairs, exact hitting-time symmetry",
    )


def run_checks(h: Hypergraph) -> dict:
    """Run every theorem check on ``h``.

    Returns ``{"nullity_A_GH": int, "theorem_checks": [...], "failed": int}``;
    each check is ``{"name", "status", "witness"}`` with status ``pass``,
    ``fail``, ``not-applicable`` or ``skipped`` (an enumeration over
    ``ENUMERATION_BUDGET``). Only ``fail`` counts as failed.
    """
    inc = incidence_matrix(h)
    inc_rank = rank(inc)
    vertex_basis = nullspace(inc.transpose())
    vertex_nullity = vertex_basis.dimension
    n_big = h.n_vertices + h.n_hyperedges - rank(build_A_GH(h))
    dec = units(h)
    pairs = signed = None
    if 3 ** vertex_nullity <= ENUMERATION_BUDGET:
        pairs = find_equal_edge_partitions(h, max_support=max(h.n_vertices, 1), basis=vertex_basis)
        signed = _signed_rows(h, pairs)

    @cache
    def kernel():
        """The non-lazy kernel, or the name of the error that rules it out."""
        try:
            return transition_matrix(h, WalkPolicy.uniform_nonlazy())
        except (IsolatedVertexError, SingletonEdgeNonLazyError) as exc:
            return type(exc).__name__

    checks = [
        _rank_equality(inc_rank, inc.rows - vertex_nullity),
        _nullity_additivity(h, inc.cols - inc_rank, vertex_nullity, n_big),
        _square_determinant(h, inc, n_big),
        _unit_soundness(h, dec),
        _q_annihilation(h, vertex_basis),
        _partition_nullspace(h, inc, pairs, signed, vertex_nullity),
        _partition_transition(pairs, signed, vertex_nullity, kernel),
        _walk_symmetries(dec, kernel),
    ]
    return {
        "nullity_A_GH": n_big,
        "theorem_checks": checks,
        "failed": sum(1 for c in checks if c["status"] == "fail"),
    }
