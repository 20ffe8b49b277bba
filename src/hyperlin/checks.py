"""The theorem checks behind ``hyperlin check``.

``run_checks`` verifies the paper's claims on one hypergraph: rank
equality, nullity(A_GH) = nullity(I) + nullity(I^T), the square-determinant
criterion, unit soundness, Q-annihilation of the vertex certificates, the
equal partition <=> ker I^T correspondence, the walk balance of equal
partitions, and the hitting-time symmetry of units. Every shared fact (the
incidence matrix, the three nullspaces, the unit decomposition, the equal
partitions and the non-lazy transition kernel) is computed once per run,
except ker I^T: ``find_equal_edge_partitions`` takes no basis and computes
it again (ROADMAP item 5 shares it). The kernel is built only when a walk
check asks for it.
"""

from __future__ import annotations

from functools import cache
from operator import add, sub

from .errors import (
    IsolatedVertexError,
    SingletonEdgeError,
    SingletonEdgeNonLazyError,
    UnreachableError,
)
from .hypergraph import Hypergraph, incidence_matrix
from .linalg import determinant, nullspace
from .randwalk import (
    WalkPolicy,
    hitting_times,
    transition_matrix,
    verify_partition_transition,
)
from .spectra import WEIGHT_PRESETS, build_A_GH, build_Q, weight_scheme
from .structures import (
    _gray_sums,
    find_equal_edge_partitions,
    units,
    verify_equal_edge_partition,
)

__all__ = ["ENUMERATION_BUDGET", "run_checks"]

#: Most sign assignments a check may enumerate: the partition search tries
#: 3^nullity(I^T) basis combinations and the exhaustive sweep 3^|V| vertex
#: assignments. One walker, ``structures._gray_sums``, serves both: it visits
#: the assignments in ternary Gray order, adding one sparse vector per step.
#: A search over budget is reported as ``skipped``.
ENUMERATION_BUDGET = 3 ** 10


def _check(name: str, status: str, witness: str) -> dict:
    return {"name": name, "status": status, "witness": witness}


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def _rank_equality(inc, edge_nullity: int, vertex_nullity: int) -> dict:
    r_rows = inc.cols - edge_nullity
    r_cols = inc.rows - vertex_nullity
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
        return _check(
            "q_annihilation", "not-applicable", "nullity(I^T)=0, no certificates"
        )
    qs = []
    for preset in WEIGHT_PRESETS:
        try:
            w = weight_scheme(h, preset)
        except (SingletonEdgeError, IsolatedVertexError):
            continue
        qs.append(build_Q(h, w))
    ok = not any(
        x for q in qs for vec in vertex_basis.vectors for x in q.apply(vec).values()
    )
    return _check(
        "q_annihilation",
        _verdict(ok),
        f"{vertex_basis.dimension} basis certificates under {len(qs)} "
        f"weight presets",
    )


def _over_budget(name: str, vertex_nullity: int) -> dict:
    return _check(
        name,
        "skipped",
        f"3^{vertex_nullity} basis sign combinations exceed "
        f"ENUMERATION_BUDGET={ENUMERATION_BUDGET}",
    )


def _signed_indicator_in_nullspace(rows, n_edges: int, u_set, v_set) -> bool:
    """I^T (chi_U - chi_V) == 0, summed per hyperedge over the vertex rows of I."""
    totals = [0] * n_edges
    for v in u_set:
        totals = list(map(add, totals, rows[v]))
    for v in v_set:
        totals = list(map(sub, totals, rows[v]))
    return not any(totals)


def _zero_assignments(h, vectors, width: int) -> set:
    """The oriented pairs (U, V) whose signed sum of per-vertex vectors vanishes.

    ``vectors[i]`` is vertex i's sparse int vector over ``width`` positions.
    Each unordered nonzero assignment is visited once, oriented as the search
    orients it: for each lead vertex, ``sums`` starts at the lead's vector
    (the lead in U, every earlier vertex out) and ``_gray_sums`` walks the
    later vertices through {-1, 0, 1}, -1 for V and +1 for U.
    """
    zero = set()
    for lead, first in enumerate(h.vertices):
        sums = [0] * width
        for k, x in vectors[lead]:
            sums[k] += x
        later = h.vertices[lead + 1 :]
        for signs, bad in _gray_sums(vectors[lead + 1 :], sums, {0}):
            if not bad:
                u_set = frozenset([first, *(l for l, s in zip(later, signs) if s > 0)])
                zero.add((u_set, frozenset(l for l, s in zip(later, signs) if s < 0)))
    return zero


def _partition_nullspace(h, inc, pairs, vertex_nullity: int) -> dict:
    if pairs is None:
        return _over_budget("partition_nullspace", vertex_nullity)
    rows = dict(zip(inc.row_labels, inc.numerators))
    ok = True
    for u_set, v_set in pairs:
        counted, _ = verify_equal_edge_partition(h, u_set, v_set)
        if not counted or not _signed_indicator_in_nullspace(
            rows, inc.cols, u_set, v_set
        ):
            ok = False
    witness = f"{len(pairs)} partitions from the nullspace all verified by counting"
    if 3 ** h.n_vertices <= ENUMERATION_BUDGET:
        # |e meet U| - |e meet V| from the stars, and I^T (chi_U - chi_V) from inc
        edge_pos = {label: k for k, (label, _) in enumerate(h.hyperedges)}
        stars = [[(edge_pos[e], 1) for e in h.star(v)] for v in h.vertices]
        nonzeros = [[(k, x) for k, x in enumerate(rows[v]) if x] for v in h.vertices]
        counted = _zero_assignments(h, stars, len(edge_pos))
        if counted != _zero_assignments(h, nonzeros, inc.cols) or counted != set(pairs):
            ok = False
        witness += "; exhaustive counting sweep agreed both directions"
    return _check("partition_nullspace", _verdict(ok), witness)


def _partition_transition(pairs, vertex_nullity: int, kernel) -> dict:
    if pairs is None:
        return _over_budget("partition_transition", vertex_nullity)
    if not pairs:
        return _check("partition_transition", "not-applicable", "no equal partitions")
    tm = kernel()
    if isinstance(tm, str):
        return _check("partition_transition", "not-applicable", tm)
    two_sided = [(u, v) for u, v in pairs if v]
    ok = all(verify_partition_transition(tm, u, v) for u, v in two_sided)
    return _check(
        "partition_transition",
        _verdict(ok),
        f"{len(two_sided)} partitions balance transition mass",
    )


def _walk_symmetries(h, dec, kernel) -> dict:
    multi = [u for u in dec.units if len(u.members) >= 2]
    if not multi:
        return _check(
            "walk_symmetries", "not-applicable", "no unit has two or more members"
        )
    tm = kernel()
    if isinstance(tm, str):
        return _check("walk_symmetries", "not-applicable", tm)
    tables = {}
    ok = True
    pairs = 0
    try:
        for u in multi:
            members = list(u.members)
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    for t in (a, b):
                        if t not in tables:
                            tables[t] = hitting_times(tm, t)
                    if tables[b][a] != tables[a][b]:
                        ok = False
                    for w in h.vertices:
                        if w in (a, b):
                            continue
                        if tables[a][w] != tables[b][w]:
                            ok = False
                    pairs += 1
    except UnreachableError as exc:
        return _check("walk_symmetries", "not-applicable", type(exc).__name__)
    return _check(
        "walk_symmetries",
        _verdict(ok),
        f"{pairs} unit pairs, exact hitting-time symmetry",
    )


def run_checks(h: Hypergraph) -> dict:
    """Run every theorem check on ``h``.

    Returns ``{"nullity_A_GH": int, "theorem_checks": [...], "failed": int}``;
    each check is ``{"name", "status", "witness"}`` with status ``pass``,
    ``fail``, ``not-applicable`` or ``skipped`` (an enumeration over
    ``ENUMERATION_BUDGET``). Only ``fail`` counts as failed.
    """
    inc = incidence_matrix(h)
    edge_nullity = nullspace(inc).dimension
    vertex_basis = nullspace(inc.transpose())
    vertex_nullity = vertex_basis.dimension
    n_big = nullspace(build_A_GH(h)).dimension
    dec = units(h)
    pairs = None
    if 3 ** vertex_nullity <= ENUMERATION_BUDGET:
        pairs = find_equal_edge_partitions(h, max_support=max(h.n_vertices, 1))

    @cache
    def kernel():
        """The non-lazy kernel, or the name of the error that rules it out."""
        try:
            return transition_matrix(h, WalkPolicy.uniform_nonlazy())
        except (IsolatedVertexError, SingletonEdgeNonLazyError) as exc:
            return type(exc).__name__

    checks = [
        _rank_equality(inc, edge_nullity, vertex_nullity),
        _nullity_additivity(h, edge_nullity, vertex_nullity, n_big),
        _square_determinant(h, inc, n_big),
        _unit_soundness(h, dec),
        _q_annihilation(h, vertex_basis),
        _partition_nullspace(h, inc, pairs, vertex_nullity),
        _partition_transition(pairs, vertex_nullity, kernel),
        _walk_symmetries(h, dec, kernel),
    ]
    return {
        "nullity_A_GH": n_big,
        "theorem_checks": checks,
        "failed": sum(1 for c in checks if c["status"] == "fail"),
    }
