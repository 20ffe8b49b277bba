"""Centrality measures built on walks, units, and the graph projection."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul
from typing import Callable, Mapping, Sequence

from .errors import (
    BadHorizonError,
    DisconnectedError,
    NoConvergenceError,
    SingularError,
    TooFewEdgesError,
    TooSmallError,
    UnreachableError,
)
from .hypergraph import Hypergraph, _dot, _hops, _require_incident
from .linalg import _integer, _integer_solve, _known, rat
from .randwalk import (
    TransitionMatrix,
    _check_self_time,
    _first_arrivals,
    _require_reachable,
)
from .spectra import _check_tol, _check_weights, _coincidence
from .structures import UnitDecomposition, units

__all__ = [
    "GraphProjection",
    "CentralityReport",
    "graph_projection",
    "unit_distance",
    "rw_closeness",
    "rw_betweenness",
    "unit_closeness",
    "unit_eccentricity",
    "perron_centrality",
]

#: Power iterations ``perron_centrality`` runs before giving up.
PERRON_MAX_ITERATIONS = 100_000


@dataclass(frozen=True)
class GraphProjection:
    """Simple graph on the units: adjacent when one hyperedge contains both."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    decomposition: UnitDecomposition
    _adjacency: dict[str, list[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        adjacency: dict[str, list[str]] = {node: [] for node in self.nodes}
        for a, b in self.edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        object.__setattr__(self, "_adjacency", adjacency)

    def neighbors(self, node: str) -> tuple[str, ...]:
        """Adjacent nodes, in the order of ``edges``."""
        _known([node], self._adjacency, "projection nodes")
        return tuple(self._adjacency[node])

    def distances_from(self, node: str) -> dict[str, int]:
        """Breadth-first hop counts; unreachable nodes are absent."""
        _known([node], self._adjacency, "projection nodes")
        return _hops(node, self._adjacency.__getitem__)

    def is_connected(self) -> bool:
        if not self.nodes:
            return True
        return len(self.distances_from(self.nodes[0])) == len(self.nodes)

    def to_dot(self) -> str:
        return _dot("projection", [(n, None, "box") for n in self.nodes], self.edges)


def graph_projection(h: Hypergraph) -> GraphProjection:
    """Project a hypergraph onto its units.

    Two distinct units are adjacent when some hyperedge contains their
    union; a unit lies inside a hyperedge exactly when that hyperedge
    belongs to the unit's generator. No self-loops.
    """
    decomp = units(h)
    order = {u.label: i for i, u in enumerate(decomp.units)}
    pairs: set[tuple[str, str]] = set()
    for e in h.edge_labels:
        inside = [u.label for u in decomp.units if e in u.generator]
        pairs.update(combinations(inside, 2))
    edges = tuple(sorted(pairs, key=lambda p: (order[p[0]], order[p[1]])))
    return GraphProjection(nodes=decomp.labels, edges=edges, decomposition=decomp)


def unit_distance(h: Hypergraph, u: str, v: str) -> int:
    """Hop distance between the units of two vertices (a pseudometric on V)."""
    proj = graph_projection(h)
    du = proj.decomposition.unit_of(str(u)).label
    dv = proj.decomposition.unit_of(str(v)).label
    dist = proj.distances_from(du)
    if dv not in dist:
        raise DisconnectedError(f"units of {u!r} and {v!r} are not connected")
    return dist[dv]


@dataclass(frozen=True)
class CentralityReport:
    """Values per vertex plus the parameters that produced them."""

    kind: str
    values: dict[str, object]
    parameters: dict[str, object]

    def to_json_dict(self) -> dict:
        def encode(x):
            if isinstance(x, Fraction):
                return str(x)
            return x

        return {
            "kind": self.kind,
            "parameters": {k: encode(v) for k, v in self.parameters.items()},
            "values": {k: encode(v) for k, v in self.values.items()},
        }


def rw_closeness(tm: TransitionMatrix, self_time: str = "return") -> CentralityReport:
    """Random-walk closeness: vertex count over summed hitting times onto v.

    For each target v the exact expected hitting times E_u^v are summed
    over all starting vertices u (the target contributes its first-return
    time by default, or zero under self_time="zero"), and the centrality is
    |V| divided by that sum. Values are exact positive rationals.

    Every target's sum comes from one integer solve, ``linalg._integer_solve``
    (Dixon lifting from its size threshold). With P = M / D, deleting a
    reference state r leaves Id - P', and its inverse padded
    with a zero row and column at r is a generalized inverse G of Id - P.
    The mean first-passage identity for such a G (Kemeny and Snell, *Finite
    Markov Chains*, 1960; Hunter, *Linear Algebra Appl.* 45, 1982) reads

        E_u^v = g_u - g_v + (G[v][v] - G[u][v] + [u = v]) / pi_v,

    where g = G 1 and pi is the stationary distribution, so the sum over u
    needs only the row sums, column sums and diagonal of G. A chain that is
    not irreducible raises UnreachableError for the first target that some
    state cannot reach.

    Raises
    ------
    TooSmallError
        Under self_time="zero" on a single state, whose sum is zero.
    """
    _check_self_time(self_time)
    h = tm.source
    n = h.n_vertices
    if n == 1 and self_time == "zero":
        raise TooSmallError("a single state's summed hitting time is zero under self_time='zero'")
    values = _closeness_from_one_inverse(tm, self_time) if n else {}
    if values is None:
        for v in h.vertices:
            _require_reachable(tm, v)
        raise UnreachableError("the chain is not irreducible")  # not reached: some v fails
    return CentralityReport(
        kind="rw_closeness",
        values=values,
        parameters={"policy": tm.policy.kind, "self_time": self_time},
    )


def _passage_inverse(tm: TransitionMatrix) -> tuple[list[list[int]], int, list[int]] | None:
    """The X, d and w that give every mean first-passage time.

    The reference state r is state 0. The integer solve of
    (D Id - M') X = d Id gives X over its least positive common denominator
    d, so (Id - P')^-1 = D X / d, and the stationary weights w are d at r
    and M[r] X elsewhere (pi = w / W with W their sum). The chain is
    irreducible exactly when the solve is regular and every weight is
    positive; otherwise this returns None. X comes padded by zeros at r;
    with R its row sums, the identity in ``rw_closeness`` reads, for u != v,

        E_u^v = D e(u, v) / (d w_v),  e(u, v) = (R_u - R_v) w_v + (X[v][v] - X[u][v]) W.
    """
    m, scale = tm.matrix.numerators, tm.matrix.denominator
    n = len(m)
    a = [
        [scale * (i == j) - m[i][j] for j in range(1, n)] + [int(i == j) for j in range(1, n)]
        for i in range(1, n)
    ]
    try:
        x, d = _integer_solve(a, n - 1)
    except SingularError:
        return None
    weights = [d] + [sum(map(mul, m[0][1:], col)) for col in zip(*x)]
    if any(w <= 0 for w in weights):
        return None
    return [[0] * n] + [[0, *row] for row in x], d, weights


def _closeness_from_one_inverse(tm: TransitionMatrix, self_time: str) -> dict[str, object] | None:
    """``rw_closeness`` values from ``_passage_inverse``, or None where it gives None.

    With R, C and T the row sums, column sums and total of X, the closeness of v is

        n d w_v / (D (T - n R_v) w_v + (D (n X[v][v] - C_v) + b d) W),

    where b is 1 when the target counts its return time and 0 otherwise.
    """
    inverse = _passage_inverse(tm)
    if inverse is None:
        return None
    x, d, weights = inverse
    scale, n = tm.matrix.denominator, len(weights)
    total_weight = sum(weights)
    row_sums = [sum(row) for row in x]
    col_sums = [sum(col) for col in zip(*x)]
    diagonal = [x[i][i] for i in range(n)]
    total = sum(row_sums)
    back = d if self_time == "return" else 0
    return {
        v: Fraction(
            n * d * w,
            scale * (total - n * r) * w + (scale * (n * g - c) + back) * total_weight,
        )
        for v, w, r, c, g in zip(tm.states, weights, row_sums, col_sums, diagonal)
    }


def _power_sum_row(
    columns: Sequence[Sequence[int]], scale: int, w: int, horizon: int, partials: list[list[int]] | None = None
) -> list[int]:
    """Row w of T_horizon = scale^horizon (P^0 + ... + P^horizon), P = M / scale, in ints.

    ``columns`` are the columns of M. Right-multiplied Horner form: row w
    of T_0 is e_w and row w of T_k is (row w of T_(k-1)) M + scale^k e_w, so
    each row is its own recursion. Rows w of T_0 .. T_(horizon-1) are
    appended to ``partials`` when it is given.
    """
    g = [int(v == w) for v in range(len(columns))]
    diag = 1
    for _ in range(horizon):
        if partials is not None:
            partials.append(g)
        g = [sum(map(mul, g, col)) for col in columns]
        diag *= scale
        g[w] += diag
    return g


def _integer_power_sums(columns: Sequence[Sequence[int]], scale: int, horizon: int) -> list[list[int]]:
    """scale^horizon (P^0 + ... + P^horizon) for P = M / scale, in ints, row by row, from M's columns."""
    return [_power_sum_row(columns, scale, w, horizon) for w in range(len(columns))]


#: First passage multiplies two ints of about horizon * bits(D) bits each;
#: the deleted-row Horner step multiplies such an int only by a kernel entry,
#: but makes n times as many products. So first passage is the faster path
#: while horizon * bits(D) stays within this many bits per state. Measured in
#: CPython 3.11 on a 2-core VM, on the fixtures and on random kernels of 5 to
#: 20 states at horizons 100 to 400, the rule never picked the slower path.
#: Measured again once first passage took its partial sums from the rows of
#: full, on random kernels of 6 to 16 states (bits(D) 9 to 16, horizons 106
#: to 409): the paths cross near 300 bits per state at 6 and 8 states but
#: near 200 to 250 at 12 and 16, and at 192 first passage was the faster
#: path at every size in a second sweep, so the value stays.
_FIRST_PASSAGE_BITS_PER_STATE = 192


def rw_betweenness(tm: TransitionMatrix, horizon: int) -> CentralityReport:
    """Truncated random-walk betweenness, exact to the given horizon.

    For a vertex w, every ordered pair (u, v) with u, v distinct from w
    contributes a ratio of two walk masses from u: the mass at v at each
    time t <= horizon of the walks that have visited w by time t (walks
    that reached v before w included), over the total mass at v at each
    time t <= horizon (the step-0 term included). Pairs whose total mass is
    zero contribute nothing. Horizon 1 forces every numerator to zero since
    no intermediate step exists.

    With the kernel's P = M / D and h the horizon, both masses of a ratio
    carry the factor D^h, so ratios are taken between ints: full is
    D^h (P^0 + ... + P^h), and avoided_w is the same sum on the kernel with
    row and column w deleted. Splitting each walk that visits w at its
    first visit (the strong Markov property; Feller, *An Introduction to
    Probability Theory*, Vol. I, ch. XIII; Kemeny and Snell, *Finite Markov
    Chains*, 1960) gives, for u and v distinct from w,

        (full - avoided_w)[u][v] = sum_(s=1..h) F_s(u) G_(h-s)(w, v),

    where F_s(u) is D^s times the probability that the walk from u first
    arrives at w at step s, from the walk layer's ``_first_arrivals`` (F_1 is
    column w of M and F_(s+1) = M F_s', F_s' being F_s zeroed at w; F_s(w),
    the first return, is not read here), and G_k(w, .) is row w of
    the Horner partial sum T_k = D^k (P^0 + ... + P^k). Multiplied on the
    right, T_k = T_(k-1) M + D^k Id, so each row of T is its own recursion,
    and the one pass that builds full = T_h row by row yields every
    target's G_0 .. G_(h-1) on the way. Those h n^2 partial sums are kept
    while they fit in _KEPT_PARTIAL_SUMS; past it, each target's rows are
    recomputed by the same recursion. That costs O(n^2 h) per vertex
    instead of the O(n^3 h) of a power sum on the deleted kernel, but its
    products pair two ints of about h bits(D) bits each, where the power
    sum pairs one such int with a kernel entry. So the deleted-row sums
    serve long horizons: first passage is used while
    horizon * bits(D) <= _FIRST_PASSAGE_BITS_PER_STATE * n.

    Each vertex's ratios are summed as ints over one common denominator,
    grouped by row: row u is summed over the lcm L_u of its nonzero total
    masses, and then scaled once by common / L_u, where common = lcm(L_u).
    """
    horizon = _integer(horizon, "horizon", 1, BadHorizonError)
    if _first_passage_pays(tm, horizon):
        values = _betweenness_by_first_passage(tm, horizon)
    else:
        values = _betweenness_by_deleted_rows(tm, horizon)
    return CentralityReport(
        kind="rw_betweenness",
        values=values,
        parameters={"policy": tm.policy.kind, "horizon": horizon},
    )


def _first_passage_pays(tm: TransitionMatrix, horizon: int) -> bool:
    """Whether ``rw_betweenness`` takes the first-passage path (see there)."""
    bits = tm.matrix.denominator.bit_length()
    return horizon * bits <= _FIRST_PASSAGE_BITS_PER_STATE * len(tm.states)


#: Partial sums the first-passage path keeps from its one pass over the rows
#: of T_horizon: rows w of T_0 .. T_(horizon-1) for every target w, horizon
#: n^2 ints in all. At 12 states and horizon 10 that is 1440 ints, at 40
#: states 16000; past this budget each target's rows are recomputed.
_KEPT_PARTIAL_SUMS = 1 << 16


def _betweenness_by_first_passage(tm: TransitionMatrix, horizon: int) -> dict[str, object]:
    """``rw_betweenness`` values, each target's walk masses through it by first passage."""
    m, columns, scale = tm.matrix.numerators, tm._columns, tm.matrix.denominator
    n = len(m)
    keeps = horizon * n * n <= _KEPT_PARTIAL_SUMS
    kept = [[] if keeps else None for _ in range(n)]
    full = [_power_sum_row(columns, scale, w, horizon, kept[w]) for w in range(n)]

    def through(w: int, keep: list[int]) -> list[list[int]]:
        sums = kept[w]  # G_0 .. G_(h-1): rows w of T_0 .. T_(h-1)
        if sums is None:
            sums = []
            _power_sum_row(columns, scale, w, horizon, sums)
        by_start = list(zip(*_first_arrivals(m, w, horizon)))
        by_end = list(zip(*reversed(sums)))
        ends = [by_end[v] for v in keep]
        return [[sum(map(mul, by_start[u], e)) for e in ends] for u in keep]

    return _grouped_betweenness(tm, full, through)


def _betweenness_by_deleted_rows(tm: TransitionMatrix, horizon: int) -> dict[str, object]:
    """``rw_betweenness`` values, each target's walk masses through it as full
    minus avoided power sums."""
    columns, scale = tm._columns, tm.matrix.denominator
    full = _integer_power_sums(columns, scale, horizon)

    def through(w: int, keep: list[int]) -> list[list[int]]:
        avoided = _integer_power_sums([[columns[j][i] for i in keep] for j in keep], scale, horizon)
        return [[full[i][j] - x for j, x in zip(keep, row)] for i, row in zip(keep, avoided)]

    return _grouped_betweenness(tm, full, through)


def _grouped_betweenness(
    tm: TransitionMatrix,
    full: list[list[int]],
    through: Callable[[int, list[int]], list[list[int]]],
) -> dict[str, object]:
    """Sum each target's ratios through(w, keep)[u][v] / full[u][v], rows grouped.

    ``through(w, keep)`` gives the masses through w, with rows and columns
    over ``keep``, the states other than w. A zero total mass gets no share.
    """
    n = len(full)
    row_lcms = [lcm(*(x for x in row if x)) for row in full]
    common = lcm(*row_lcms)
    row_scales = [common // x for x in row_lcms]
    shares = [[big // x if x else 0 for x in row] for big, row in zip(row_lcms, full)]
    values: dict[str, object] = {}
    for w, label in enumerate(tm.states):
        keep = [i for i in range(n) if i != w]
        total = 0
        for u, row in zip(keep, through(w, keep)):
            share = shares[u]
            total += row_scales[u] * sum(map(mul, row, share[:w] + share[w + 1 :]))
        values[label] = Fraction(total, common)
    return values


def _unit_values(h: Hypergraph, value: Callable[[dict[str, int], dict[str, int]], object]) -> dict[str, object]:
    """Each vertex's ``value(hops, sizes)``, in vertex order: the hop distances
    from its unit and every unit's size, both keyed by unit label.

    One search per unit. Raises DisconnectedError unless the first search,
    and so the graph projection, reaches every unit.
    """
    proj = graph_projection(h)
    sizes = {u.label: u.size for u in proj.decomposition.units}
    values: dict[str, object] = {}
    for unit in proj.decomposition.units:
        hops = proj.distances_from(unit.label)
        if len(hops) < len(sizes):
            raise DisconnectedError("the graph projection is not connected")
        values.update(dict.fromkeys(unit.members, value(hops, sizes)))
    return {v: values[v] for v in h.vertices}


def unit_closeness(h: Hypergraph) -> CentralityReport:
    """Closeness under the unit pseudometric: inverse summed distance.

    Needs at least two hyperedges and a connected projection; both are
    checked up front. The distance from v sums |W| * d(unit(v), W) over all
    units W, so vertices in one unit share the same exact rational value.
    """
    if h.n_hyperedges < 2:
        raise TooFewEdgesError("unit closeness needs at least two hyperedges")
    values = _unit_values(h, lambda hops, sizes: Fraction(1, sum(sizes[u] * d for u, d in hops.items())))
    return CentralityReport(kind="unit_closeness", values=values, parameters={})


def unit_eccentricity(h: Hypergraph) -> CentralityReport:
    """Largest unit distance from each vertex; zero when only one unit exists."""
    values = _unit_values(h, lambda hops, sizes: max(hops.values()))
    return CentralityReport(kind="unit_eccentricity", values=values, parameters={})


def perron_centrality(
    h: Hypergraph,
    edge_weights: Mapping[str, Fraction] | None = None,
    tol: float = 1e-12,
) -> CentralityReport:
    """Positive eigenvector of the weighted vertex coincidence matrix.

    The matrix entry (u, v) sums the weights of the hyperedges containing
    both u and v (the diagonal is the weighted degree). Connectivity makes
    it irreducible, and the positive diagonal makes power iteration (from
    the all-ones vector, max-norm scaled) converge to the Perron vector.
    Iteration stops when successive normalized iterates differ by less than
    ``tol`` in max norm (``PERRON_MAX_ITERATIONS`` at most); the Rayleigh
    quotient estimates the spectral radius, and the final residual must
    stay below 100 * tol; ``tol`` must be finite and positive.
    """
    _check_tol(tol)
    if not h.is_connected():
        raise DisconnectedError("the coincidence matrix needs a connected hypergraph")
    _require_incident(h)
    if edge_weights is None:
        weights = {e: Fraction(1) for e in h.edge_labels}
    else:
        weights = {str(k): rat(v) for k, v in edge_weights.items()}
        _check_weights(weights, h.edge_labels, "edge", "hyperedges")
    # the empty matrix has no vertex to rank and no eigenvalue above 0
    iterations, rayleigh, residual, values = 0, 0.0, 0.0, {}
    if h.n_vertices:
        import numpy as np  # on first use, so importing hyperlin does not load it

        rows, d = _coincidence(h, weights)
        mat = np.array([[x / d for x in row] for row in rows], dtype=float)
        x = np.ones(len(mat), dtype=float)
        for iterations in range(1, PERRON_MAX_ITERATIONS + 1):
            y = mat @ x
            norm = float(np.max(np.abs(y)))
            if norm == 0.0:
                raise NoConvergenceError("iteration collapsed to the zero vector")
            y = y / norm
            if float(np.max(np.abs(y - x))) < tol:
                x = y
                break
            x = y
        else:
            raise NoConvergenceError("power iteration hit the iteration cap")
        rayleigh = float(x @ (mat @ x)) / float(x @ x)
        residual = float(np.max(np.abs(mat @ x - rayleigh * x)))
        if residual >= 100.0 * tol:
            raise NoConvergenceError(f"residual {residual} above 100 * tol")
        values = {v: float(x[i]) for i, v in enumerate(h.vertices)}
    return CentralityReport(
        kind="perron",
        values=values,
        parameters={
            "tol": tol,
            "iterations": iterations,
            "spectral_radius": rayleigh,
            "residual": residual,
        },
    )
