"""Independent exact oracles: plain ints and Fractions, never hyperlin.

Each function rebuilds what it needs from the benchmark's own instance
(vertex order plus labeled member sets) and returns True when the program's
output satisfies the identity. A float result is compared with numpy by a
tolerance, never by bytes.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

#: Relative tolerance for float eigenvalues and Perron values. The program
#: and numpy both reach ~1e-12 on these sizes; 1e-8 leaves room for a
#: different eigen solver without admitting a wrong spectrum.
FLOAT_RTOL = 1e-8


def incidence_rows(inst) -> list[list[int]]:
    """0/1 incidence matrix, vertices by edges."""
    return [[int(v in members) for _, members in inst.edges] for v in inst.vertices]


def int_rank(rows: list[list[int]]) -> int:
    """Exact rank of an integer matrix by fraction-free Bareiss elimination.

    Every row below the pivot is updated, and each division by the previous
    pivot is checked to be exact.
    """
    a = [list(r) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    rank, prev = 0, 1
    for c in range(ncols):
        piv = next((i for i in range(rank, nrows) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        top = a[rank]
        p = top[c]
        for i in range(rank + 1, nrows):
            row = a[i]
            f = row[c]
            for j in range(c + 1, ncols):
                q, r = divmod(row[j] * p - f * top[j], prev)
                if r:
                    raise ArithmeticError("Bareiss division was not exact")
                row[j] = q
            row[c] = 0
        prev = p
        rank += 1
    return rank


def stars(inst) -> dict[str, list[str]]:
    return {v: [label for label, members in inst.edges if v in members] for v in inst.vertices}


def is_connected(inst) -> bool:
    adj: dict[str, set[str]] = {v: set() for v in inst.vertices}
    for _, members in inst.edges:
        for v in members:
            adj[v] |= members
    seen = {inst.vertices[0]}
    frontier = [inst.vertices[0]]
    while frontier:
        frontier = [u for v in frontier for u in adj[v] if u not in seen and not seen.add(u)]
    return len(seen) == len(inst.vertices)


def annihilated_by_incidence_t(inst, x) -> bool:
    """I^T x = 0: the coefficients sum to zero over every edge."""
    return all(sum((Fraction(x[v]) for v in members), Fraction(0)) == 0 for _, members in inst.edges)


def coincidence(inst, edge_weights) -> dict[tuple[str, str], Fraction]:
    """c(u, v) = sum of edge weights over the edges holding both u and v."""
    out: dict[tuple[str, str], Fraction] = {}
    for label, members in inst.edges:
        w = Fraction(edge_weights[label])
        for u in members:
            for v in members:
                out[u, v] = out.get((u, v), Fraction(0)) + w
    return out


def weights(inst, preset: str) -> tuple[dict[str, Fraction], dict[str, Fraction]]:
    """Vertex and edge weights of the unit, edgenorm and fullnorm presets."""
    st = stars(inst)
    if preset == "unit":
        we = {label: Fraction(1) for label, _ in inst.edges}
    else:
        we = {label: Fraction(1, len(m) - 1) for label, m in inst.edges}
    if preset == "fullnorm":
        wv = {v: Fraction(1, len(st[v])) for v in inst.vertices}
    else:
        wv = {v: Fraction(1) for v in inst.vertices}
    return wv, we


def q_annihilates(inst, x) -> bool:
    """Q x = 0 with Q[u][v] = w(u) c(u, v) rebuilt from the stars, unit weights."""
    wv, we = weights(inst, "unit")
    c = coincidence(inst, we)
    for u in inst.vertices:
        total = sum((c.get((u, v), 0) * Fraction(x[v]) for v in inst.vertices), Fraction(0))
        if wv[u] * total != 0:
            return False
    return True


def adjacency_eigen(inst, x, value) -> bool:
    """A x = value x, A being Q with its diagonal removed, edgenorm weights."""
    wv, we = weights(inst, "edgenorm")
    c = coincidence(inst, we)
    for u in inst.vertices:
        ax = wv[u] * sum(
            (c.get((u, v), 0) * Fraction(x[v]) for v in inst.vertices if v != u), Fraction(0)
        )
        if ax != value * Fraction(x[u]):
            return False
    return True


def degree_constant_on_support(inst, x) -> bool:
    """Whether the edgenorm-weighted degree is one value on the support of ``x``."""
    wv, we = weights(inst, "edgenorm")
    st = stars(inst)
    degs = {wv[v] * sum(we[e] for e in st[v]) for v in inst.vertices if x[v] != 0}
    return len(degs) == 1


def transition(inst, lazy: bool) -> dict[str, dict[str, Fraction]]:
    """Uniform walk kernel: uniform incident edge, then a uniform member.

    The non-lazy walk picks among the other members, the lazy walk among all.
    """
    st = stars(inst)
    sizes = {label: len(m) for label, m in inst.edges}
    members = dict(inst.edges)
    p = {u: {v: Fraction(0) for v in inst.vertices} for u in inst.vertices}
    for u in inst.vertices:
        r = Fraction(1, len(st[u]))
        for e in st[u]:
            k = sizes[e] if lazy else sizes[e] - 1
            for v in members[e]:
                if lazy or v != u:
                    p[u][v] += r / k
    return p


def same_kernel(inst, matrix: dict[str, dict[str, Fraction]], lazy: bool) -> bool:
    """The program's kernel equals the rebuilt one and every row sums to 1."""
    if any(sum(row.values(), Fraction(0)) != 1 for row in matrix.values()):
        return False
    return matrix == transition(inst, lazy)


def hitting_times(p, target: str) -> dict[str, Fraction]:
    """Expected steps to ``target`` by Gauss-Jordan on (Id - P') h = 1."""
    others = [v for v in p if v != target]
    k = len(others)
    a = [
        [Fraction(int(u == v)) - p[u][v] for v in others] + [Fraction(1)]
        for u in others
    ]
    for c in range(k):
        piv = next(i for i in range(c, k) if a[i][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        inv = a[c][c]
        a[c] = [x / inv for x in a[c]]
        for i in range(k):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    h = {v: a[i][k] for i, v in enumerate(others)}
    h[target] = 1 + sum((p[target][v] * h[v] for v in others), Fraction(0))
    return {v: h[v] for v in p}


def hitting_identity(p, target: str, h) -> bool:
    """h = 1 + P' h off the target, and the target's entry is its return time."""
    for u in p:
        rhs = 1 + sum((p[u][v] * h[v] for v in p if v != target), Fraction(0))
        if h[u] != rhs:
            return False
    return True


def first_hit_law(p, target: str, start: str, law) -> bool:
    """Step-by-step absorbed mass from ``start`` reproduces ``law`` exactly."""
    cur = {v: Fraction(int(v == start)) for v in p}
    for value in law:
        nxt = {v: Fraction(0) for v in p}
        for u, mass in cur.items():
            if mass:
                for v, q in p[u].items():
                    nxt[v] += mass * q
        if nxt[target] != value:
            return False
        nxt[target] = Fraction(0)
        cur = nxt
    return sum(law, Fraction(0)) <= 1


def _symmetrized(inst, kind: str) -> np.ndarray:
    """Float symmetric matrix similar to Q (unit), A (edgenorm), L (fullnorm) or A_GH."""
    if kind == "A_GH":
        inc = np.array(incidence_rows(inst), dtype=float)
        n, m = inc.shape
        out = np.zeros((n + m, n + m))
        out[:n, n:] = inc
        out[n:, :n] = inc.T
        return out
    preset = {"Q": "unit", "A": "edgenorm", "L": "fullnorm"}[kind]
    wv, we = weights(inst, preset)
    c = coincidence(inst, we)
    verts = inst.vertices
    sym = np.array([[float(c.get((u, v), 0)) for v in verts] for u in verts])
    if kind != "Q":
        np.fill_diagonal(sym, 0.0)
    if kind == "L":
        sym = np.diag(sym.sum(axis=1)) - sym
    root = np.sqrt(np.array([float(wv[v]) for v in verts]))
    return sym * np.outer(root, root)


def spectrum_matches(inst, kind: str, values: list[float]) -> bool:
    """Expanded eigenvalues agree with numpy.linalg.eigvalsh within tolerance."""
    want = np.linalg.eigvalsh(_symmetrized(inst, kind))
    if len(values) != len(want):
        return False
    scale = max(1.0, float(np.max(np.abs(want))))
    return bool(np.max(np.abs(np.sort(np.array(values)) - want)) <= FLOAT_RTOL * scale)


def perron_matches(inst, vector: dict[str, float], radius: float) -> bool:
    """Radius equals the top eigvalsh value and the vector has a small residual."""
    mat = _symmetrized(inst, "Q")
    top = float(np.linalg.eigvalsh(mat)[-1])
    x = np.array([vector[v] for v in inst.vertices])
    if np.any(x <= 0) or abs(radius - top) > FLOAT_RTOL * top:
        return False
    return float(np.max(np.abs(mat @ x - top * x))) <= FLOAT_RTOL * top * float(np.max(x))
