"""Reference implementations in plain Fraction arithmetic.

These are the straightforward loops the library's integer kernel replaced,
plus the one-trajectory-at-a-time simulator the block simulator replaced,
the one-solve-per-target closeness that one inverse replaced, the
rule-by-rule uniform walk kernel that the star-indexed integer build
replaced, and the Fraction rows of the weighted matrices Q, A and L with
the float array their spectra hand to numpy.
They are slow and obviously correct, and the kernel tests require the
library to agree with them exactly.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from typing import Mapping

import numpy as np

from hyperlin.randwalk import (
    SimulationResult,
    SplitMix64,
    _initial_masses,
    trajectory_seed,
)


def gauss_jordan(rows: list[list[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan with pivots sought in the first ``ncols`` columns.

    Returns the reduced rows and the pivot columns.
    """
    a = [list(row) for row in rows]
    nrows = len(a)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def nullspace_vectors(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """One vector per free column, leading nonzero coordinate +1."""
    a, pivots = gauss_jordan(rows, ncols)
    out = []
    for f in (c for c in range(ncols) if c not in pivots):
        coeffs = [Fraction(0)] * ncols
        coeffs[f] = Fraction(1)
        for r, p in enumerate(pivots):
            coeffs[p] = -a[r][f]
        lead = next(x for x in coeffs if x != 0)
        out.append([-x for x in coeffs] if lead < 0 else coeffs)
    return out


def solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """The unique solution of a square system, or None when it is singular."""
    n = len(rows)
    a, pivots = gauss_jordan([list(row) + [b] for row, b in zip(rows, rhs)], n)
    if len(pivots) < n:
        return None
    return [a[i][n] for i in range(n)]


def determinant(rows: list[list[Fraction]]) -> Fraction:
    """Bareiss elimination on Fractions."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    a = [list(row) for row in rows]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            lead = a[i][k]
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - lead * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = pivot
    return sign * a[n - 1][n - 1]


def transition_kernel(h, lazy: bool) -> list[list[Fraction]]:
    """The uniform walk kernel by its rules, rows and columns in vertex order.

    From u, each hyperedge of star(u) is picked with r = 1/deg(u), then a
    member v with s = 1/|e| (lazy) or a member other than u with
    s = 1/(|e| - 1) (non-lazy); P[u][v] sums r * s over the shared edges.
    """
    index = {v: i for i, v in enumerate(h.vertices)}
    rows = [[Fraction(0)] * len(index) for _ in index]
    for u in h.vertices:
        r = Fraction(1, h.degree(u))
        for e in h.star(u):
            members = h.members(e)
            for v in members:
                if lazy:
                    rows[index[u]][index[v]] += r * Fraction(1, len(members))
                elif v != u:
                    rows[index[u]][index[v]] += r * Fraction(1, len(members) - 1)
    return rows


def mat_mult(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def power_sums(p: list[list[Fraction]], horizon: int) -> list[list[Fraction]]:
    """Sum of matrix powers P^0 + P^1 + ... + P^horizon."""
    n = len(p)
    total = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(horizon):
        power = mat_mult(power, p)
        total = [[x + y for x, y in zip(rt, rp)] for rt, rp in zip(total, power)]
    return total


def rw_betweenness(p: list[list[Fraction]], horizon: int) -> list[Fraction]:
    """Truncated random-walk betweenness of every state of the kernel ``p``."""
    n = len(p)
    full = power_sums(p, horizon)
    scores = []
    for w in range(n):
        keep = [i for i in range(n) if i != w]
        avoided = power_sums([[p[i][j] for j in keep] for i in keep], horizon)
        score = Fraction(0)
        for a, i in enumerate(keep):
            for b, j in enumerate(keep):
                if full[i][j] != 0:
                    score += (full[i][j] - avoided[a][b]) / full[i][j]
        scores.append(score)
    return scores


def step_left(p: list[list[Fraction]], x: list[Fraction]) -> list[Fraction]:
    """The row vector x P."""
    n = len(p)
    return [sum((x[i] * p[i][j] for i in range(n)), Fraction(0)) for j in range(n)]


def step_distribution(p: list[list[Fraction]], x: list[Fraction], t: int) -> list[Fraction]:
    """The distribution x P^t, one step at a time."""
    for _ in range(t):
        x = step_left(p, x)
    return x


def first_hit_probabilities(
    p: list[list[Fraction]], target: int, horizon: int, x: list[Fraction]
) -> list[Fraction]:
    """Mass entering ``target`` at each step 1..horizon, absorbed there."""
    out = []
    for _ in range(horizon):
        x = step_left(p, x)
        out.append(x[target])
        x[target] = Fraction(0)
    return out


def partition_balanced(p: list[list[Fraction]], u: set[int], v: set[int]) -> bool:
    """Every state outside U and V moves into U with the probability it moves into V."""
    return all(
        sum((row[i] for i in u), Fraction(0)) == sum((row[j] for j in v), Fraction(0))
        for w, row in enumerate(p)
        if w not in u and w not in v
    )


def hitting_times(p: list[list[Fraction]], target: int, self_time: str) -> list[Fraction] | None:
    """Expected steps to ``target`` from (Id - P') h = 1, or None when singular.

    The target's own entry is 0 under self_time "zero" and its expected
    first-return time 1 + sum_u P[target][u] h[u] otherwise.
    """
    others = [i for i in range(len(p)) if i != target]
    system = [[Fraction(int(i == j)) - p[i][j] for j in others] for i in others]
    sol = solve(system, [Fraction(1)] * len(others))
    if sol is None:
        return None
    h = dict(zip(others, sol))
    if self_time == "zero":
        h[target] = Fraction(0)
    else:
        h[target] = 1 + sum((p[target][i] * h[i] for i in others), Fraction(0))
    return [h[i] for i in range(len(p))]


def rw_closeness(p: list[list[Fraction]], self_time: str) -> list[Fraction] | None:
    """State count over each target's summed hitting times, one solve per
    target, or None when some target is unreachable from some state."""
    n = len(p)
    out = []
    for target in range(n):
        times = hitting_times(p, target, self_time)
        if times is None:
            return None
        out.append(Fraction(n) / sum(times, Fraction(0)))
    return out


def equal_edge_partitions(h, max_support: int) -> list[tuple[frozenset, frozenset]]:
    """Equal partitions (U, V) from every {-1, 0, 1} combination of the
    Fraction nullspace basis of I^T, verified by counting per hyperedge.

    Same contract and order as ``find_equal_edge_partitions``.
    """
    verts = list(h.vertices)
    rows = [[Fraction(int(v in members)) for v in verts] for _, members in h.hyperedges]
    basis = nullspace_vectors(rows, len(verts))
    pos = {v: i for i, v in enumerate(verts)}
    results = []
    for combo in itertools.product((-1, 0, 1), repeat=len(basis)):
        coeffs = [Fraction(0)] * len(verts)
        for c, vec in zip(combo, basis):
            coeffs = [x + c * y for x, y in zip(coeffs, vec)]
        lead = next((x for x in coeffs if x != 0), None)
        if lead is None or lead < 0 or any(x not in (-1, 0, 1) for x in coeffs):
            continue
        support = [i for i, x in enumerate(coeffs) if x != 0]
        if len(support) > max_support:
            continue
        u_set = frozenset(verts[i] for i in support if coeffs[i] == 1)
        v_set = frozenset(verts[i] for i in support if coeffs[i] == -1)
        if all(len(u_set & m) == len(v_set & m) for _, m in h.hyperedges):
            results.append((u_set, v_set))
    results.sort(
        key=lambda pair: (
            len(pair[0] | pair[1]),
            tuple(sorted(pos[v] for v in pair[0] | pair[1])),
            tuple(sorted(pos[v] for v in pair[0])),
        )
    )
    return results


def _cumulative_table(
    labels: tuple[str, ...], probs: Mapping[str, Fraction]
) -> tuple[list[int], list[int]]:
    """Integer thresholds for exact sampling with 64-bit draws.

    State k is chosen when the draw u satisfies u < ceil(c_k * 2^64), where
    c_k is the cumulative probability through k. Comparing against the
    ceiling is exact for integer draws; zero-probability states are skipped.
    """
    bounds: list[int] = []
    states: list[int] = []
    cum = Fraction(0)
    for i, lab in enumerate(labels):
        p = probs.get(lab, Fraction(0))
        if p == 0:
            continue
        cum += p
        boundary = -((-cum.numerator << 64) // cum.denominator)
        bounds.append(boundary)
        states.append(i)
    return bounds, states


def simulate(tm, init, steps: int, trajectories: int, seed: int) -> SimulationResult:
    """Seeded trajectories one at a time: one SplitMix64 draw and one
    bisection of the cumulative table per step."""
    states = tm.states
    masses, d = _initial_masses(tm, init)
    dist = {v: Fraction(x, d) for v, x in zip(states, masses)}
    init_bounds, init_states = _cumulative_table(states, dist)
    row_tables = [_cumulative_table(states, tm.matrix.row(u)) for u in states]
    visits = [0] * len(states)
    first_hits: list[dict[int, int]] = [dict() for _ in states]
    for i in range(trajectories):
        rng = SplitMix64(trajectory_seed(seed, i))
        cur = init_states[bisect.bisect_right(init_bounds, rng.next_u64())]
        visits[cur] += 1
        seen = [False] * len(states)
        for t in range(1, steps + 1):
            bounds, nexts = row_tables[cur]
            cur = nexts[bisect.bisect_right(bounds, rng.next_u64())]
            visits[cur] += 1
            if not seen[cur]:
                seen[cur] = True
                table = first_hits[cur]
                table[t] = table.get(t, 0) + 1
    return SimulationResult(
        trajectories=trajectories,
        steps=steps,
        seed=seed,
        visit_counts={lab: visits[i] for i, lab in enumerate(states)},
        first_hits={lab: first_hits[i] for i, lab in enumerate(states)},
    )


# -- weighted hypergraph matrices --------------------------------------------


def coincidence(h, edge_weights: Mapping[str, Fraction]) -> list[list[Fraction]]:
    """Entry (u, v) is the total weight over star(u) meet star(v), in vertex order."""
    stars = [h.star(v) for v in h.vertices]
    return [[sum((edge_weights[e] for e in su & sv), Fraction(0)) for sv in stars] for su in stars]


def q_rows(h, w) -> list[list[Fraction]]:
    """Rows of Q = D_V I D_E I^T in vertex order."""
    return [
        [w.vertex_weights[u] * x for x in row]
        for u, row in zip(h.vertices, coincidence(h, w.edge_weights))
    ]


def adjacency_rows(q: list[list[Fraction]]) -> list[list[Fraction]]:
    """Q with the diagonal zeroed."""
    return [[Fraction(0) if i == j else x for j, x in enumerate(row)] for i, row in enumerate(q)]


def laplacian_rows(a: list[list[Fraction]]) -> list[list[Fraction]]:
    """K - A for adjacency rows A, K carrying the row sums of A."""
    return [
        [sum(row, Fraction(0)) if i == j else -x for j, x in enumerate(row)]
        for i, row in enumerate(a)
    ]


def float_bridge(rows: list[list[Fraction]]) -> np.ndarray:
    """The float array handed to ``eigvalsh``: the entries of a symmetric
    matrix, else sign(m[i][j]) sqrt(m[i][j] m[j][i]) off the diagonal."""
    n = len(rows)
    if all(rows[i][j] == rows[j][i] for i in range(n) for j in range(n)):
        return np.array([[float(x) for x in row] for row in rows], dtype=float).reshape(n, n)
    arr = np.zeros((n, n), dtype=float)
    for i in range(n):
        arr[i, i] = float(rows[i][i])
        for j in range(i + 1, n):
            val = math.sqrt(float(rows[i][j] * rows[j][i]))
            arr[i, j] = arr[j, i] = -val if rows[i][j] < 0 else val
    return arr
