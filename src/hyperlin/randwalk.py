"""Random walks on hypergraphs with exact transition kernels.

A walk step from vertex u first picks a hyperedge e containing u (weight
r(u, e)), then a vertex v in e (weight s(u, e, v)), so the transition
kernel is P[u][v] = sum over shared hyperedges of r * s. Every kernel's
``matrix`` holds integer rows M over one denominator D (P = M / D), which
the exact walk algebra reads. The uniform kernels are the weighted A
(non-lazy, ``fullnorm`` weights: vertex 1/deg(v), hyperedge 1/(|e| - 1))
and Q (lazy, vertex 1/deg(v), hyperedge 1/|e|), built from the spectra's
coincidence rows; custom policies go through Fractions. One rule checks
every probability vector on ints (kernel rows, custom choices, initial
masses), and one recursion gives the first-arrival masses that first-hit
laws and first-passage betweenness read. Monte-Carlo simulation draws 64-bit
integers from a fully specified generator so runs are bit-reproducible,
and steps blocks of trajectories together as numpy uint64 arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, compress
from operator import mul
from typing import TYPE_CHECKING, Callable, Mapping, Sequence, Union

from .errors import (
    BadDistributionError,
    BadHorizonError,
    NotUniformPolicyError,
    SingletonEdgeNonLazyError,
    UnknownLabelError,
    UnreachableError,
)
from .hypergraph import Hypergraph, _hops, _require_incident
from .linalg import RationalMatrix, _integer, _integer_row, _integer_solve, _known, rat
from .spectra import _coincidence
from .structures import _check_disjoint

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "WalkPolicy",
    "TransitionMatrix",
    "SplitMix64",
    "SimulationResult",
    "transition_matrix",
    "step_distribution",
    "hitting_times",
    "first_hit_probabilities",
    "verify_partition_transition",
    "simulate",
]

UNIFORM_NONLAZY = "UniformNonLazy"
UNIFORM_LAZY = "UniformLazy"
CUSTOM = "Custom"


@dataclass(frozen=True)
class WalkPolicy:
    """How a walker chooses its next vertex.

    The uniform non-lazy policy picks an incident hyperedge uniformly and
    then a uniform member other than the current vertex, so it never stands
    still. The uniform lazy policy picks a uniform member of the chosen
    hyperedge including the current vertex (each member gets 1/|e|; the
    commonly printed closed form drops that laziness correction, which is a
    known slip). Custom policies supply r and s directly.
    """

    kind: str
    edge_rule: Callable[[str, str], Fraction] | None = None
    vertex_rule: Callable[[str, str, str], Fraction] | None = None

    @classmethod
    def uniform_nonlazy(cls) -> "WalkPolicy":
        return cls(kind=UNIFORM_NONLAZY)

    @classmethod
    def uniform_lazy(cls) -> "WalkPolicy":
        return cls(kind=UNIFORM_LAZY)

    @classmethod
    def custom(
        cls,
        edge_rule: Callable[[str, str], Fraction],
        vertex_rule: Callable[[str, str, str], Fraction],
    ) -> "WalkPolicy":
        return cls(kind=CUSTOM, edge_rule=edge_rule, vertex_rule=vertex_rule)

    @property
    def is_uniform(self) -> bool:
        return self.kind in (UNIFORM_NONLAZY, UNIFORM_LAZY)


@dataclass(frozen=True)
class TransitionMatrix:
    """An exact row-stochastic kernel bound to its hypergraph and policy.

    ``matrix`` holds the kernel as integer rows M over one denominator D,
    P = M / D, which the exact walk functions read together with the
    columns of M and a state-to-index map.

    The kernel is validated: its row and column labels must both be the
    source's vertices in order, every entry must be nonnegative and every
    row must sum to exactly 1.
    """

    source: Hypergraph
    policy: WalkPolicy
    matrix: RationalMatrix
    _columns: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m, verts = self.matrix, self.source.vertices
        if m.row_labels != verts or m.col_labels != verts:
            raise UnknownLabelError(
                f"transition matrix rows {list(m.row_labels)} and columns "
                f"{list(m.col_labels)} are not the vertices {list(verts)} in order"
            )
        for lab, row in zip(verts, m.numerators):
            _require_distribution(f"row {lab!r}", verts, row, m.denominator)
        object.__setattr__(self, "_columns", tuple(zip(*m.numerators)))
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(verts)})

    @property
    def states(self) -> tuple[str, ...]:
        return self.matrix.row_labels


def _require_distribution(what: str, labels: Sequence[str], masses: Sequence[int], d: int = 1) -> None:
    """The one probability rule: the int ``masses`` over ``d`` > 0, one per
    label, are each at least 0 and sum to 1, else BadDistributionError."""
    for label, x in zip(labels, masses):
        if x < 0:
            raise BadDistributionError(f"{what} has entry {Fraction(x, d)} at {label!r}, below 0")
    total = sum(masses)
    if total != d:
        raise BadDistributionError(f"{what} sums to {Fraction(total, d)}, not 1")


def transition_matrix(h: Hypergraph, policy: WalkPolicy) -> TransitionMatrix:
    """Build the exact transition kernel of a walk policy on ``h``.

    Every vertex must lie in some hyperedge. The uniform kernels are built
    in ints from the spectra's coincidence rows: the non-lazy kernel is A
    under the ``fullnorm`` weights, the lazy one Q under vertex weights
    1/deg(v) and hyperedge weights 1/|e|. For a custom policy the per-vertex
    edge choice and per-edge vertex choice must each be probability
    distributions; this is validated exactly and implies the rows sum to one.
    """
    _require_incident(h)
    if policy.is_uniform:
        lazy = policy.kind == UNIFORM_LAZY
        sizes = {e: len(ms) - (not lazy) for e, ms in h.hyperedges}
        if 0 in sizes.values():  # name the singleton in the star of the first vertex with one
            lone = next(e for u in h.vertices for e in h.star(u) if not sizes[e])
            raise SingletonEdgeNonLazyError(
                f"hyperedge {lone!r} has one member; a non-lazy step cannot leave it"
            )
        rows, d = _coincidence(h, {e: Fraction(1, k) for e, k in sizes.items()})
        degrees = [h.degree(u) for u in h.vertices]
        scale = math.lcm(*degrees)  # P[u][v] = C[u][v] / deg(u), C the coincidence rows
        rows = [[x * (scale // k) for x in row] for k, row in zip(degrees, rows)]
        if not lazy:
            for i, row in enumerate(rows):
                row[i] = 0
        matrix = RationalMatrix._trusted(h.vertices, h.vertices, rows, d * scale)
        return TransitionMatrix(source=h, policy=policy, matrix=matrix)
    if policy.kind != CUSTOM:
        raise ValueError(f"unknown policy kind {policy.kind!r}")
    if policy.edge_rule is None or policy.vertex_rule is None:
        raise ValueError("custom policies need both rules")
    vstates = h.vertices
    index = {v: i for i, v in enumerate(vstates)}
    rows = [[Fraction(0)] * len(vstates) for _ in vstates]
    for u in vstates:
        star = [e for e in h.edge_labels if e in h.star(u)]
        edge_choice = [rat(policy.edge_rule(u, e)) for e in star]
        _require_distribution(f"edge choice from {u!r}", star, *_integer_row(edge_choice))
        for e, r in zip(star, edge_choice):
            members = [v for v in vstates if v in h.members(e)]
            choice = [rat(policy.vertex_rule(u, e, v)) for v in members]
            _require_distribution(f"vertex choice within {e!r} from {u!r}", members, *_integer_row(choice))
            for v, s in zip(members, choice):
                rows[index[u]][index[v]] += r * s
    matrix = RationalMatrix.from_rows(vstates, vstates, rows)
    return TransitionMatrix(source=h, policy=policy, matrix=matrix)


def _initial_masses(tm: TransitionMatrix, init: Union[str, Mapping[str, Fraction]]) -> tuple[list[int], int]:
    """``init`` (a state or a distribution) as int masses in state order over one denominator."""
    if isinstance(init, str):
        _known([init], tm._index, "states")
        return [int(v == init) for v in tm.states], 1
    dist = {str(k): rat(v) for k, v in init.items()}
    _known(dist, tm._index, "states")
    masses, d = _integer_row([dist.get(v, Fraction(0)) for v in tm.states])
    _require_distribution("initial distribution", tm.states, masses, d)
    return masses, d


def step_distribution(
    tm: TransitionMatrix, init: Union[str, Mapping[str, Fraction]], t: int
) -> dict[str, Fraction]:
    """Exact distribution after ``t`` steps from ``init`` (a state or a distribution)."""
    t = _integer(t, "step count", 0, BadHorizonError)
    masses, d = _initial_masses(tm, init)
    for _ in range(t):
        masses = [sum(map(mul, masses, col)) for col in tm._columns]
    d *= tm.matrix.denominator**t
    return {v: Fraction(x, d) for v, x in zip(tm.states, masses)}


def _require_reachable(tm: TransitionMatrix, target: str) -> None:
    """Raise UnreachableError naming the states from which ``target`` cannot be reached."""
    cols, n = tm._columns, len(tm.states)
    # search backwards: the states u with P[u][v] > 0 are one hop from v
    reached = _hops(tm._index[target], lambda v: compress(range(n), cols[v]))
    missing = sorted(v for i, v in enumerate(tm.states) if i not in reached)
    if missing:
        raise UnreachableError(f"states cannot reach {target!r}: {missing}")


#: The target's own entry in hitting times: its return time, or zero.
SELF_TIMES = ("return", "zero")


def _check_self_time(self_time: str) -> None:
    """The one rule for the target's own entry: its return time, or zero."""
    if self_time not in SELF_TIMES:
        raise ValueError("self_time must be 'return' or 'zero'")


def hitting_times(
    tm: TransitionMatrix, target: str, self_time: str = "return"
) -> dict[str, Fraction]:
    """Expected number of steps to reach ``target`` from every state, exactly.

    Solves the linear system (Id - P') h = 1 over the non-target states,
    where P' deletes the target row and column, in integers as
    (D Id - M') h = D 1, by ``linalg._integer_solve`` (Dixon lifting from
    its size threshold, certified exact). The target's own entry is
    the expected first-return time 1 + sum_u P[target][u] h[u] by default;
    pass self_time="zero" for the convention that the target is already hit.

    Raises
    ------
    UnreachableError
        If some state cannot reach the target at all (the system would not
        determine finite values).
    """
    _known([target], tm._index, "states")
    _check_self_time(self_time)
    _require_reachable(tm, target)
    m, d = tm.matrix.numerators, tm.matrix.denominator
    t = tm._index[target]
    others = [i for i in range(len(tm.states)) if i != t]
    a = [[d * (i == j) - m[i][j] for j in others] + [d] for i in others]
    sol, last = _integer_solve(a, len(others))
    nums = [row[0] for row in sol]
    out = {tm.states[i]: Fraction(x, last) for i, x in zip(others, nums)}
    if self_time == "zero":
        out[target] = Fraction(0)
    else:
        back = sum(m[t][i] * x for i, x in zip(others, nums))
        out[target] = 1 + Fraction(back, d * last)
    return {v: out[v] for v in tm.states}


def first_hit_probabilities(
    tm: TransitionMatrix,
    target: str,
    horizon: int,
    init: Union[str, Mapping[str, Fraction]],
) -> list[Fraction]:
    """Exact probability of first reaching ``target`` at each step 1..horizon.

    Entry t is the probability that step t is the first visit (the first
    return, for mass starting on the target), so the entries sum to at most
    1. With the initial masses mu over d and the first-arrival masses F_t of
    ``_first_arrivals``, entry t is sum_u mu_u F_t[u] / (d D^t).
    """
    horizon = _integer(horizon, "horizon", 1, BadHorizonError)
    _known([target], tm._index, "states")
    masses, d = _initial_masses(tm, init)
    arrivals = _first_arrivals(tm.matrix.numerators, tm._index[target], horizon)
    scale = tm.matrix.denominator
    return [Fraction(sum(map(mul, masses, f)), d * scale**s) for s, f in enumerate(arrivals, 1)]


def _first_arrivals(m: Sequence[Sequence[int]], w: int, horizon: int) -> list[list[int]]:
    """F_1 .. F_horizon: with P = M / D (``m`` the rows of M), F_s[u] is D^s times the
    probability that the walk from u first reaches state index w at step s (a
    first return for u = w). F_1 is column w of M; F_(s+1) = M F_s', F_s' being
    F_s zeroed at w."""
    f = [row[w] for row in m]
    arrivals = [f]
    for _ in range(1, horizon):
        before = f.copy()
        before[w] = 0  # the walks that arrived at step s stop
        f = [sum(map(mul, row, before)) for row in m]
        arrivals.append(f)
    return arrivals


def verify_partition_transition(
    tm: TransitionMatrix, u_part, v_part
) -> bool:
    """Check the walk symmetry of an equal partition under a uniform policy.

    For every state w outside U and V, the one-step probability of entering
    U equals that of entering V, exactly: row w of M sums to the same
    integer over U as over V, since every row shares the denominator D.
    The columns of M are summed over U and over V once, then compared.
    """
    if not tm.policy.is_uniform:
        raise NotUniformPolicyError("the symmetry check applies to uniform policies")
    index = tm._index
    u_set, v_set = _check_disjoint(index, u_part, v_part, "states")
    zero = (0,) * len(index)
    into_u = list(map(sum, zip(zero, *(tm._columns[index[x]] for x in u_set))))
    into_v = list(map(sum, zip(zero, *(tm._columns[index[x]] for x in v_set))))
    for x in u_set | v_set:
        into_u[index[x]] = into_v[index[x]] = 0
    return into_u == into_v


# -- reproducible simulation -----------------------------------------------

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def _u64(x: int | np.ndarray) -> int | np.ndarray:
    """``x`` mod 2^64: an int masked, a numpy uint64 array as it is (its
    arithmetic wraps by itself). Numpy integer scalars and 0-d arrays become
    ints first, since their arithmetic warns on overflow."""
    if getattr(x, "ndim", 0):
        return x
    return _integer(x, "a SplitMix64 seed or index", error=TypeError) & _MASK64


def _mix64(z: int | np.ndarray) -> int | np.ndarray:
    """SplitMix64's output mix of an int below 2^64, or of each entry of a numpy
    uint64 array. Only an int needs masks; the first xor makes a new int or
    array, which the rounds after it update in place."""
    masked = isinstance(z, int)
    z = z ^ (z >> 30)
    for multiplier, shift in ((_MIX_A, 27), (_MIX_B, 31)):
        z *= multiplier
        if masked:
            z &= _MASK64
        z ^= z >> shift
    return z


class SplitMix64:
    """SplitMix64: state advances by the golden gamma, output is the mixed state.

    This is the standard generator (Steele, Lea, Flood 2014). With the same
    seed any implementation produces the same uint64 stream, which is what
    makes simulations comparable across runtimes. Seeded with a numpy
    uint64 array, it steps one generator per entry.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int | np.ndarray) -> None:
        self._state = _u64(seed)

    def next_u64(self) -> int | np.ndarray:
        self._state = _u64(self._state + _GAMMA)
        return _mix64(self._state)


def trajectory_seed(seed: int | np.ndarray, index: int | np.ndarray) -> int | np.ndarray:
    """Seed for trajectory ``index``: output index+1 of SplitMix64(seed).

    Equivalent closed form: mix64(seed + (index + 1) * gamma), an int for
    integer seed and index (numpy scalars included), or broadcast over
    uint64 arrays of either. Seeding each trajectory with a mixed output
    (rather than a raw offset) keeps the per-trajectory streams from
    overlapping.
    """
    offset = _u64((_u64(index) + 1) * _GAMMA)
    return _mix64(_u64(_u64(seed) + offset))


@dataclass
class SimulationResult:
    """Empirical summary of a batch of simulated trajectories."""

    trajectories: int
    steps: int
    seed: int
    visit_counts: dict[str, int]
    first_hits: dict[str, dict[int, int]] = field(repr=False)

    def hit_count(self, v: str) -> int:
        return sum(self.first_hits.get(v, {}).values())

    def unhit_count(self, v: str) -> int:
        return self.trajectories - self.hit_count(v)

    def first_hit_mean(self, v: str) -> float:
        """Mean first-arrival step over the trajectories that reached ``v``."""
        n = self.hit_count(v)
        if n == 0:
            raise ZeroDivisionError(f"no trajectory reached {v!r}")
        return sum(t * c for t, c in self.first_hits[v].items()) / n

    def first_hit_stderr(self, v: str) -> float:
        """Standard error of the first-arrival mean (sample variance, ddof=1)."""
        n = self.hit_count(v)
        if n < 2:
            raise ZeroDivisionError(f"need at least two hits at {v!r}")
        mean = self.first_hit_mean(v)
        var = sum(c * (t - mean) ** 2 for t, c in self.first_hits[v].items()) / (n - 1)
        return (var / n) ** 0.5

    def to_json_dict(self) -> dict:
        out = {
            "trajectories": self.trajectories,
            "steps": self.steps,
            "seed": self.seed,
            "visit_counts": dict(self.visit_counts),
            "first_hit": {},
        }
        for v in self.visit_counts:
            n = self.hit_count(v)
            entry = {"hits": n, "misses": self.trajectories - n}
            if n:
                entry["mean"] = self.first_hit_mean(v)
            out["first_hit"][v] = entry
        return out


#: Trajectories stepped together; bounds the simulator's working arrays.
_BLOCK = 4096
#: Steps whose draws are computed together, as one _CHUNK x _BLOCK array.
_CHUNK = 16

# numpy is imported on first use, so importing hyperlin does not load it.


def _threshold_table(
    rows: Sequence[Sequence[int]], denominator: int
) -> tuple[np.ndarray, np.ndarray]:
    """Integer thresholds for exact sampling with 64-bit draws, one row per mass row.

    Over its nonzero masses, row r leads to state k when the draw u satisfies
    u < ceil(c_k * 2^64 / denominator), c_k the masses summed through k; that
    is exact for integer draws. Each threshold is that bound - 1, so a bound
    of exactly 2^64 fits and u > bound - 1 is u >= bound; padding is
    2^64 - 1, which no draw exceeds.
    """
    import numpy as np

    width = max(sum(map(bool, row)) for row in rows)
    thresholds = np.full((len(rows), width), _MASK64, dtype=np.uint64)
    targets = np.zeros((len(rows), width), dtype=np.intp)
    for r, row in enumerate(rows):
        states = [i for i, x in enumerate(row) if x]
        cums = accumulate(row[i] for i in states)
        thresholds[r, : len(states)] = [-((-c << 64) // denominator) - 1 for c in cums]
        targets[r, : len(states)] = states
    return thresholds, targets


def _choose(
    draws: np.ndarray, rows: np.ndarray, thresholds: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """The state each draw selects from its table row: bisect_right on the bounds."""
    return targets[rows, (draws[:, None] > thresholds[rows]).sum(axis=1)]


def _bucket_table(
    thresholds: np.ndarray, targets: np.ndarray
) -> tuple[int, int, np.ndarray, np.ndarray, np.ndarray]:
    """A guide table that gives _choose's state from a draw's top bits.

    With 2^K buckets (the least power of two >= 4 * width), draw u falls in
    bucket u >> (64 - K), and bisect_right on a row's thresholds counts
    those in earlier buckets plus those in u's bucket below u. Thresholds
    of 2^64 - 1 (the last and the padding) are below no draw and are not
    counted. Slot row * 2^K + bucket keeps the bucket's one threshold as its
    split (2^64 - 1 when it holds none), the states below and above it as
    two picks, and whether the bucket holds two or more thresholds, which
    marks it for _choose.

    Returns (shift, row_bits, splits, picks, marked): draw u from state s
    reads slot (s << row_bits) + (u >> shift) and goes to
    picks[(slot << 1) + (u > splits[slot])] unless marked[slot].
    """
    import numpy as np

    rows, width = thresholds.shape
    bits = (4 * width - 1).bit_length()
    r, w = np.nonzero(thresholds != _MASK64)
    bounds = thresholds[r, w]
    slots = (r << bits) + (bounds >> (64 - bits)).astype(np.intp)
    counts = np.bincount(slots, minlength=rows << bits)
    marked = counts > 1
    below = np.cumsum(counts.reshape(rows, -1), axis=1)
    below -= counts.reshape(rows, -1)
    del counts  # this and the in-place updates of below keep a dense table's build peak low
    picks = np.empty((rows, 1 << bits, 2), dtype=np.intp)
    picks[..., 0] = np.take_along_axis(targets, below, axis=1)
    np.minimum(below + 1, width - 1, out=below)
    picks[..., 1] = np.take_along_axis(targets, below, axis=1)
    splits = np.full(rows << bits, _MASK64, dtype=np.uint64)
    splits[slots] = bounds
    return 64 - bits, bits, splits, picks.reshape(-1), marked


def simulate(
    tm: TransitionMatrix,
    init: Union[str, Mapping[str, Fraction]],
    steps: int,
    trajectories: int,
    seed: int,
) -> SimulationResult:
    """Run seeded trajectories and tally visits and first arrivals.

    Trajectory i uses its own SplitMix64 generator seeded via
    trajectory_seed(seed, i), so results do not depend on scheduling and a
    batch can be reproduced or parallelized freely. Visits count states
    X_0 .. X_steps; the first-hit table records the first step t >= 1 with
    X_t = v (a first return when v is the start).

    Trajectories are stepped together in blocks, each generator a uint64
    array entry, with a chunk of steps' draws computed at once; each step
    looks its draws up in a bucket table. A walker carries its state as
    the first of its bucket table's doubled slots, state << (row_bits + 1),
    so a step adds the draw's doubled bucket, adds 1 when the draw passes
    the slot's split and reads the next doubled slot from the pre-shifted
    picks. First arrivals are recorded once per chunk, by one scatter of
    the least step into the chunk's (trajectory, state) cells, which hold
    steps + 1 until hit. Each block's first-hit tables come from one tally
    of the codes v * (steps + 1) + t: their counts, and the first
    trajectory of each, which orders a state's keys as one trajectory at a
    time meets them. The draws and the tables equal those of one
    trajectory at a time.
    """
    import numpy as np

    steps = _integer(steps, "steps", 0, BadHorizonError)
    trajectories = _integer(trajectories, "trajectories", 1, BadHorizonError)
    seed = _integer(seed, "seed", error=TypeError)
    masses, denom = _initial_masses(tm, init)
    states = tm.states
    n = len(states)
    init_table = _threshold_table([masses], denom)
    row_table = _threshold_table(tm.matrix.numerators, tm.matrix.denominator)
    shift, row_bits, splits, picks, marked = _bucket_table(*row_table)
    up = row_bits + 1  # a state s is carried as its first doubled slot, s << up
    picks <<= up
    splits = np.repeat(splits, 2)  # doubled slot (slot << 1) + b reads slot's split and mark
    marked = np.repeat(marked, 2)
    fallback = bool(marked.any())
    visits = np.zeros(n, dtype=np.int64)
    first_hits: list[dict[int, int]] = [dict() for _ in states]
    # a chunk's doubled slots and its (trajectory, state) cells, step by step
    path = np.empty((_CHUNK, min(_BLOCK, trajectories)), dtype=np.intp)
    arrivals = np.empty_like(path)
    for start in range(0, trajectories, _BLOCK):
        size = min(_BLOCK, trajectories - start)
        seeds = trajectory_seed(seed, np.arange(start, start + size, dtype=np.uint64))
        # draw t + 1 of trajectory i, SplitMix64(seeds[i])'s output t + 1, is
        # trajectory_seed(seeds[i], t): X_0 takes draw 1 and step t draw t + 1
        cur = _choose(trajectory_seed(seeds, 0), np.zeros(size, dtype=np.intp), *init_table)
        visits += np.bincount(cur, minlength=n)
        cur <<= up
        # first[i, v]: the step trajectory i first reached v; steps + 1 while it has not
        first = np.full((size, n), steps + 1, dtype=np.int64)
        cells = first.reshape(-1)
        base = np.arange(size) * n
        for t0 in range(1, steps + 1, _CHUNK):
            ts = np.arange(t0, min(t0 + _CHUNK, steps + 1), dtype=np.uint64)
            draws = trajectory_seed(seeds, ts[:, None])
            buckets = (draws >> shift).astype(np.intp) << 1
            chunk = path[: len(ts), :size]
            for step, drawn, bucket in zip(chunk, draws, buckets):
                slot = cur + bucket
                slot += drawn > splits.take(slot)
                cur = picks.take(slot, out=step)
                if fallback:
                    many = marked.take(slot)
                    cur[many] = _choose(drawn[many], slot[many] >> up, *row_table) << up
            keys = arrivals[: len(ts), :size]
            np.right_shift(chunk, up, out=keys)
            visits += np.bincount(keys.reshape(-1), minlength=n)
            keys += base
            np.minimum.at(cells, keys.reshape(-1), np.repeat(ts.astype(np.int64), size))
        # one tally per block: the codes' counts and first trajectories, in
        # state order and, within a state, by first trajectory. Its bins are
        # every code while they are no more than the block's cells, else the
        # codes met, so its memory stays within that of ``first``.
        hit, v = np.nonzero(first <= steps)
        codes = v * (steps + 1) + first[hit, v]
        if steps < size:
            bins = np.arange(n * (steps + 1))
        else:
            bins, codes = np.unique(codes, return_inverse=True)
        counts = np.bincount(codes, minlength=bins.size)
        lead = np.full(bins.size, size)
        np.minimum.at(lead, codes, hit)
        found = np.flatnonzero(counts)
        v, t = np.divmod(bins[found], steps + 1)
        order = np.lexsort((lead[found], v))
        ends = np.bincount(v, minlength=n).cumsum().tolist()
        times, counts = t[order].tolist(), counts[found[order]].tolist()
        for table, a, b in zip(first_hits, [0, *ends], ends):
            table.update({t: table.get(t, 0) + c for t, c in zip(times[a:b], counts[a:b])})
    return SimulationResult(
        trajectories=trajectories,
        steps=steps,
        seed=seed,
        visit_counts=dict(zip(states, visits.tolist())),
        first_hits=dict(zip(states, first_hits)),
    )
