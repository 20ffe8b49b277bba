"""Walk policies, exact hitting times, first-hit laws, seeded simulation."""

import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hyperlin import (
    Hypergraph,
    RationalMatrix,
    TransitionMatrix,
    WalkPolicy,
    first_hit_probabilities,
    hitting_times,
    rw_betweenness,
    simulate,
    step_distribution,
    transition_matrix,
    verify_partition_transition,
)
from hyperlin.errors import (
    BadDistributionError,
    BadHorizonError,
    IsolatedVertexError,
    NotUniformPolicyError,
    SingletonEdgeNonLazyError,
    UnknownLabelError,
    UnreachableError,
)
from hyperlin.randwalk import SplitMix64, _threshold_table, trajectory_seed
from hyperlin import fixtures as fx
from hyperlin.fixtures import _FIXTURE_BUILDERS
from hyperlin.spectra import WeightScheme, build_A, build_Q, fully_normalized_weights
from conftest import random_hypergraph
from fraction_oracles import _cumulative_table


def _triangle():
    return Hypergraph.from_members([("e", ["a", "b", "c"])])


def test_nonlazy_rows_on_a_single_edge():
    tm = transition_matrix(_triangle(), WalkPolicy.uniform_nonlazy())
    assert tm.matrix.row("a") == {
        "a": Fraction(0),
        "b": Fraction(1, 2),
        "c": Fraction(1, 2),
    }


def test_lazy_rows_on_a_single_edge():
    tm = transition_matrix(_triangle(), WalkPolicy.uniform_lazy())
    assert tm.matrix.row("a") == {
        "a": Fraction(1, 3),
        "b": Fraction(1, 3),
        "c": Fraction(1, 3),
    }


def test_rows_are_stochastic_on_fixtures():
    for h in (fx.hub_cycle(), fx.unit_blocks(), fx.balanced_overlap()):
        for policy in (WalkPolicy.uniform_nonlazy(), WalkPolicy.uniform_lazy()):
            tm = transition_matrix(h, policy)
            for u in h.vertices:
                assert sum(tm.matrix.row(u).values()) == 1


def test_nonlazy_walk_equals_normalized_adjacency():
    """P[u][v] = sum over shared edges of 1/|E_u| * 1/(|e|-1), zero diagonal."""
    for h in (fx.hub_cycle(), fx.unit_blocks()):
        tm = transition_matrix(h, WalkPolicy.uniform_nonlazy())
        for u in h.vertices:
            row = tm.matrix.row(u)
            assert row[u] == 0
            for v in h.vertices:
                if v == u:
                    continue
                expected = sum(
                    (
                        Fraction(1, h.degree(u)) * Fraction(1, len(h.members(e)) - 1)
                        for e in h.star(u)
                        if v in h.members(e)
                    ),
                    Fraction(0),
                )
                assert row[v] == expected


def test_isolated_vertices_cannot_walk():
    h = Hypergraph.from_members([("e", ["a", "b"])], vertices=["a", "b", "c"])
    with pytest.raises(IsolatedVertexError):
        transition_matrix(h, WalkPolicy.uniform_nonlazy())


def test_nonlazy_rejects_singleton_edges():
    with pytest.raises(SingletonEdgeNonLazyError):
        transition_matrix(fx.nested_chain(3), WalkPolicy.uniform_nonlazy())
    # the lazy walk is fine with them: the walker just stays put
    tm = transition_matrix(fx.nested_chain(3), WalkPolicy.uniform_lazy())
    assert tm.matrix.row("1")["1"] > 0


def test_custom_policy_validation():
    h = _triangle()
    bad = WalkPolicy.custom(
        edge_rule=lambda u, e: Fraction(1),
        vertex_rule=lambda u, e, v: Fraction(2) if v == "b" else Fraction(0),
    )
    with pytest.raises(BadDistributionError):
        transition_matrix(h, bad)


def _raised(h, policy):
    with pytest.raises(Exception) as info:
        transition_matrix(h, policy)
    return type(info.value), str(info.value)


def test_singleton_edge_message_names_the_first_vertex_s_edge():
    # s2 (sa) lies in the star of a, which precedes c (and s1, sc) in vertex order
    cases = [
        (Hypergraph.from_members([("e1", ["a", "b"]), ("s1", ["c"]), ("s2", ["a"])]), "s2"),
        (
            Hypergraph.from_members(
                [("sc", ["c"]), ("sa", ["a"]), ("e", ["a", "b", "c"])], vertices=["a", "b", "c"]
            ),
            "sa",
        ),
    ]
    for h, lone in cases:
        assert _raised(h, WalkPolicy.uniform_nonlazy()) == (
            SingletonEdgeNonLazyError,
            f"hyperedge {lone!r} has one member; a non-lazy step cannot leave it",
        )


def test_uniform_kernels_are_the_weighted_a_and_q():
    """Non-lazy P is A under fullnorm weights; lazy P is Q under vertex
    weights 1/deg(v) and hyperedge weights 1/|e|, wherever each builds."""
    inputs = [build() for build in _FIXTURE_BUILDERS.values()]
    inputs += [random_hypergraph(random.Random(seed)) for seed in range(400)]
    built = {"lazy": 0, "nonlazy": 0}
    for h in inputs:
        if any(h.degree(v) == 0 for v in h.vertices):
            continue
        lazy = transition_matrix(h, WalkPolicy.uniform_lazy()).matrix
        w = WeightScheme(
            "walk",
            {v: Fraction(1, h.degree(v)) for v in h.vertices},
            {e: Fraction(1, len(ms)) for e, ms in h.hyperedges},
        )
        assert lazy == build_Q(h, w)
        built["lazy"] += 1
        if all(len(ms) > 1 for _, ms in h.hyperedges):
            nonlazy = transition_matrix(h, WalkPolicy.uniform_nonlazy()).matrix
            assert nonlazy == build_A(h, fully_normalized_weights(h))
            built["nonlazy"] += 1
    assert min(built.values()) >= 40


def test_isolated_vertex_message_names_the_first_one_before_any_singleton():
    h = Hypergraph.from_members(
        [("s", ["a"]), ("e", ["a", "b"])], vertices=["a", "c", "b", "d"]
    )
    for policy in (WalkPolicy.uniform_nonlazy(), WalkPolicy.uniform_lazy()):
        assert _raised(h, policy) == (
            IsolatedVertexError, "vertex 'c' has no incident hyperedge"
        )


def _rules(edge, vertex):
    return WalkPolicy.custom(edge_rule=edge, vertex_rule=vertex)


HALF = Fraction(1, 2)
CUSTOM_POLICY_ERRORS = [
    (
        _rules(lambda u, e: -1 if (u, e) == ("b", "f") else 1, lambda u, e, v: HALF),
        "edge choice from 'b' has entry -1 at 'f', below 0",
    ),
    (
        _rules(lambda u, e: 1, lambda u, e, v: -HALF if v == "c" else HALF),
        "vertex choice within 'e' from 'a' has entry -1/2 at 'c', below 0",
    ),
    (
        _rules(lambda u, e: 1, lambda u, e, v: Fraction(1, 3)),
        "vertex choice within 'e' from 'a' sums to 2/3, not 1",
    ),
    (
        _rules(lambda u, e: Fraction(1, 3), lambda u, e, v: HALF),
        "edge choice from 'a' sums to 1/3, not 1",
    ),
]


@pytest.mark.parametrize("policy, message", CUSTOM_POLICY_ERRORS)
def test_custom_policy_error_messages(policy, message):
    h = Hypergraph.from_members(
        [("e", ["a", "c"]), ("f", ["b", "c"])], vertices=["a", "b", "c"]
    )
    assert _raised(h, policy) == (BadDistributionError, message)


def test_a_custom_policy_calls_every_edge_rule_of_a_vertex_before_its_vertex_rules():
    h = Hypergraph.from_members([("e", ["a", "b"]), ("f", ["a", "c"])])
    calls = []

    def edge(u, e):
        calls.append(("edge", u, e))
        return Fraction(1, h.degree(u))

    def vertex(u, e, v):
        calls.append(("vertex", u, e, v))
        return HALF

    transition_matrix(h, _rules(edge, vertex))
    assert calls[:6] == [
        ("edge", "a", "e"),
        ("edge", "a", "f"),
        ("vertex", "a", "e", "a"),
        ("vertex", "a", "e", "b"),
        ("vertex", "a", "f", "a"),
        ("vertex", "a", "f", "c"),
    ]


INITIAL_DISTRIBUTION_ERRORS = [
    ({"a": Fraction(3, 2), "c": -HALF}, "initial distribution has entry -1/2 at 'c', below 0"),
    ({"a": HALF, "b": Fraction(1, 3)}, "initial distribution sums to 5/6, not 1"),
]


@pytest.mark.parametrize("init, message", INITIAL_DISTRIBUTION_ERRORS)
def test_every_walk_function_names_a_bad_initial_distribution(init, message):
    tm = transition_matrix(_triangle(), WalkPolicy.uniform_nonlazy())
    calls = [
        lambda: step_distribution(tm, init, 2),
        lambda: first_hit_probabilities(tm, "c", 3, init),
        lambda: simulate(tm, init, 2, 10, 1),
    ]
    for call in calls:
        with pytest.raises(BadDistributionError) as info:
            call()
        assert str(info.value) == message


PAIR = Hypergraph.from_members([("e", ["a", "b"])])
HAND_BUILT_ERRORS = [
    (
        ("a", "b"), ("a", "b"), [[Fraction(3, 2), -HALF], [HALF, HALF]],
        BadDistributionError, "row 'a' has entry -1/2 at 'b', below 0",
    ),
    (
        ("a", "b"), ("a", "b"), [[HALF, HALF], [Fraction(1, 3), Fraction(1, 3)]],
        BadDistributionError, "row 'b' sums to 2/3, not 1",
    ),
    (
        ("a", "x"), ("a", "x"), [[HALF, HALF], [HALF, HALF]],
        UnknownLabelError,
        "transition matrix rows ['a', 'x'] and columns ['a', 'x'] "
        "are not the vertices ['a', 'b'] in order",
    ),
    (
        ("b", "a"), ("b", "a"), [[HALF, HALF], [HALF, HALF]],
        UnknownLabelError,
        "transition matrix rows ['b', 'a'] and columns ['b', 'a'] "
        "are not the vertices ['a', 'b'] in order",
    ),
    (
        ("a", "b"), ("b", "a"), [[HALF, HALF], [HALF, HALF]],
        UnknownLabelError,
        "transition matrix rows ['a', 'b'] and columns ['b', 'a'] "
        "are not the vertices ['a', 'b'] in order",
    ),
    (
        ("a", "b"), ("a",), [[1], [1]],
        UnknownLabelError,
        "transition matrix rows ['a', 'b'] and columns ['a'] "
        "are not the vertices ['a', 'b'] in order",
    ),
]


@pytest.mark.parametrize("rows, cols, entries, error, message", HAND_BUILT_ERRORS)
def test_hand_built_kernels_are_validated(rows, cols, entries, error, message):
    """A kernel that is not stochastic on the source's vertices never reaches
    the walk functions (a negative entry used to give negative first-hit
    probabilities and a substochastic row crashed the simulator)."""
    matrix = RationalMatrix.from_rows(rows, cols, entries)
    with pytest.raises(Exception) as info:
        TransitionMatrix(source=PAIR, policy=WalkPolicy.uniform_lazy(), matrix=matrix)
    assert (type(info.value), str(info.value)) == (error, message)


def test_step_distribution_conserves_mass():
    tm = transition_matrix(fx.hub_cycle(), WalkPolicy.uniform_nonlazy())
    for t in range(5):
        dist = step_distribution(tm, "1", t)
        assert sum(dist.values()) == 1


def test_hitting_times_single_edge():
    tm = transition_matrix(_triangle(), WalkPolicy.uniform_nonlazy())
    times = hitting_times(tm, "c")
    assert times["a"] == 2
    assert times["b"] == 2
    tm_lazy = transition_matrix(_triangle(), WalkPolicy.uniform_lazy())
    assert hitting_times(tm_lazy, "c")["a"] == 3


def test_hitting_times_hub_cycle_frozen():
    """Values cross-checked by an independent stdlib-random simulation."""
    h = fx.hub_cycle()
    tm = transition_matrix(h, WalkPolicy.uniform_nonlazy())
    assert hitting_times(tm, "5") == {
        "1": Fraction(11, 4),
        "2": Fraction(11, 4),
        "3": Fraction(9, 4),
        "4": Fraction(9, 4),
        "5": Fraction(7, 2),
    }
    tm_lazy = transition_matrix(h, WalkPolicy.uniform_lazy())
    assert hitting_times(tm_lazy, "5") == {
        "1": Fraction(33, 8),
        "2": Fraction(33, 8),
        "3": Fraction(27, 8),
        "4": Fraction(27, 8),
        "5": Fraction(7, 2),
    }


def test_hitting_time_self_conventions():
    tm = transition_matrix(_triangle(), WalkPolicy.uniform_nonlazy())
    ret = hitting_times(tm, "c", self_time="return")
    assert ret["c"] == 3  # stationary is uniform on three vertices
    zero = hitting_times(tm, "c", self_time="zero")
    assert zero["c"] == 0
    assert zero["a"] == ret["a"]


def test_hitting_times_unreachable_target():
    h = Hypergraph.from_members([("e1", ["a", "b"]), ("e2", ["c", "d"])])
    tm = transition_matrix(h, WalkPolicy.uniform_nonlazy())
    with pytest.raises(UnreachableError):
        hitting_times(tm, "c")


def _closure_message(states, rows, target):
    """The UnreachableError message read off the transitive closure of the
    kernel's support, or None when every state reaches ``target``."""
    n = len(states)
    reach = [[i == j or rows[i][j] != 0 for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                reach[i] = [a or b for a, b in zip(reach[i], reach[k])]
    t = states.index(target)
    missing = sorted(s for i, s in enumerate(states) if not reach[i][t])
    return f"states cannot reach {target!r}: {missing}" if missing else None


def test_unreachable_message_follows_the_closure_of_the_kernel_support():
    rng = random.Random(22)
    raised = 0
    for _ in range(300):
        states = rng.sample("abcdfghi", rng.randint(2, 7))  # "e" labels the one hyperedge
        rows = []
        for _ in states:
            weights = [rng.choice((0, 0, 1, 2)) for _ in states]
            if not any(weights):
                weights[rng.randrange(len(states))] = 1
            rows.append([Fraction(w, sum(weights)) for w in weights])
        tm = TransitionMatrix(
            source=Hypergraph.from_members([("e", states)], vertices=states),
            policy=WalkPolicy.uniform_lazy(),
            matrix=RationalMatrix.from_rows(states, states, rows),
        )
        for target in states:
            expected = _closure_message(states, rows, target)
            if expected is None:
                hitting_times(tm, target)
                continue
            with pytest.raises(UnreachableError) as info:
                hitting_times(tm, target)
            assert str(info.value) == expected
            raised += 1
    assert raised > 100


def test_first_hit_law_is_geometric_on_a_single_edge():
    tm = transition_matrix(_triangle(), WalkPolicy.uniform_nonlazy())
    dist = first_hit_probabilities(tm, "c", 8, "a")
    assert dist == [Fraction(1, 2 ** t) for t in range(1, 9)]
    assert sum(dist) < 1


def test_first_hit_distribution_mean_matches_hitting_time():
    h = fx.hub_cycle()
    tm = transition_matrix(h, WalkPolicy.uniform_nonlazy())
    horizon = 220
    dist = first_hit_probabilities(tm, "5", horizon, "1")
    mean_lower = sum(Fraction(t) * p for t, p in enumerate(dist, start=1))
    tail = 1 - sum(dist)
    assert tail < Fraction(1, 10 ** 12)
    exact = hitting_times(tm, "5")["1"]
    assert abs(float(mean_lower) - float(exact)) < 1e-9


def test_first_hit_rejects_bad_horizon():
    tm = transition_matrix(_triangle(), WalkPolicy.uniform_nonlazy())
    with pytest.raises(BadHorizonError):
        first_hit_probabilities(tm, "c", 0, "a")


BAD_COUNTS = [True, False, 2.0, 2.5, "3", None, -1]


@pytest.mark.parametrize("bad", BAD_COUNTS)
def test_step_counts_are_ints_not_bools(bad):
    """Steps, trajectories, horizons and t share one check: a bool or a
    non-int is a BadHorizonError, never a count of 1 or a TypeError."""
    tm = transition_matrix(_triangle(), WalkPolicy.uniform_nonlazy())
    calls = [
        lambda: simulate(tm, "a", bad, 10, 1),
        lambda: simulate(tm, "a", 2, bad, 1),
        lambda: step_distribution(tm, "a", bad),
        lambda: first_hit_probabilities(tm, "c", bad, "a"),
        lambda: rw_betweenness(tm, bad),
    ]
    for call in calls:
        with pytest.raises(BadHorizonError):
            call()


@pytest.mark.parametrize("bad", [True, 1.0, "1", None])
def test_a_seed_that_is_not_an_int_is_a_type_error(bad):
    tm = transition_matrix(_triangle(), WalkPolicy.uniform_nonlazy())
    with pytest.raises(TypeError, match="seed"):
        simulate(tm, "a", 2, 10, bad)


def test_partition_transition_balance():
    h = fx.hub_cycle()
    tm = transition_matrix(h, WalkPolicy.uniform_nonlazy())
    assert verify_partition_transition(tm, ["1", "3"], ["2", "4"])
    assert not verify_partition_transition(tm, ["1"], ["3"])


def test_partition_transition_accepts_both_uniform_policies():
    h = fx.hub_cycle()
    tm_lazy = transition_matrix(h, WalkPolicy.uniform_lazy())
    assert verify_partition_transition(tm_lazy, ["1", "3"], ["2", "4"])


def test_partition_transition_rejects_custom_policies():
    h = _triangle()
    nonlazy_by_hand = WalkPolicy.custom(
        edge_rule=lambda u, e: Fraction(1),
        vertex_rule=lambda u, e, v: Fraction(0) if v == u else Fraction(1, 2),
    )
    tm = transition_matrix(h, nonlazy_by_hand)
    with pytest.raises(NotUniformPolicyError):
        verify_partition_transition(tm, ["a"], ["b"])


def test_splitmix64_reference_stream():
    """First outputs from seed 0 in the published reference implementation."""
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_steps_a_uint64_block_like_the_reference():
    g = SplitMix64(np.zeros(2, dtype=np.uint64))
    firsts = g.next_u64()
    assert firsts.dtype == np.uint64
    assert firsts.tolist() == [0xE220A8397B1DCDAF] * 2
    assert g.next_u64().tolist() == [0x6E789E6AA1B965F4] * 2
    assert g.next_u64().tolist() == [0x06C45D188009454F] * 2


def test_trajectory_seeds_are_distinct():
    seeds = {trajectory_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000


@pytest.mark.parametrize("seed", [42, -1, 2**64 + 7])
def test_trajectory_seed_is_the_reference_output(seed):
    rng = SplitMix64(seed)
    assert [trajectory_seed(seed, i) for i in range(3)] == [rng.next_u64() for _ in range(3)]


@pytest.mark.parametrize(
    "seed, index",
    [
        (np.uint64(3), np.uint64(5)),
        (np.array(3, dtype=np.uint64), np.array(5, dtype=np.uint64)),
        (np.int64(3), 5),
        (3, np.uint8(5)),
        (np.uint64(2**64 - 1), np.int64(9)),
        (np.int64(-1), np.array(7, dtype=np.int64)),
    ],
    ids=["uint64", "0-d", "int64-seed", "uint8-index", "wrapping", "negative-0-d"],
)
def test_trajectory_seed_of_numpy_scalars_is_the_int_result(seed, index):
    """Numpy integer scalars and 0-d arrays wrap mod 2^64 like ints, with no
    overflow warning, and give the same int as int arguments."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = trajectory_seed(seed, index)
        rng = SplitMix64(seed)
        for _ in range(int(index) + 1):
            draw = rng.next_u64()
    want = trajectory_seed(int(seed), int(index))
    assert type(got) is int and got == want
    assert type(draw) is int and draw == want


def test_cumulative_table_thresholds():
    """The oracle's Fraction bounds, less one, are the simulator's integer thresholds."""
    labels = ("a", "b", "c")
    probs = {"a": Fraction(0), "b": Fraction(1, 2), "c": Fraction(1, 2)}
    boundaries, states = _cumulative_table(labels, probs)
    assert boundaries == [2**63, 2**64]
    # a zero-probability label never owns a slice of the integer range
    assert states == [1, 2]
    thresholds, targets = _threshold_table([[0, 1, 1]], 2)
    assert thresholds.tolist() == [[2**63 - 1, 2**64 - 1]]
    assert targets.tolist() == [[1, 2]]


def test_threshold_table_rounds_up_and_pads():
    thresholds, targets = _threshold_table([[1, 2, 0], [0, 0, 3]], 3)
    # ceil(2^64 / 3) - 1, then 2^64 - 1; the one-state row is padded with 2^64 - 1
    assert thresholds.tolist() == [[2**64 // 3, 2**64 - 1], [2**64 - 1, 2**64 - 1]]
    assert targets.tolist() == [[0, 1], [2, 0]]


def test_simulation_is_deterministic_and_consistent():
    tm = transition_matrix(_triangle(), WalkPolicy.uniform_nonlazy())
    a = simulate(tm, "a", steps=40, trajectories=300, seed=7)
    b = simulate(tm, "a", steps=40, trajectories=300, seed=7)
    assert a.visit_counts == b.visit_counts
    assert a.first_hits == b.first_hits
    c = simulate(tm, "a", steps=40, trajectories=300, seed=8)
    assert c.visit_counts != a.visit_counts
    total_visits = sum(a.visit_counts.values())
    assert total_visits == 300 * 41  # the start counts at step zero


def test_simulation_mean_matches_exact_hitting_time():
    tm = transition_matrix(_triangle(), WalkPolicy.uniform_nonlazy())
    sim = simulate(tm, "a", steps=120, trajectories=4000, seed=123)
    assert sim.hit_count("c") == 4000
    mean = sim.first_hit_mean("c")
    spread = sim.first_hit_stderr("c")
    assert abs(mean - 2.0) < 3 * spread


def test_first_hits_use_arrival_steps_not_start():
    tm = transition_matrix(_triangle(), WalkPolicy.uniform_nonlazy())
    sim = simulate(tm, "a", steps=30, trajectories=100, seed=5)
    # the walk starts at a, so a's own first hit is its first return
    assert all(t >= 1 for t in sim.first_hits["a"])
    assert all(t >= 1 for t in sim.first_hits["c"])
