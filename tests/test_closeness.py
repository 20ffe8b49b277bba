"""Random-walk closeness from one inverse equals one solve per target.

``rw_closeness`` sums every target's hitting times from a single integer
Gauss-Jordan. These tests compare it, values and key order, with the
Fraction oracle built from per-target hitting times on generated lazy,
non-lazy and custom kernels, and check that chains which are not
irreducible (the solve is singular, or a stationary weight is not
positive) raise the first target's ``UnreachableError`` of the per-target
solves, found by a reachability test and not by solving. None of the checks is an ``assert`` inside
the library, so they also hold under ``python -O``. The pivot d of that
Gauss-Jordan is pinned, and so is the fact that only the ratios of X, d
and w matter, so a later solver may return any nonzero common denominator.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import fraction_oracles as oracle
from conftest import random_hypergraph
from hyperlin import Hypergraph, WalkPolicy, centrality, checks, hitting_times, randwalk, rw_closeness, transition_matrix
from hyperlin.errors import SingletonEdgeNonLazyError, TooSmallError, UnreachableError
from hyperlin.linalg import RationalMatrix, determinant
from hyperlin.structures import Unit, UnitDecomposition, units
from hyperlin import fixtures as fx
from test_kernel import KERNEL, UNEQUAL_TM, kernels

SELF_TIMES = ["return", "zero"]


def _per_target_error(tm, self_time) -> str:
    """The message of the first UnreachableError of the per-target solves."""
    for v in tm.states:
        try:
            hitting_times(tm, v, self_time=self_time)
        except UnreachableError as exc:
            return str(exc)
    raise AssertionError("every target is reachable")


def _assert_matches_oracle(tm, self_time):
    expected = oracle.rw_closeness([list(r) for r in tm.matrix.entries], self_time)
    if expected is None:
        with pytest.raises(UnreachableError) as info:
            rw_closeness(tm, self_time)
        assert str(info.value) == _per_target_error(tm, self_time)
    else:
        rep = rw_closeness(tm, self_time)
        assert list(rep.values.items()) == list(zip(tm.states, expected))
        assert rep.parameters == {"policy": tm.policy.kind, "self_time": self_time}


def _weighted(h: Hypergraph, edge_w: dict, vertex_w: dict) -> WalkPolicy:
    """A custom policy from nonnegative integer weights; missing ones are zero."""

    def edge_rule(u, e):
        return Fraction(edge_w.get((u, e), 1), sum(edge_w.get((u, x), 1) for x in h.star(u)))

    def vertex_rule(u, e, v):
        total = sum(vertex_w.get((u, e, x), 0) for x in h.members(e))
        return Fraction(vertex_w.get((u, e, v), 0), total)

    return WalkPolicy.custom(edge_rule, vertex_rule)


PATH = Hypergraph.from_members([("e0", ["a", "b"]), ("e1", ["b", "c"])])
#: c keeps the walk once it arrives; with a as the reference state the
#: inverse over {b, c} is singular.
ABSORBED_AT_C = transition_matrix(
    PATH,
    _weighted(
        PATH,
        {},
        {("a", "e0", "b"): 1, ("b", "e0", "a"): 1, ("b", "e1", "c"): 1, ("c", "e1", "c"): 1},
    ),
)
#: a keeps the walk once it arrives; with a as the reference state the
#: solve is regular, but no weight reaches b or c from a.
ABSORBED_AT_A = transition_matrix(
    PATH,
    _weighted(
        PATH,
        {},
        {("a", "e0", "a"): 1, ("b", "e0", "a"): 1, ("b", "e1", "c"): 1, ("c", "e1", "b"): 1},
    ),
)
ONE_VERTEX = transition_matrix(
    Hypergraph.from_members([("e", ["a"])]), WalkPolicy.uniform_lazy()
)
TWO_COMPONENTS = transition_matrix(
    Hypergraph.from_members([("e0", ["a", "b"]), ("e1", ["c", "d"])]), WalkPolicy.uniform_lazy()
)


@KERNEL
@given(kernels(), st.sampled_from(SELF_TIMES))
@example(UNEQUAL_TM, "return")
@example(UNEQUAL_TM, "zero")
@example(ONE_VERTEX, "return")
def test_rw_closeness_matches_per_target_fraction_solves(tm, self_time):
    if len(tm.states) == 1 and self_time == "zero":
        with pytest.raises(TooSmallError):
            rw_closeness(tm, self_time)
    else:
        _assert_matches_oracle(tm, self_time)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("self_time", SELF_TIMES)
def test_rw_closeness_matches_per_target_solves_on_larger_hypergraphs(seed, self_time):
    h = random_hypergraph(random.Random(seed), max_vertices=14, max_edges=14)
    covered = [v for v in h.vertices if h.degree(v)]
    h = Hypergraph.from_members(list(h.hyperedges), vertices=covered)
    tm = transition_matrix(h, WalkPolicy.uniform_lazy())
    _assert_matches_oracle(tm, self_time)


def test_a_single_lazy_vertex_returns_in_one_step():
    assert rw_closeness(ONE_VERTEX).values == {"a": Fraction(1)}
    with pytest.raises(TooSmallError):
        rw_closeness(ONE_VERTEX, "zero")


@pytest.mark.parametrize("tm", [TWO_COMPONENTS, ABSORBED_AT_C, ABSORBED_AT_A])
@pytest.mark.parametrize("self_time", SELF_TIMES)
def test_chains_that_are_not_irreducible_raise_the_per_target_error(tm, self_time):
    with pytest.raises(UnreachableError) as info:
        rw_closeness(tm, self_time)
    assert str(info.value) == _per_target_error(tm, self_time)


def test_both_fallback_guards_are_reached():
    # singular solve, and a regular solve with a zero stationary weight
    assert centrality._closeness_from_one_inverse(ABSORBED_AT_C, "return") is None
    assert centrality._closeness_from_one_inverse(ABSORBED_AT_A, "return") is None


@pytest.mark.parametrize("policy", [WalkPolicy.uniform_nonlazy(), WalkPolicy.uniform_lazy()])
def test_irreducible_chains_take_no_per_target_solve(monkeypatch, policy):
    h = fx.unit_blocks()
    tm = transition_matrix(h, policy)
    want = [rw_closeness(tm, s).values for s in SELF_TIMES]

    def refuse(*args, **kwargs):
        raise AssertionError("per-target fallback on an irreducible chain")

    monkeypatch.setattr(centrality, "_require_reachable", refuse)
    assert [rw_closeness(tm, s).values for s in SELF_TIMES] == want
    monkeypatch.undo()
    n = h.n_vertices
    for s, values in zip(SELF_TIMES, want):
        sums = {v: sum(hitting_times(tm, v, self_time=s).values(), Fraction(0)) for v in h.vertices}
        assert values == {v: Fraction(n) / sums[v] for v in h.vertices}


def test_a_chain_that_is_not_irreducible_takes_one_solve(monkeypatch):
    """No state may enter c: the one-inverse solve is the only solve, and the
    per-target fallback only tests reachability."""
    h = Hypergraph.from_members([("e1", ["a", "b", "c"]), ("e2", ["a", "b"])])
    into = {(u, e, v): 1 for u in h.vertices for e in h.star(u) for v in h.members(e) if v != "c"}
    tm = transition_matrix(h, _weighted(h, {}, into))
    expected = _per_target_error(tm, "return")
    assert expected == "states cannot reach 'c': ['a', 'b']"
    calls = []
    solve = randwalk._integer_solve

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(centrality, "_integer_solve", counting)
    monkeypatch.setattr(randwalk, "_integer_solve", counting)
    with pytest.raises(UnreachableError) as info:
        rw_closeness(tm)
    assert str(info.value) == expected
    assert len(calls) == 1


def test_unknown_self_time_is_rejected():
    with pytest.raises(ValueError, match="self_time"):
        rw_closeness(UNEQUAL_TM, "never")


def _uniform_fixture_kernels() -> dict:
    """Both uniform kernels of every fixture that has them, by fixture and policy."""
    out = {}
    for name, build in sorted(fx._FIXTURE_BUILDERS.items()):
        for policy in (WalkPolicy.uniform_nonlazy(), WalkPolicy.uniform_lazy()):
            try:
                out[f"{name}-{policy.kind}"] = transition_matrix(build(), policy)
            except SingletonEdgeNonLazyError:
                continue
    return out


UNIFORM_FIXTURE_KERNELS = _uniform_fixture_kernels()


@pytest.mark.parametrize("tm", UNIFORM_FIXTURE_KERNELS.values(), ids=UNIFORM_FIXTURE_KERNELS)
def test_the_passage_inverse_inverts_the_generator_with_state_0_deleted(tm):
    """X (D Id - M') = d Id exactly, over a positive d that divides det(D Id - M')."""
    m, scale = tm.matrix.numerators, tm.matrix.denominator
    n, rest = len(m), tm.states[1:]
    deleted = [[scale * (i == j) - m[i][j] for j in range(1, n)] for i in range(1, n)]
    x, d, _ = centrality._passage_inverse(tm)
    generator = RationalMatrix(rest, rest, deleted)
    product = RationalMatrix(rest, rest, [row[1:] for row in x[1:]]) @ generator
    assert product.numerators == tuple(tuple(d * (i == j) for j in range(1, n)) for i in range(1, n))
    assert product.denominator == 1
    assert d > 0
    assert determinant(generator).numerator % d == 0


@pytest.mark.parametrize("factor", [2, 7])
def test_a_common_scale_of_the_passage_inverse_changes_no_report(monkeypatch, factor):
    """Closeness and the walk symmetries read only ratios of X, d and w."""

    def reports():
        out = []
        for tm in UNIFORM_FIXTURE_KERNELS.values():
            h = tm.source
            one_unit = UnitDecomposition((Unit(h.vertices, frozenset()),))
            out.append([rw_closeness(tm, s).to_json_dict() for s in SELF_TIMES])
            out.append([checks._walk_symmetries(dec, lambda: tm) for dec in (units(h), one_unit)])
        return out

    want = reports()
    assert {"pass", "fail"} <= {c["status"] for row in want for c in row if "status" in c}
    real, calls = centrality._passage_inverse, []

    def scaled(tm):
        calls.append(tm)
        x, d, w = real(tm)
        return [[factor * v for v in row] for row in x], factor * d, [factor * v for v in w]

    monkeypatch.setattr(centrality, "_passage_inverse", scaled)
    monkeypatch.setattr(checks, "_passage_inverse", scaled)
    assert reports() == want
    assert calls
