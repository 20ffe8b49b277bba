"""Centralities: walk-based, projection-based, and spectral."""

import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from hyperlin import (
    Hypergraph,
    WalkPolicy,
    graph_projection,
    perron_centrality,
    rw_betweenness,
    rw_closeness,
    transition_matrix,
    unit_closeness,
    unit_distance,
    unit_eccentricity,
    units,
)
from hyperlin.errors import (
    DisconnectedError,
    TooFewEdgesError,
    WeightDomainMismatchError,
)
from hyperlin.spectra import WeightScheme, build_Q, unit_weights
from hyperlin import centrality, fixtures as fx
from conftest import random_hypergraph, search_draws


def _path():
    return Hypergraph.from_members([("e1", ["a", "b"]), ("e2", ["b", "c"])])


def test_graph_projection_nodes_and_edges_frozen():
    gp = graph_projection(fx.unit_blocks())
    assert gp.nodes == ("{1,2}", "{10}", "{11}", "{3,4}", "{5,6,7}", "{8,9}")
    assert gp.edges == (
        ("{1,2}", "{10}"),
        ("{1,2}", "{11}"),
        ("{1,2}", "{3,4}"),
        ("{1,2}", "{5,6,7}"),
        ("{10}", "{11}"),
        ("{10}", "{3,4}"),
        ("{10}", "{5,6,7}"),
        ("{10}", "{8,9}"),
        ("{11}", "{5,6,7}"),
        ("{11}", "{8,9}"),
        ("{5,6,7}", "{8,9}"),
    )
    assert gp.is_connected()


def test_projection_adjacency_requires_a_common_hyperedge():
    gp = graph_projection(fx.unit_blocks())
    # {1,2} and {8,9} never sit inside one hyperedge together
    assert ("{1,2}", "{8,9}") not in gp.edges
    assert ("{8,9}", "{1,2}") not in gp.edges


def test_projection_edges_are_the_unit_pairs_inside_one_hyperedge():
    for h in search_draws():
        found = graph_projection(h)
        pairs = tuple(
            (a.label, b.label)
            for a, b in combinations(found.decomposition.units, 2)
            if any({*a.members, *b.members} <= members for _, members in h.hyperedges)
        )
        assert found.edges == pairs, h.to_json_dict()


def _scan_distances(gp, node):
    """Hop counts with each node's neighbours found by scanning every edge."""
    dist, frontier = {node: 0}, [node]
    while frontier:
        nxt = []
        for x in frontier:
            for y in (b if a == x else a for a, b in gp.edges if x in (a, b)):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


@pytest.mark.parametrize(
    "h",
    [fx.unit_blocks(), fx.hub_cycle(), fx.balanced_overlap(), fx.nested_chain(5)]
    + [random_hypergraph(random.Random(seed), density=0.5) for seed in range(40)],
)
def test_projection_neighbors_and_unit_centralities_follow_the_edge_scan(h):
    gp = graph_projection(h)
    for node in gp.nodes:
        scanned = tuple(b if a == node else a for a, b in gp.edges if node in (a, b))
        assert gp.neighbors(node) == scanned
        assert list(gp.distances_from(node).items()) == list(_scan_distances(gp, node).items())
    table = {lab: _scan_distances(gp, lab) for lab in gp.nodes}
    if any(len(dist) < len(gp.nodes) for dist in table.values()):
        with pytest.raises(DisconnectedError):
            unit_eccentricity(h)
        return
    sizes = {u.label: u.size for u in gp.decomposition.units}
    dist_of = {v: table[gp.decomposition.unit_of(v).label] for v in h.vertices}
    eccentricity = unit_eccentricity(h).values
    assert list(eccentricity.items()) == [(v, max(dist_of[v].values())) for v in h.vertices]
    if h.n_hyperedges >= 2:
        closeness = unit_closeness(h).values
        assert list(closeness.items()) == [
            (v, Fraction(1, sum(sizes[lab] * d for lab, d in dist_of[v].items())))
            for v in h.vertices
        ]


@pytest.mark.parametrize("report", [unit_closeness, unit_eccentricity])
@pytest.mark.parametrize("name", sorted(fx._FIXTURE_BUILDERS))
def test_unit_centralities_search_once_from_each_unit(name, report, monkeypatch):
    h = fx._FIXTURE_BUILDERS[name]()
    calls = []
    search = centrality.GraphProjection.distances_from

    def counted(self, node):
        calls.append(node)
        return search(self, node)

    monkeypatch.setattr(centrality.GraphProjection, "distances_from", counted)
    report(h)
    assert calls == list(units(h).labels)


def test_unit_distance():
    h = fx.unit_blocks()
    assert unit_distance(h, "1", "2") == 0
    assert unit_distance(h, "1", "10") == 1
    assert unit_distance(h, "1", "8") == 2


def test_rw_closeness_on_a_path():
    tm = transition_matrix(_path(), WalkPolicy.uniform_nonlazy())
    rep = rw_closeness(tm)
    assert rep.values == {
        "a": Fraction(3, 11),
        "b": Fraction(3, 4),
        "c": Fraction(3, 11),
    }
    rep0 = rw_closeness(tm, self_time="zero")
    assert rep0.values["b"] == Fraction(3, 2)
    assert rep0.values["a"] == Fraction(3, 7)


def test_rw_betweenness_symmetry_and_center():
    tm = transition_matrix(_path(), WalkPolicy.uniform_nonlazy())
    rep = rw_betweenness(tm, horizon=40)
    assert rep.values["a"] == rep.values["c"]
    assert rep.values["b"] > rep.values["a"]


@pytest.mark.parametrize(
    "policy", [WalkPolicy.uniform_nonlazy(), WalkPolicy.uniform_lazy()], ids=["nonlazy", "lazy"]
)
@pytest.mark.parametrize("long_horizon", [False, True], ids=["short", "long"])
def test_walk_centralities_constant_on_units(policy, long_horizon):
    """Vertices of one unit get equal walk centralities, with betweenness
    taken at a short horizon (first passage) and at the first horizon past
    the cut-over to the deleted-row power sums."""
    h = fx.unit_blocks()
    tm = transition_matrix(h, policy)
    horizon = 12
    if long_horizon:
        bits_per_step = tm.matrix.denominator.bit_length()
        horizon = centrality._FIRST_PASSAGE_BITS_PER_STATE * len(tm.states) // bits_per_step + 1
    assert centrality._first_passage_pays(tm, horizon) is not long_horizon
    for rep in (rw_closeness(tm), rw_betweenness(tm, horizon=horizon)):
        for u in units(h).units:
            assert len({rep.values[v] for v in u.members}) == 1


def test_unit_closeness_on_a_path():
    rep = unit_closeness(_path())
    assert rep.values == {
        "a": Fraction(1, 3),
        "b": Fraction(1, 2),
        "c": Fraction(1, 3),
    }


def test_unit_eccentricity_on_a_path():
    rep = unit_eccentricity(_path())
    assert rep.values == {"a": 2, "b": 1, "c": 2}


def test_unit_centralities_need_two_edges():
    h = Hypergraph.from_members([("e", ["a", "b"])])
    with pytest.raises(TooFewEdgesError):
        unit_closeness(h)


def test_unit_centralities_need_connectivity():
    h = Hypergraph.from_members([("e1", ["a", "b"]), ("e2", ["c", "d"])])
    with pytest.raises(DisconnectedError):
        unit_closeness(h)


def test_perron_on_a_single_edge():
    h = Hypergraph.from_members([("e", ["a", "b"])])
    rep = perron_centrality(h)
    assert abs(rep.parameters["spectral_radius"] - 2.0) < 1e-10
    assert abs(rep.values["a"] - rep.values["b"]) < 1e-12


@pytest.mark.parametrize("tol", [1e-12, 1e-6])
def test_perron_report_of_the_empty_hypergraph(tol):
    rep = perron_centrality(Hypergraph((), ()), tol=tol)
    assert rep.to_json_dict() == {
        "kind": "perron",
        "parameters": {"tol": tol, "iterations": 0, "spectral_radius": 0.0, "residual": 0.0},
        "values": {},
    }
    assert list(rep.parameters) == ["tol", "iterations", "spectral_radius", "residual"]
    assert [type(x) for x in rep.parameters.values()] == [float, int, float, float]


def test_perron_matches_numpy_extreme_eigenvalue():
    h = fx.unit_blocks()
    rep = perron_centrality(h)
    q = build_Q(h, unit_weights(h))
    arr = np.array(
        [[float(q.entry(r, c)) for c in q.col_labels] for r in q.row_labels]
    )
    top = max(np.linalg.eigvalsh(arr))
    assert abs(rep.parameters["spectral_radius"] - top) < 1e-8
    assert rep.parameters["residual"] < 1e-10


def test_perron_constant_on_units():
    h = fx.unit_blocks()
    rep = perron_centrality(h)
    for u in units(h).units:
        vals = [rep.values[v] for v in u.members]
        assert max(vals) - min(vals) < 1e-10
    assert all(v > 0 for v in rep.values.values())


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0, True])
def test_perron_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        perron_centrality(_path(), tol=tol)


def test_perron_requires_connectivity():
    h = Hypergraph.from_members([("e1", ["a", "b"]), ("e2", ["c", "d"])])
    with pytest.raises(DisconnectedError):
        perron_centrality(h)


def test_perron_rejects_mismatched_weight_domain():
    h = Hypergraph.from_members([("e1", ["a", "b"]), ("e2", ["b", "c"])])
    with pytest.raises(WeightDomainMismatchError):
        perron_centrality(h, edge_weights={"e1": Fraction(1)})


@pytest.mark.parametrize(
    "edge_weights, message",
    [
        ({"e1": 1, "e3": 1}, "edge weights must cover exactly the hyperedges"),
        ({"e1": 1, "e2": 0}, "edge weights must be positive"),
    ],
)
def test_perron_reads_the_edge_weight_rule_of_the_weighted_builders(edge_weights, message):
    h = Hypergraph.from_members([("e1", ["a", "b"]), ("e2", ["b", "c"])])
    w = WeightScheme("custom", {v: 1 for v in h.vertices}, edge_weights)
    for run in (lambda: perron_centrality(h, edge_weights=edge_weights), lambda: build_Q(h, w)):
        with pytest.raises(WeightDomainMismatchError, match=f"^{message}$"):
            run()
