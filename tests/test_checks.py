"""The theorem check engine: each fact computed once, and each check a real verifier."""

import itertools

import pytest

from hyperlin import Hypergraph, checks, spectra, structures
from hyperlin import fixtures as fx
from hyperlin.checks import run_checks
from hyperlin.hypergraph import incidence_matrix
from hyperlin.linalg import RationalMatrix
from hyperlin.structures import Unit, UnitDecomposition, verify_equal_edge_partition


def statuses(report):
    return {c["name"]: c["status"] for c in report["theorem_checks"]}


def test_q_is_built_once_per_weight_preset(monkeypatch):
    built = []
    real = spectra._q_rows

    def counting(h, w):
        built.append(w.name)
        return real(h, w)

    monkeypatch.setattr(spectra, "_q_rows", counting)
    report = run_checks(fx.double_cover()[0])
    q_check = next(c for c in report["theorem_checks"] if c["name"] == "q_annihilation")
    assert q_check["status"] == "pass"
    assert "under 3 weight presets" in q_check["witness"]
    assert sorted(built) == ["edgenorm", "fullnorm", "unit"]


def _in_kernel_by_product(h, inc, signs) -> bool:
    """I^T x == 0 for the sign vector x, one full column product per hyperedge."""
    rows = dict(zip(inc.row_labels, inc.numerators))
    return all(
        sum(s * rows[v][k] for v, s in zip(h.vertices, signs)) == 0
        for k in range(inc.cols)
    )


# an isolated vertex between two others, so {"x"} alone is an equal partition
WITH_ISOLATED = Hypergraph.from_members(
    [("e1", ["1", "2", "3"]), ("e2", ["1", "2"]), ("e3", ["3", "4"])],
    vertices=["1", "x", "2", "3", "4"],
)


@pytest.mark.parametrize(
    "h",
    [
        fx.balanced_overlap(),
        fx.double_cover()[1],
        WITH_ISOLATED,
        Hypergraph.from_members([], vertices=[]),
    ],
    ids=["balanced-overlap", "h-cov-base", "isolated-vertex", "vertexless"],
)
def test_sweep_visits_each_oriented_assignment_once_with_correct_verdicts(h):
    inc = incidence_matrix(h)
    visited = []
    for signs, counted, in_kernel in checks._sweep(h, inc):
        u_set = {v for v, s in zip(h.vertices, signs) if s > 0}
        v_set = {v for v, s in zip(h.vertices, signs) if s < 0}
        assert counted == verify_equal_edge_partition(h, u_set, v_set)[0]
        assert in_kernel == _in_kernel_by_product(h, inc, signs)
        visited.append(tuple(signs))
    # each unordered nonzero pair once, its first signed vertex in U
    oriented = {
        a
        for a in itertools.product((-1, 0, 1), repeat=h.n_vertices)
        if next((s for s in a if s), -1) > 0
    }
    assert len(visited) == len(oriented) == (3 ** h.n_vertices - 1) // 2
    assert set(visited) == oriented
    assert statuses(run_checks(h))["partition_nullspace"] == "pass"


def test_gray_steps_move_one_coordinate_by_one_through_every_vector():
    for m in range(5):
        point = [-1] * m
        seen = {tuple(point)}
        for j, d in structures._gray_steps(m):
            assert d in (-1, 1)
            point[j] += d
            assert point[j] in (-1, 0, 1)
            seen.add(tuple(point))
        assert len(seen) == 3 ** m


@pytest.mark.parametrize(
    "tamper",
    [
        lambda pairs: pairs + [(frozenset({"1"}), frozenset({"2"}))],
        lambda pairs: pairs[1:],
    ],
    ids=["unbalanced-pair-added", "found-pair-dropped"],
)
def test_partition_nullspace_fails_on_a_wrong_search_result(monkeypatch, tamper):
    real = checks.find_equal_edge_partitions
    monkeypatch.setattr(
        checks,
        "find_equal_edge_partitions",
        lambda h, max_support: tamper(real(h, max_support=max_support)),
    )
    report = run_checks(fx.balanced_overlap())
    assert statuses(report)["partition_nullspace"] == "fail"
    assert report["failed"] >= 1


def _flip(inc, i: int, k: int) -> RationalMatrix:
    rows = [list(row) for row in inc.numerators]
    rows[i][k] = 1 - rows[i][k]
    return RationalMatrix(inc.row_labels, inc.col_labels, rows, inc.denominator)


@pytest.mark.parametrize("i", range(5))
@pytest.mark.parametrize("k", range(3))
def test_partition_nullspace_fails_on_one_flipped_incidence_entry(i, k):
    h = fx.balanced_overlap()
    inc = incidence_matrix(h)
    pairs = structures.find_equal_edge_partitions(h, max_support=h.n_vertices)
    nullity = 1
    assert checks._partition_nullspace(h, inc, pairs, nullity)["status"] == "pass"
    tampered = _flip(inc, i, k)
    assert checks._partition_nullspace(h, tampered, pairs, nullity)["status"] == "fail"
    # the sweep alone sees it: its kernel verdict now differs from counting
    assert any(c != z for _, c, z in checks._sweep(h, tampered))


def _split_unit(dec):
    out = []
    for u in dec.units:
        if u.members == ("1", "2"):
            out += [Unit(("1",), u.generator), Unit(("2",), u.generator)]
        else:
            out.append(u)
    return UnitDecomposition(tuple(out))


def _wrong_generator(dec):
    first, *rest = dec.units
    return UnitDecomposition((Unit(first.members, rest[0].generator), *rest))


def _vertex_twice(dec):
    first, *rest = dec.units
    return UnitDecomposition((Unit(first.members + first.members[-1:], first.generator), *rest))


@pytest.mark.parametrize(
    "corrupt",
    [_split_unit, _wrong_generator, _vertex_twice],
    ids=["split-unit", "wrong-generator", "vertex-covered-twice"],
)
def test_unit_soundness_fails_on_a_corrupted_decomposition(monkeypatch, corrupt):
    real = checks.units
    monkeypatch.setattr(checks, "units", lambda h: corrupt(real(h)))
    report = run_checks(fx.unit_blocks())
    assert statuses(report)["unit_soundness"] == "fail"
