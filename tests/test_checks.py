"""The theorem check engine: each fact computed once, and each check a real verifier."""

import itertools
import random

import pytest

from conftest import random_hypergraph

from hyperlin import Hypergraph, centrality, checks, linalg, randwalk, spectra, structures
from hyperlin import fixtures as fx
from hyperlin.checks import run_checks
from hyperlin.errors import IsolatedVertexError, SingletonEdgeNonLazyError
from hyperlin.hypergraph import incidence_matrix
from hyperlin.linalg import NullspaceBasis, RationalMatrix, nullspace
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


def test_q_annihilation_fails_when_one_basis_entry_changes():
    h = fx.double_cover()[0]
    basis = nullspace(incidence_matrix(h).transpose())
    good = checks._q_annihilation(h, basis)
    assert good["status"] == "pass"
    rows = [list(row) for row in basis.matrix.numerators]
    rows[0][0] += 1  # adds e_v / d, and Q e_v != 0: v's diagonal entry is positive
    m = basis.matrix
    bad = checks._q_annihilation(h, NullspaceBasis(RationalMatrix(m.row_labels, m.col_labels, rows, m.denominator)))
    assert bad == {**good, "status": "fail"}


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
# the same with the isolated vertex last: only the sweep's last lead finds ({"x"}, {})
X_LAST = Hypergraph.from_members(
    [("e1", ["1", "2", "3"]), ("e2", ["1", "2"]), ("e3", ["3", "4"])],
    vertices=["1", "2", "3", "4", "x"],
)


def _star_vectors(h):
    """Vertex i's dense vector: 1 at the position of each hyperedge in its star."""
    return [[int(e in h.star(v)) for e in h.edge_labels] for v in h.vertices]


def _row_vectors(h, inc):
    """Vertex i's dense vector: its row of ``inc``."""
    rows = dict(zip(inc.row_labels, inc.numerators))
    return [list(rows[v]) for v in h.vertices]


def _nullspace_check(h, inc, pairs, nullity):
    return checks._partition_nullspace(h, inc, pairs, checks._signed_rows(h, pairs), nullity)


@pytest.mark.parametrize(
    "h",
    [
        fx.balanced_overlap(),
        fx.double_cover()[1],
        WITH_ISOLATED,
        X_LAST,
        Hypergraph.from_members([], vertices=[]),
    ],
    ids=["balanced-overlap", "h-cov-base", "isolated-vertex", "isolated-vertex-last", "vertexless"],
)
def test_zero_assignments_equal_brute_force_sets(h):
    inc = incidence_matrix(h)
    counted, in_kernel = set(), set()
    for signs in itertools.product((-1, 0, 1), repeat=h.n_vertices):
        # each unordered nonzero pair once, its first signed vertex in U
        if next((s for s in signs if s), -1) < 0:
            continue
        u_set = frozenset(v for v, s in zip(h.vertices, signs) if s > 0)
        v_set = frozenset(v for v, s in zip(h.vertices, signs) if s < 0)
        if verify_equal_edge_partition(h, u_set, v_set)[0]:
            counted.add((u_set, v_set))
        if _in_kernel_by_product(h, inc, signs):
            in_kernel.add((u_set, v_set))
    assert checks._zero_assignments(h, _star_vectors(h)) == counted
    assert checks._zero_assignments(h, _row_vectors(h, inc)) == in_kernel
    assert statuses(run_checks(h))["partition_nullspace"] == "pass"


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
        lambda h, max_support, basis=None: tamper(real(h, max_support=max_support, basis=basis)),
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
    assert _nullspace_check(h, inc, pairs, nullity)["status"] == "pass"
    tampered = _flip(inc, i, k)
    assert _nullspace_check(h, tampered, pairs, nullity)["status"] == "fail"
    # the sweep alone sees it: its kernel set now differs from the counted set
    counted = checks._zero_assignments(h, _star_vectors(h))
    assert checks._zero_assignments(h, _row_vectors(h, tampered)) != counted


def test_partition_nullspace_fails_when_only_the_sweep_sees_a_flipped_entry():
    # vertex 3 takes vertex 4's row, so ({3}, {4}) joins the kernel set alone:
    # every found pair avoids 3 and 4 and still checks out
    h = WITH_ISOLATED
    inc = incidence_matrix(h)
    pairs = structures.find_equal_edge_partitions(h, max_support=h.n_vertices)
    tampered = _flip(inc, 3, 0)
    assert _nullspace_check(h, tampered, pairs, 2)["status"] == "fail"


def test_partition_nullspace_fails_on_every_flipped_entry_above_the_sweep_limit():
    # 11 vertices: 3^11 is over the sweep's budget, so only I against the stars sees a
    # flip in a vertex row that no found pair touches
    h = fx.unit_blocks()
    assert 3 ** h.n_vertices > checks.ENUMERATION_BUDGET
    inc = incidence_matrix(h)
    pairs = structures.find_equal_edge_partitions(h, max_support=h.n_vertices)
    nullity = 6
    assert _nullspace_check(h, inc, pairs, nullity)["status"] == "pass"
    for i, k in itertools.product(range(inc.rows), range(inc.cols)):
        assert _nullspace_check(h, _flip(inc, i, k), pairs, nullity)["status"] == "fail"


def test_partition_nullspace_fails_when_the_sweep_misses_a_found_pair(monkeypatch):
    # as if the sweep skipped its last lead vertex: both of its sets lose ({x}, {})
    real = checks._zero_assignments
    lost = (frozenset({"x"}), frozenset())
    monkeypatch.setattr(checks, "_zero_assignments", lambda *args: real(*args) - {lost})
    h = X_LAST
    inc = incidence_matrix(h)
    pairs = structures.find_equal_edge_partitions(h, max_support=h.n_vertices)
    assert lost in pairs
    assert _nullspace_check(h, inc, pairs, 2)["status"] == "fail"


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


def _merge_units(dec):
    """The units {1, 2} and {3, 4} as one, though their stars differ."""
    merged = [u for u in dec.units if u.members in (("1", "2"), ("3", "4"))]
    rest = [u for u in dec.units if u not in merged]
    return UnitDecomposition((Unit(("1", "2", "3", "4"), merged[0].generator), *rest))


def test_walk_symmetries_fail_on_a_unit_whose_members_walk_differently(monkeypatch):
    real = checks.units
    monkeypatch.setattr(checks, "units", lambda h: _merge_units(real(h)))
    check = next(
        c for c in run_checks(fx.unit_blocks())["theorem_checks"] if c["name"] == "walk_symmetries"
    )
    assert check == {
        "name": "walk_symmetries",
        "status": "fail",
        "witness": "10 unit pairs, exact hitting-time symmetry",
    }


def test_walk_symmetries_are_not_applicable_on_a_chain_that_is_not_irreducible():
    h = Hypergraph.from_members([("e1", ["a", "b", "c"]), ("e2", ["a", "b"]), ("e3", ["x", "y"])])
    check = next(c for c in run_checks(h)["theorem_checks"] if c["name"] == "walk_symmetries")
    assert check == {
        "name": "walk_symmetries",
        "status": "not-applicable",
        "witness": "UnreachableError",
    }


def test_a_disconnected_input_is_decided_by_search_before_the_solve(monkeypatch):
    """{a, b} and {x, y} are units of two members in two components. With no
    isolated vertex and no singleton edge, the non-lazy chain is irreducible
    exactly when the input is connected, so one search gives the witness and
    the passage inverse is never computed."""

    def raising(tm):
        raise AssertionError("the passage inverse was computed")

    monkeypatch.setattr(checks, "_passage_inverse", raising)
    h = Hypergraph.from_members([("e1", ["a", "b", "c"]), ("e2", ["a", "b"]), ("e3", ["x", "y"])])
    check = next(c for c in run_checks(h)["theorem_checks"] if c["name"] == "walk_symmetries")
    assert check == {
        "name": "walk_symmetries",
        "status": "not-applicable",
        "witness": "UnreachableError",
    }


def test_the_check_pass_takes_one_integer_solve(monkeypatch):
    """The walk symmetries read every hitting time from the inverse ``rw_closeness`` builds."""
    calls = []
    solve = randwalk._integer_solve

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(centrality, "_integer_solve", counting)
    monkeypatch.setattr(randwalk, "_integer_solve", counting)
    assert run_checks(fx.unit_blocks())["failed"] == 0
    assert len(calls) == 1


@pytest.mark.parametrize("build", [fx.balanced_overlap, lambda: _twins_with_hub(4)], ids=["h_eq", "twins-4"])
def test_the_check_pass_eliminates_i_its_transpose_and_a_gh_once_each(monkeypatch, build):
    """ker I^T is eliminated once and handed to the partition search."""
    h = build()
    reduced, searched = [], []
    real_rref, real_search = linalg.rref, checks.find_equal_edge_partitions

    def counting_rref(m):
        reduced.append((m.row_labels, m.col_labels))
        return real_rref(m)

    def counting_search(*args, **kwargs):
        searched.append(real_search(*args, **kwargs))
        return searched[-1]

    monkeypatch.setattr(linalg, "rref", counting_rref)
    monkeypatch.setattr(checks, "find_equal_edge_partitions", counting_search)
    report = run_checks(h)
    assert report["failed"] == 0
    edges = h.edge_labels
    assert sorted(reduced) == sorted(
        [(h.vertices, edges), (edges, h.vertices), (h.vertices + edges, h.vertices + edges)]
    )
    assert len(searched) == 1 and searched[0]


# -- the per-pair checks as products over all pairs at once ---------------------------


def _twins_with_hub(k):
    pairs = [(f"p{i}", [f"a{i}", f"b{i}"]) for i in range(k)]
    return Hypergraph.from_members(pairs + [(f"g{i}", ["h", f"a{i}", f"b{i}"]) for i in range(k)])


def _candidate_pairs(h, rng):
    """The found pairs, each also with one vertex moved from U to V, and random
    disjoint pairs, so both verdicts occur."""
    found = structures.find_equal_edge_partitions(h, max_support=max(h.n_vertices, 1))
    moved = [(u - {x}, v | {x}) for u, v in found for x in sorted(u)[:1]]
    drawn = []
    for _ in range(20):
        signs = [rng.choice((-1, 0, 1)) for _ in h.vertices]
        drawn.append(
            (
                frozenset(v for v, s in zip(h.vertices, signs) if s > 0),
                frozenset(v for v, s in zip(h.vertices, signs) if s < 0),
            )
        )
    return found + moved + drawn


def _assert_batched_verdicts_equal_the_verifiers(h, rng):
    pairs = _candidate_pairs(h, rng)
    signed = checks._signed_rows(h, pairs)
    table = tuple(tuple(int(e in h.star(v)) for e in h.edge_labels) for v in h.vertices)
    counted = [verify_equal_edge_partition(h, u, v)[0] for u, v in pairs]
    assert checks._edge_balanced(signed, h, table).tolist() == counted
    try:
        tm = randwalk.transition_matrix(h, randwalk.WalkPolicy.uniform_nonlazy())
    except (IsolatedVertexError, SingletonEdgeNonLazyError):
        return
    balanced = [randwalk.verify_partition_transition(tm, u, v) for u, v in pairs]
    assert checks._walk_balanced(signed, tm).tolist() == balanced


@pytest.mark.parametrize("name", sorted(fx._FIXTURE_BUILDERS))
def test_batched_pair_checks_equal_the_per_pair_verifiers_on_the_fixtures(name):
    _assert_batched_verdicts_equal_the_verifiers(fx._FIXTURE_BUILDERS[name](), random.Random(name))


@pytest.mark.parametrize("k", range(1, 7))
def test_batched_pair_checks_equal_the_per_pair_verifiers_on_twins_with_a_hub(k):
    _assert_batched_verdicts_equal_the_verifiers(_twins_with_hub(k), random.Random(k))


def test_batched_pair_checks_equal_the_per_pair_verifiers_on_random_inputs():
    for seed in range(120):
        rng = random.Random(seed)
        _assert_batched_verdicts_equal_the_verifiers(random_hypergraph(rng, 9, 9), rng)


def _with_last_pair(monkeypatch, change):
    real = checks.find_equal_edge_partitions

    def tampered(h, max_support, basis=None):
        pairs = real(h, max_support=max_support, basis=basis)
        return pairs[:-1] + [change(*pairs[-1])]

    monkeypatch.setattr(checks, "find_equal_edge_partitions", tampered)


def test_a_pair_with_one_vertex_moved_from_u_to_v_fails(monkeypatch):
    # 11 vertices, over the sweep's budget: only the product over the pairs sees it
    _with_last_pair(monkeypatch, lambda u, v: (u - {min(u)}, v | {min(u)}))
    report = run_checks(fx.unit_blocks())
    assert statuses(report)["partition_nullspace"] == "fail"
    assert statuses(report)["partition_transition"] == "fail"
    assert report["failed"] == 2


@pytest.mark.parametrize(
    "change",
    [lambda u, v: (u, v | {min(u)}), lambda u, v: (u | {"zz"}, v)],
    ids=["overlapping-pair", "unknown-label"],
)
def test_an_impossible_pair_fails_both_pair_checks(monkeypatch, change):
    _with_last_pair(monkeypatch, change)
    report = run_checks(fx.unit_blocks())
    assert statuses(report)["partition_nullspace"] == "fail"
    assert statuses(report)["partition_transition"] == "fail"


def test_an_overlap_on_an_isolated_vertex_fails_though_its_row_would_balance(monkeypatch):
    # 12 vertices, over the sweep's budget; x meets no hyperedge, so the row of a pair
    # with x in both sets, x written +1 and then -1, would still count equal on every edge
    h = fx.unit_blocks()
    h = Hypergraph.from_members(h.hyperedges, vertices=[*h.vertices, "x"])
    _with_last_pair(monkeypatch, lambda u, v: (u | {"x"}, v | {"x"}))
    assert statuses(run_checks(h))["partition_nullspace"] == "fail"


def _report(statuses_and_witnesses, nullity_a_gh):
    names = [
        "rank_equality", "nullity_additivity", "square_determinant", "unit_soundness",
        "q_annihilation", "partition_nullspace", "partition_transition", "walk_symmetries",
    ]
    checks_ = [
        {"name": name, "status": status, "witness": witness}
        for name, (status, witness) in zip(names, statuses_and_witnesses)
    ]
    return {"nullity_A_GH": nullity_a_gh, "theorem_checks": checks_, "failed": 0}


def test_a_vertexless_input_gives_the_whole_report():
    assert run_checks(Hypergraph.from_members([], vertices=[])) == _report(
        [
            ("pass", "rank(I)=0, rank(I^T)=0"),
            ("pass", "nullity(A_GH)=0, nullity(I)=0, nullity(I^T)=0, lower bound 0"),
            ("pass", "det(I)=1, nullity(A_GH)=0"),
            ("pass", "0 units partition 0 vertices"),
            ("not-applicable", "nullity(I^T)=0, no certificates"),
            (
                "pass",
                "0 partitions from the nullspace all verified by counting; "
                "exhaustive counting sweep agreed both directions",
            ),
            ("not-applicable", "no equal partitions"),
            ("not-applicable", "no unit has two or more members"),
        ],
        0,
    )


def test_an_edgeless_input_has_thirteen_equal_partitions():
    assert run_checks(Hypergraph.from_members([], vertices=["a", "b", "c"])) == _report(
        [
            ("pass", "rank(I)=0, rank(I^T)=0"),
            ("pass", "nullity(A_GH)=3, nullity(I)=0, nullity(I^T)=3, lower bound 3"),
            ("not-applicable", "|V|=3 != |E|=0"),
            ("pass", "1 units partition 3 vertices"),
            ("pass", "3 basis certificates under 2 weight presets"),
            (
                "pass",
                "13 partitions from the nullspace all verified by counting; "
                "exhaustive counting sweep agreed both directions",
            ),
            ("not-applicable", "IsolatedVertexError"),
            ("not-applicable", "IsolatedVertexError"),
        ],
        3,
    )
