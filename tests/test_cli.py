"""Command line behavior: reports, formats, resolution, exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hyperlin import Hypergraph, WalkPolicy, checks, cli, rw_betweenness, transition_matrix
from hyperlin import fixtures as fx
from hyperlin.fixtures import write_fixture_pack


@pytest.fixture(scope="module")
def pack(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pack")
    write_fixture_pack(directory)
    return directory


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_units_report_envelope(pack, capsys):
    code, out, err = run(capsys, "units", str(pack / "h_units.json"))
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "units"
    assert report["input"]["digest"] == fx.unit_blocks().digest()
    assert report["results"]["count"] == 6
    members = [u["members"] for u in report["results"]["units"]]
    assert ["1", "2"] in members and ["5", "6", "7"] in members


def test_certify_alternating_certificate(pack, capsys):
    code, out, _ = run(
        capsys,
        "certify",
        str(pack / "h_a.json"),
        "--set",
        "1,2,3,4",
        "--axis",
        "vertices",
    )
    assert code == 0
    result = json.loads(out)["results"]
    assert result["dependent"] is True
    assert result["certificate"]["coefficients"] == {
        "1": "1",
        "2": "-1",
        "3": "1",
        "4": "-1",
        "5": "0",
    }


def test_spectra_incidence_determinant(pack, capsys):
    code, out, _ = run(
        capsys, "spectra", str(pack / "h_circ_4.json"), "--matrix", "I", "--det"
    )
    assert code == 0
    assert json.loads(out)["results"]["determinant"] == "-3"


def test_spectra_eigenvalues_json_shape(pack, capsys):
    code, out, _ = run(
        capsys, "spectra", str(pack / "h_units.json"), "--matrix", "A",
        "--weights", "edgenorm",
    )
    assert code == 0
    results = json.loads(out)["results"]
    eigs = results["eigs"]
    assert sum(entry["multiplicity"] for entry in eigs) == 11
    assert any(abs(entry["value"] + 0.5) < 1e-8 for entry in eigs)


def test_spectra_incidence_needs_det_flag(pack, capsys):
    code, _, err = run(capsys, "spectra", str(pack / "h_a.json"), "--matrix", "I")
    assert code == 2
    assert "precondition failed" in err


def test_check_passes_and_reports_nullity(pack, capsys):
    code, out, err = run(capsys, "check", str(pack / "h_units.json"))
    assert code == 0
    report = json.loads(out)
    assert report["results"]["nullity_A_GH"] == 6
    statuses = {c["name"]: c["status"] for c in report["theorem_checks"]}
    assert statuses["rank_equality"] == "pass"
    assert statuses["nullity_additivity"] == "pass"
    assert statuses["unit_soundness"] == "pass"
    assert statuses["q_annihilation"] == "pass"
    assert statuses["partition_nullspace"] == "pass"
    assert statuses["walk_symmetries"] == "pass"
    assert report["results"]["failed"] == 0


def test_check_marks_inapplicable_determinant(pack, capsys):
    code, out, _ = run(capsys, "check", str(pack / "h_tri_4.json"))
    assert code == 0
    report = json.loads(out)
    statuses = {c["name"]: c["status"] for c in report["theorem_checks"]}
    assert statuses["square_determinant"] == "pass"
    # singleton hyperedge blocks the non-lazy walk, hence not applicable
    assert statuses["walk_symmetries"] == "not-applicable"


def test_check_exit_three_when_a_theorem_fails(pack, capsys, monkeypatch):
    real = checks.find_equal_edge_partitions
    monkeypatch.setattr(
        checks,
        "find_equal_edge_partitions",
        lambda h, max_support, basis=None: real(h, max_support=max_support, basis=basis)
        + [(frozenset({"1"}), frozenset({"2"}))],
    )
    code, out, err = run(capsys, "check", str(pack / "h_eq.json"))
    assert code == 3
    assert "theorem check(s) failed" in err
    report = json.loads(out)
    assert report["results"]["failed"] >= 1


def test_check_skips_partition_checks_over_the_enumeration_budget(capsys, tmp_path):
    # 11 twin pairs plus a hub: nullity(I^T) = 11 and 3^11 > ENUMERATION_BUDGET
    k = 11
    pairs = [(f"p{i}", [f"a{i}", f"b{i}"]) for i in range(k)]
    pairs += [(f"g{i}", ["h", f"a{i}", f"b{i}"]) for i in range(k)]
    path = tmp_path / "twins.json"
    path.write_text(Hypergraph.from_members(pairs).to_json(), encoding="utf-8")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    report = json.loads(out)
    checks_by_name = {c["name"]: c for c in report["theorem_checks"]}
    for name in ("partition_nullspace", "partition_transition"):
        assert checks_by_name[name]["status"] == "skipped"
        assert "ENUMERATION_BUDGET=59049" in checks_by_name[name]["witness"]
    assert checks_by_name["square_determinant"]["status"] == "not-applicable"
    others = set(checks_by_name) - {
        "partition_nullspace", "partition_transition", "square_determinant"
    }
    assert {checks_by_name[name]["status"] for name in others} == {"pass"}
    assert report["results"] == {"failed": 0, "nullity_A_GH": 21}


def test_check_on_the_empty_hypergraph_passes(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"vertices": [], "hyperedges": {}}', encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert code == 0, err
    report = json.loads(out)
    assert {c["status"] for c in report["theorem_checks"]} <= {"pass", "not-applicable"}
    assert report["results"] == {"failed": 0, "nullity_A_GH": 0}


@pytest.mark.parametrize("matrix", ["Q", "A_GH"])
def test_spectra_of_the_empty_hypergraph_is_empty(capsys, tmp_path, matrix):
    path = tmp_path / "empty.json"
    path.write_text('{"vertices": [], "hyperedges": {}}', encoding="utf-8")
    code, out, err = run(capsys, "spectra", str(path), "--matrix", matrix)
    assert code == 0, err
    assert json.loads(out)["results"]["eigs"] == []


def test_partitions_of_the_empty_hypergraph_are_none(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"vertices": [], "hyperedges": {}}', encoding="utf-8")
    code, out, err = run(capsys, "partitions", str(path))
    assert code == 0, err
    assert json.loads(out)["results"] == {"count": 0, "partitions": []}


@pytest.mark.parametrize("kind", ["rw_closeness", "perron"])
def test_centrality_of_the_empty_hypergraph_is_empty(capsys, tmp_path, kind):
    path = tmp_path / "empty.json"
    path.write_text('{"vertices": [], "hyperedges": {}}', encoding="utf-8")
    code, out, err = run(capsys, "centrality", str(path), "--kind", kind)
    assert code == 0, err
    assert json.loads(out)["results"]["values"] == {}


def test_the_cached_parser_keeps_no_state_between_calls(pack, capsys):
    h = str(pack / "h_units.json")
    calls = [
        ["check", h],
        ["spectra", h, "--matrix", "A", "--det"],
        ["units", h, "--format", "lines"],
        ["spectra", h, "--no-such-option"],
        ["centrality", h, "--kind", "rw_betweenness", "--horizon", "5"],
    ]

    def outcome(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    cli._build_parser.cache_clear()
    shared = [outcome(argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 2, 0]
    assert "unrecognized arguments: --no-such-option" in shared[3][2]


def test_exit_one_on_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "units", str(tmp_path / "missing.json"))
    assert code == 1
    assert "input error" in err
    assert out == ""


def test_exit_one_on_bad_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    code, _, err = run(capsys, "units", str(bad))
    assert code == 1
    assert "input error" in err


def test_exit_one_on_repeated_hyperedge_key(capsys, tmp_path):
    dup = tmp_path / "dup.json"
    dup.write_text(
        '{"vertices": ["1", "2", "3"], "hyperedges": {"e1": ["1", "2"], "e1": ["2", "3"]}}',
        encoding="utf-8",
    )
    code, out, err = run(capsys, "units", str(dup))
    assert code == 1
    assert "HypergraphSyntaxError" in err
    assert out == ""


@pytest.mark.parametrize(
    "name, text",
    [
        ("repeat.json", '{"vertices": ["a", "b"], "hyperedges": {"e": ["a", "a", "b"]}}'),
        ("repeat.txt", "e: a a b\n"),
    ],
    ids=["json", "lines"],
)
def test_exit_one_on_a_member_listed_twice(capsys, tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "units", str(path))
    assert code == 1
    assert "HypergraphSyntaxError" in err and "hyperedge 'e' lists 'a' twice" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [["check"], ["nullspace", "--axis", "incidence"], ["spectra", "--matrix", "A_GH"]],
)
def test_exit_one_on_label_naming_a_vertex_and_a_hyperedge(capsys, tmp_path, argv):
    path = tmp_path / "shared.json"
    path.write_text(
        '{"vertices": ["a", "b", "c"], "hyperedges": {"a": ["a", "b"], "x": ["b", "c"]}}',
        encoding="utf-8",
    )
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 1
    assert "HypergraphSyntaxError" in err and "['a']" in err
    assert out == ""


no_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)


@no_digit_limit
def test_exit_one_on_a_number_over_the_digit_limit(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text('{"vertices": [], "hyperedges": {}, "x": ' + "1" * 5001 + "}", encoding="utf-8")
    code, out, err = run(capsys, "units", str(path))
    assert code == 1
    assert "input error: HypergraphSyntaxError" in err
    assert out == ""


def python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's hyperlin."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=60, env=env)


def test_exit_one_without_traceback_on_nesting_too_deep_to_decode(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"vertices": [], "hyperedges": {}, "x": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    proc = python("-m", "hyperlin.cli", "units", str(path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("input error: HypergraphSyntaxError: invalid JSON")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_importing_the_package_and_cli_leaves_numpy_unloaded():
    code = "import sys, hyperlin, hyperlin.cli; print('numpy' in sys.modules)"
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@no_digit_limit
def test_exact_values_print_past_the_digit_limit(pack, capsys):
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(
        capsys, "centrality", str(pack / "h_a.json"), "--kind", "rw_betweenness", "--horizon", "1000"
    )
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    tm = transition_matrix(fx.hub_cycle(), WalkPolicy.uniform_nonlazy())
    expected = rw_betweenness(tm, 1000).values
    sys.set_int_max_str_digits(0)
    try:
        values = {k: Fraction(v) for k, v in json.loads(out)["results"]["values"].items()}
        assert max(len(str(x.denominator)) for x in values.values()) > limit
    finally:
        sys.set_int_max_str_digits(limit)
    assert values == expected


def test_exit_two_on_unknown_target(pack, capsys):
    code, _, err = run(
        capsys, "hitting", str(pack / "h_a.json"), "--target", "zzz"
    )
    assert code == 2
    assert "UnknownLabelError" in err


def test_fixture_directory_resolution(pack, capsys, monkeypatch):
    monkeypatch.setenv("HYPERLIN_FIXTURES", str(pack))
    code, out, _ = run(capsys, "units", "h_eq.json")
    assert code == 0
    assert json.loads(out)["input"]["digest"] == fx.balanced_overlap().digest()


def test_lines_format_is_flat_and_deterministic(pack, capsys):
    code1, out1, _ = run(
        capsys, "nullspace", str(pack / "h_a.json"), "--format", "lines"
    )
    code2, out2, _ = run(
        capsys, "nullspace", str(pack / "h_a.json"), "--format", "lines"
    )
    assert code1 == code2 == 0
    assert out1 == out2
    assert "results.nullity = 1" in out1


def test_walk_simulation_deterministic_output(pack, capsys):
    argv = [
        "walk", str(pack / "h_a.json"),
        "--start", "1", "--steps", "25", "--trajectories", "50", "--seed", "3",
    ]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    results = json.loads(out1)["results"]
    assert results["trajectories"] == 50
    assert sum(results["visit_counts"].values()) == 50 * 26


def test_walk_without_start_prints_transition_matrix(pack, capsys):
    code, out, _ = run(capsys, "walk", str(pack / "h_a.json"))
    assert code == 0
    rows = json.loads(out)["results"]["transition_matrix"]
    assert rows["1"]["1"] == "0"
    assert rows["5"]["1"] == "1/4"


def test_hitting_report_with_first_hit_distribution(pack, capsys):
    code, out, _ = run(
        capsys,
        "hitting", str(pack / "h_a.json"),
        "--target", "5", "--start", "1", "--horizon", "4",
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["times"]["1"] == "11/4"
    assert len(results["first_hit_distribution"]) == 4


@pytest.mark.parametrize("half", [["--start", "1"], ["--horizon", "5"]])
def test_exit_two_on_a_half_given_first_hit_request(pack, capsys, half):
    code, out, err = run(capsys, "hitting", str(pack / "h_a.json"), "--target", "5", *half)
    assert code == 2
    assert err.startswith("precondition failed: ValueError:")
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["spectra", "h_a.json", "--matrix", "Q"],
        ["spectra", "h_units.json", "--matrix", "Q"],
        ["centrality", "h_units.json", "--kind", "perron"],
        ["spectra", "h_a.json", "--det"],
        ["spectra", "h_a.json", "--matrix", "I", "--det"],
    ],
)
@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_exit_two_on_a_tolerance_that_is_not_finite_and_positive(pack, capsys, argv, tol):
    command, name, *rest = argv
    code, out, err = run(capsys, command, str(pack / name), *rest, "--tol", tol)
    assert code == 2
    assert err.startswith("precondition failed: ValueError: tol must be finite and positive")
    assert out == ""


@pytest.mark.parametrize(
    "kind",
    ["rw_closeness", "rw_betweenness", "unit_closeness", "unit_eccentricity", "perron"],
)
def test_centrality_kinds_all_run(pack, capsys, kind):
    code, out, _ = run(
        capsys,
        "centrality", str(pack / "h_units.json"),
        "--kind", kind, "--horizon", "5",
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert set(results["values"]) == {str(i) for i in range(1, 12)}


def test_exit_two_on_rw_closeness_of_one_vertex_under_zero_self_time(capsys, tmp_path):
    path = tmp_path / "one.json"
    path.write_text('{"vertices": ["a"], "hyperedges": {"e": ["a"]}}', encoding="utf-8")
    code, out, err = run(capsys, "centrality", str(path), "--kind", "rw_closeness", "--policy", "lazy")
    assert code == 0
    assert json.loads(out)["results"]["values"] == {"a": "1"}
    code, out, err = run(
        capsys, "centrality", str(path), "--kind", "rw_closeness", "--policy", "lazy", "--self-time", "zero"
    )
    assert code == 2
    assert err.startswith("precondition failed: TooSmallError:")
    assert out == ""


def test_dot_export_is_plain_graphviz(pack, capsys):
    code, out, _ = run(capsys, "dot", str(pack / "h_a.json"), "--which", "incidence")
    assert code == 0
    assert out.startswith("graph ")
    assert "{" in out and "}" in out


def test_partitions_subcommand(pack, capsys):
    code, out, _ = run(capsys, "partitions", str(pack / "h_eq.json"))
    assert code == 0
    results = json.loads(out)["results"]
    assert results["count"] == 2
    pair = results["partitions"][1]
    assert pair["left"] == ["1", "5"] and pair["right"] == ["2", "3", "4"]
