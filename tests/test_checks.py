"""The theorem check engine: each fact computed once, and each check a real verifier."""

import pytest

from hyperlin import checks, spectra, structures
from hyperlin import fixtures as fx
from hyperlin.checks import run_checks
from hyperlin.structures import Unit, UnitDecomposition


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


def test_each_partition_is_counted_once(monkeypatch):
    h = fx.balanced_overlap()
    found = structures.find_equal_edge_partitions(h, max_support=h.n_vertices)
    counted = []
    real = structures.verify_equal_edge_partition

    def counting(h, u_part, v_part):
        counted.append((frozenset(u_part), frozenset(v_part)))
        return real(h, u_part, v_part)

    monkeypatch.setattr(structures, "verify_equal_edge_partition", counting)
    monkeypatch.setattr(checks, "verify_equal_edge_partition", counting)
    assert statuses(run_checks(h))["partition_nullspace"] == "pass"
    # every found pair once, then each unordered pair of the 3^5 sweep once
    sweep = (3 ** h.n_vertices - 1) // 2
    assert len(counted) == len(found) + sweep
    assert len(set(counted[len(found):])) == sweep


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
