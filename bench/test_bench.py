"""Tests of the benchmark itself: ``python -m pytest -q bench``.

They use the smallest inputs of each workload, so they take a few seconds.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from time import perf_counter, sleep

import pytest

import oracles
import run
import workloads
from tracer import TARGETS, Tracer


@pytest.fixture
def loaded(tmp_path):
    sys.path.insert(0, str(run.ROOT / "src"))

    def load(workload, prefix):
        _, hl, instances, paths = run.setup(workload, 0, tmp_path)
        ops = workloads.make_ops(workload, hl, instances, paths)
        ref = run.load_reference(workload, 0)
        return hl, [op for op in ops if op.name.startswith(prefix)], ref

    yield load
    sys.path.remove(str(run.ROOT / "src"))


def _measure(ops, ref, tracer=None):
    return run.measure(ops, ref, 0.0, perf_counter() + 60.0, tracer)


def _originals():
    return {
        (m, a): (vars(sys.modules[f"hyperlin.{m}"])[a] if "." not in a else
                 vars(getattr(sys.modules[f"hyperlin.{m}"], a.split(".")[0]))[a.split(".")[1]])
        for m, a, *_ in TARGETS
    }


def test_reference_passes_and_tampering_raises_fail_ratio(loaded):
    hl, ops, ref = loaded("walks", "w12:")
    ops = [op for op in ops if not op.name.endswith("rw_betweenness")]
    clean = _measure(ops, ref)
    assert clean["failed"] == {}
    assert clean["passes"] == run.MIN_PASSES

    tampered = dict(ref, **{"w12:hitting": "0" * 64})
    result = _measure(ops, tampered)
    failed = {ops[i].name: reason for i, reason in result["failed"].items()}
    assert failed == {"w12:hitting": "output differs from the reference"}


def test_oracle_rejects_a_wrong_output_with_no_digest(loaded):
    hl, ops, ref = loaded("spectra", "s30:spectrum:Q")
    (op,) = ops
    honest = op.call()
    op.call = lambda: hl.Spectrum(honest.matrix_kind, honest.tolerance, ((1.0, honest.dimension),))
    result = _measure([op], ref)
    assert result["failed"] == {0: "independent oracle disagrees"}

    op.call = lambda: None
    result = _measure([op], ref)
    assert result["failed"][0].startswith("output cannot be read")


def test_op_over_the_time_cap_fails_and_the_run_goes_on(loaded, monkeypatch):
    hl, ops, ref = loaded("walks", "w12:transition")

    def spin():
        while True:
            pass

    monkeypatch.setattr(run, "OP_CAP_S", 0.2)
    stuck = workloads.Op("stuck", spin, None, lambda out: True)
    result = _measure([stuck] + ops, ref)
    assert set(result["failed"]) == {0}
    assert "time cap" in result["failed"][0]
    assert all(s.wall < 1.0 for s in result["best"][False][1:])


def test_traced_spans_nest_and_self_times_fit_in_the_wall_time(loaded, monkeypatch):
    hl, ops, ref = loaded("check", "check:h_units")
    (op,) = ops
    monkeypatch.setattr(run, "TICK_S", 0.01)  # so speed readings land inside spans
    tracer = Tracer()
    tracer.install()
    try:
        t0 = perf_counter()
        _, _, out = run.timed_call(op.call, 60.0, tracer)
        wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    assert run.check_output(op, out, ref, True) is None
    spans = tracer.spans
    assert spans[0][0] == "cli" and spans[0][1] == -1
    for name, parent, start, end, _ in spans:
        assert start <= end
        if parent >= 0:
            assert spans[parent][2] <= start and end <= spans[parent][3]
    names = {s[0] for s in spans}
    assert {"hypergraph.parse", "linalg.rref", "structures.partitions", "spectra.build"} <= names
    totals = tracer.layer_totals()
    self_times = [v for k, v in totals.items() if k.endswith(".self_s")]
    assert all(t >= -1e-9 for t in self_times)
    paused = sum(seconds for parent, seconds in tracer.pauses if parent >= 0)
    assert tracer.pauses and paused > 0
    assert sum(self_times) + paused <= wall
    assert sum(self_times) >= 0.5 * (wall - paused)


def test_time_paused_inside_a_span_is_left_out_of_its_self_time():
    tracer = Tracer()
    inner = tracer._wrap(lambda: tracer.pause(lambda: sleep(0.05)), "inner", None)
    outer = tracer._wrap(lambda: (inner(), tracer.pause(lambda: sleep(0.05))), "outer", None)
    outer()
    totals = tracer.layer_totals()
    assert [parent for parent, _ in tracer.pauses] == [1, 0]
    assert totals["inner.self_s"] < 0.02 and totals["outer.self_s"] < 0.02


def test_untraced_run_installs_no_wrappers(loaded, monkeypatch):
    hl, ops, ref = loaded("walks", "w12:")
    ops = [op for op in ops if op.name.endswith(("hitting", "transition:lazy"))]
    before = _originals()
    probe = workloads.Op("probe", lambda: _originals() == before, None, lambda same: same is True)

    def refuse(self):
        raise AssertionError("untraced run installed the tracer")

    monkeypatch.setattr(Tracer, "install", refuse)
    result = _measure(ops + [probe], ref)
    assert result["failed"] == {}
    monkeypatch.undo()

    traced = _measure(ops, ref, Tracer())
    assert traced["failed"] == {}
    layers = {op.name: traced["best"][True][i].layers for i, op in enumerate(ops)}
    assert layers["w12:hitting"]["randwalk.hitting.calls"] == 1
    assert _originals() == before


def test_generated_families_have_their_properties():
    rng = random.Random(7)
    for k in (4, 5, 6):
        inst = workloads.generate.twins_with_hub(rng, "t", k)
        assert inst.vertex_nullity() == k
    for n in workloads.SPECTRA_N:
        inst = workloads.generate.spectra_family(rng, n)
        assert oracles.is_connected(inst) and 4 * inst.vertex_nullity() >= n


def test_int_rank_matches_exact_rational_rank():
    sys.path.insert(0, str(run.ROOT / "src"))
    import hyperlin

    rng = random.Random(3)
    for _ in range(20):
        rows = [[rng.choice((0, 0, 1, 2)) for _ in range(9)] for _ in range(7)]
        m = hyperlin.RationalMatrix.from_rows([f"r{i}" for i in range(7)], [f"c{j}" for j in range(9)], rows)
        assert oracles.int_rank(rows) == hyperlin.rank(m)


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "walks", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_times_are_scaled_by_the_speed_readings_around_them():
    ref = run.CALIBRATION_REF_S
    steady = run.Sample([0.1, 0.2], [2 * ref, 2 * ref, 2 * ref])
    assert steady.steady and steady.time == pytest.approx(0.15)
    straddling = run.Sample([0.1, 0.1], [ref, ref, 3 * ref])
    assert not straddling.steady and straddling.time == pytest.approx(0.1 + 0.05)
    assert straddling.wall == pytest.approx(0.2)
    assert run.best_sample([straddling, steady]) is steady
    assert run.best_sample([straddling]) is straddling
