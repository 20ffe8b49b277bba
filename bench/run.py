#!/usr/bin/env python3
"""hyperlin benchmark: one workload, one process, one thread.

    python3 bench/run.py --workload check --seed 3 --seconds 36 --trace 0

Run from the repository root (it imports hyperlin from ``src/`` and reads
``fixtures/``). Set-up imports hyperlin in a fresh interpreter and generates
and writes the seeded inputs; it is repeated SETUP_REPEATS times and the
median is reported. Then whole passes over the workload's ops run until the
next pass would end after ``--seconds``, with at least MIN_PASSES passes.
An op's time is its best pass: the one with the least wall time, at
reference speed. Every output is checked against the recorded reference
digest and an independent oracle; an op that raises, goes over its time cap
or disagrees counts as failed.

Times are reported at reference machine speed. The host of the 2-core VM
this benchmark was built on slows every core by up to 1.8x, in spells from
a second to minutes, which no number of repeats averages out. So the speed
is read with a fixed calibration kernel before and after every timed
interval and every TICK_S inside it, and each stretch of wall time between
two readings counts as stretch * CALIBRATION_REF_S / (mean of the two
kernel times). The kernel is pure-Python Fraction elimination like
hyperlin's hot loops and lives here, so no change to the program moves it;
its own time is left out of the op and, in traced passes, out of the layer
self times. Raw best times and the machine's speed
factor are printed too.

With ``--trace 1`` passes alternate between untraced and traced, and the
per-layer metrics come from each op's best traced pass. The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 9
MIN_PASSES = 2
#: Far above the slowest op at the parent commit (about 3 s on a slow
#: host), so only a blow-up is cut off.
OP_CAP_S = 60.0
#: Ops still pending this long after start fail, so a run always ends within
#: three minutes however the program misbehaves.
HARD_LIMIT_S = 150.0
#: Calibration kernel time that defines reference speed: its best time on
#: the 2-core VM above while the host is quiet.
CALIBRATION_REF_S = 0.0025
#: A repeat whose speed readings differ by more than this factor saw the
#: machine change speed; it is used only if no repeat is steady.
CALIBRATION_DRIFT = 1.10
#: Interval of the speed readings taken while an op runs.
TICK_S = 0.25
REFERENCE = HERE / "reference.json"

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "slowest_op_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "linalg.rref.self_s": "s",
    "linalg.rref.calls": "count",
    "linalg.rref.cells": "count",
    "linalg.solve.self_s": "s",
    "linalg.solve.calls": "count",
    "linalg.matmul.self_s": "s",
    "linalg.determinant.self_s": "s",
    "linalg.nullspace.self_s": "s",
    "structures.partitions.self_s": "s",
    "structures.partitions.calls": "count",
    "structures.partitions.found": "count",
    "structures.verify_partition.calls": "count",
    "structures.units.self_s": "s",
    "spectra.build.self_s": "s",
    "spectra.eig.self_s": "s",
    "spectra.eig.calls": "count",
    "spectra.verify.self_s": "s",
    "randwalk.transition.self_s": "s",
    "randwalk.hitting.self_s": "s",
    "randwalk.hitting.calls": "count",
    "randwalk.first_hit.self_s": "s",
    "randwalk.simulate.self_s": "s",
    "randwalk.simulate.draws": "count",
    "centrality.rw_closeness.self_s": "s",
    "centrality.rw_betweenness.self_s": "s",
    "centrality.perron.self_s": "s",
    "centrality.perron.iterations": "count",
    "hypergraph.parse.self_s": "s",
    "hypergraph.incidence.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _calibration_kernel() -> None:
    a = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(10)] for i in range(9)]
    for c in range(9):
        piv = next(i for i in range(c, 9) if a[i][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        inv = a[c][c]
        a[c] = [x / inv for x in a[c]]
        for i in range(9):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]


def calibrate() -> float:
    """Best of three calibration kernel runs, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _calibration_kernel()
        best = min(best, perf_counter() - t0)
    return best


class Sample:
    """One timed interval, cut by speed readings into stretches of wall time.

    ``readings`` are calibration times; stretch k lies between readings k
    and k + 1 and is scaled by CALIBRATION_REF_S over their mean.
    """

    __slots__ = ("wall", "time", "steady", "layers")

    def __init__(self, stretches: list[float], readings: list[float], layers: dict | None = None):
        self.wall = sum(stretches)
        self.time = sum(
            w * 2 * CALIBRATION_REF_S / (a + b) for w, a, b in zip(stretches, readings, readings[1:])
        )
        self.steady = max(readings) <= CALIBRATION_DRIFT * min(readings)
        self.layers = layers

    @property
    def scale(self) -> float:
        """Reference seconds per raw second over the interval."""
        return self.time / self.wall if self.wall else 1.0


def best_sample(samples: list[Sample]) -> Sample | None:
    """The steady sample with the least wall time (any sample if none is steady).

    It ran while the machine was fastest, where the speed correction is
    smallest. Taking the least corrected time instead picks whichever pass
    the correction happened to undercount; on the slowest walks op that
    doubled the spread over seeds.
    """
    steady = [s for s in samples if s.steady] or samples
    return min(steady, key=lambda s: s.wall, default=None)


class OpTimeout(BaseException):
    """Raised from SIGALRM inside an op; a BaseException so no handler in
    the program swallows it."""


def timed_call(fn, cap: float, tracer: Tracer | None = None):
    """Run ``fn()``; return its stretches, speed readings and result.

    Speed is read before and after, and by a SIGALRM tick TICK_S after the
    start and after each tick while it runs. A tick's own time is left out of the op's stretches and,
    when ``tracer`` is installed, out of the self time of the span it
    interrupts. The tick raises OpTimeout once the op has run for ``cap``
    seconds.
    """
    readings = [calibrate()]
    stretches: list[float] = []
    mark = 0.0

    def tick(signum, frame):
        nonlocal mark
        stretches.append(perf_counter() - mark)
        readings.append(calibrate() if tracer is None else tracer.pause(calibrate))
        mark = perf_counter()
        if sum(stretches) > cap:
            raise OpTimeout
        signal.setitimer(signal.ITIMER_REAL, TICK_S)  # one-shot: ticks never nest

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, TICK_S)
    try:
        mark = perf_counter()
        out = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = perf_counter()
        signal.signal(signal.SIGALRM, previous)
    stretches.append(end - mark)
    readings.append(calibrate())
    return stretches, readings, out


def setup(workload: str, variant: int, work: Path):
    """Import hyperlin, then generate and write the inputs.

    The timed part is what a user waits for before the first op: a fresh
    interpreter importing ``hyperlin`` and ``hyperlin.cli`` (so everything
    they load at import time, numpy included, counts even though this
    process has loaded it already), then generating and writing the inputs.
    The ops use hyperlin as imported into this process, untimed.
    """
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import hyperlin, hyperlin.cli"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        check=True, timeout=60,
    )
    instances = workloads.generate_inputs(workload, variant, ROOT)
    paths = workloads.input_paths(ROOT, instances, work)
    elapsed = perf_counter() - t0
    hl = importlib.import_module("hyperlin")
    importlib.import_module("hyperlin.cli")
    return elapsed, hl, instances, paths


def check_output(op, out, ref: dict, oracle: bool) -> str | None:
    """Why ``out`` is wrong, or None. The oracle runs when ``oracle`` is set."""
    try:
        if op.canon is not None:
            want = ref.get(op.name)
            if want is None:
                return "no reference digest"
            if workloads.digest(op.canon(out)) != want:
                return "output differs from the reference"
        if oracle and not op.oracle(out):
            return "independent oracle disagrees"
    except Exception as exc:  # an output the checks cannot read is wrong
        return f"output cannot be read: {type(exc).__name__}: {exc}"
    return None


def measure(ops, ref: dict, seconds: float, deadline: float, tracer: Tracer | None = None) -> dict:
    """Run whole passes over ``ops``; return each op's best sample per mode.

    ``best[False]`` holds untraced and ``best[True]`` traced samples (None
    where an op never ran). A failed op is listed in ``failed`` with the
    reason and is not run again.
    """
    samples: dict[bool, list[list[Sample]]] = {False: [[] for _ in ops], True: [[] for _ in ops]}
    failed: dict[int, str] = {}
    checked: set[int] = set()
    passes, last = 0, 0.0
    start = perf_counter()
    while passes < MIN_PASSES or perf_counter() - start + last <= seconds:
        traced = tracer is not None and passes % 2 == 1
        p0 = perf_counter()
        if traced:
            tracer.install()
        try:
            for i, op in enumerate(ops):
                if i in failed:
                    continue
                remaining = deadline - perf_counter()
                if remaining <= 0:
                    failed[i] = "not run before the run deadline"
                    continue
                cap = min(OP_CAP_S, remaining)
                gc.collect()
                if traced:
                    tracer.reset()
                try:
                    stretches, readings, out = timed_call(op.call, cap, tracer if traced else None)
                except OpTimeout:
                    failed[i] = f"over the {cap:.0f} s time cap"
                    continue
                except Exception as exc:  # an op that raises is a failed op
                    failed[i] = f"raised {type(exc).__name__}: {exc}"
                    continue
                totals = tracer.layer_totals() if traced else None
                problem = check_output(op, out, ref, op.canon is None or i not in checked)
                if problem:
                    failed[i] = problem
                    continue
                checked.add(i)
                samples[traced][i].append(Sample(stretches, readings, totals))
        finally:
            if traced:
                tracer.uninstall()
        last = perf_counter() - p0
        passes += 1
    best = {mode: [best_sample(s) for s in per_op] for mode, per_op in samples.items()}
    scales = [s.scale for per_op in samples.values() for op_samples in per_op for s in op_samples]
    return {
        "best": best,
        "failed": failed,
        "passes": passes,
        "speed": statistics.median(scales) if scales else 1.0,
    }


def _ok(result: dict) -> list[int]:
    return [i for i in range(len(result["best"][False])) if i not in result["failed"]]


def end_to_end(result: dict, setup: list[Sample]) -> dict[str, float]:
    bests = [result["best"][False][i].time for i in _ok(result)]
    total = sum(bests)
    return {
        "ops_per_s": len(bests) / total if total else 0.0,
        "op_p50_ms": 1000.0 * statistics.median(bests) if bests else 0.0,
        "slowest_op_s": max(bests, default=0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(s.time for s in setup),
    }


def per_layer(result: dict) -> dict[str, float]:
    """Layer totals of each op's best traced sample, self times at reference speed."""
    out = {name: 0 for name in PER_LAYER}
    ok = _ok(result)
    for i in ok:
        sample = result["best"][True][i]
        for key, value in sample.layers.items():
            if key in out:
                out[key] += value * sample.scale if key.endswith(".self_s") else value
    untraced = sum(result["best"][False][i].time for i in ok)
    traced = sum(result["best"][True][i].time for i in ok)
    out["trace.overhead_ratio"] = traced / untraced if untraced else 0.0
    return out


def load_reference(workload: str, variant: int) -> dict:
    data = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if data["variants"] != workloads.VARIANTS:
        raise ValueError("reference.json was recorded for another variant count")
    return data["digests"][workload][str(variant)]


def main() -> int:
    t_start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "hyperlin" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"error: no hyperlin source tree (src/hyperlin, fixtures/) under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    variant = workloads.variant_of(args.seed)
    ref = load_reference(args.workload, variant)

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_samples = []
        for _ in range(SETUP_REPEATS):
            before = calibrate()
            elapsed, hl, instances, paths = setup(args.workload, variant, work)
            setup_samples.append(Sample([elapsed], [before, calibrate()]))
        ops = workloads.make_ops(args.workload, hl, instances, paths)
        tracer = Tracer() if args.trace else None
        result = measure(ops, ref, args.seconds, t_start + HARD_LIMIT_S, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's inputs are still there
            pass

    failed = result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  input variant {variant}  "
          f"passes {result['passes']}  trace {args.trace}  "
          f"machine speed {result['speed']:.3f} of reference")
    for i, op in enumerate(ops):
        best = result["best"][False][i]
        status = (f"FAILED: {failed[i]}" if i in failed
                  else f"best {best.time:.6f} s at reference speed ({best.wall:.6f} s raw)")
        print(f"  op {op.name:32s} {status}")
    e2e = end_to_end(result, setup_samples)
    print(f"  fail_ratio {len(failed) / len(ops):.4f} ({len(failed)} of {len(ops)} ops)")
    for name, unit in END_TO_END.items():
        note = f"  (median of {len(ops) - len(failed)} op best times)" if name == "op_p50_ms" else ""
        print(f"  {name} {e2e[name]:.6g} {unit}{note}")
    if args.trace:
        metrics, units = per_layer(result), PER_LAYER
    else:
        metrics, units = e2e, END_TO_END
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
