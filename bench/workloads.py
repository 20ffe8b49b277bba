"""The three workloads: their seeded inputs and the ops that call hyperlin.

An op is one public call on one input. Each op carries two checks: a
canonical form of its exact output, whose digest must match the reference
recorded in ``reference.json``, and an independent oracle from
``oracles.py``. Float outputs (spectra, Perron) have no digest; the oracle
compares them with numpy by tolerance.

Sizes keep one pass over a workload at a few seconds on a 2-core VM (check
about 6 s, spectra and walks about 3 s at reference speed), so a run of
36 s gets five or more passes and every op a best time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import generate
import oracles
from generate import Instance

#: Seeds map onto this many recorded labelings (seed mod VARIANTS), so
#: every run can be compared against a reference recorded at the parent.
VARIANTS = 16

#: The hypergraph fixtures shipped with the repository (h_cov_map is a
#: vertex map, not a hypergraph).
CHECK_FIXTURES = ("h_a", "h_circ_4", "h_cov_base", "h_cov_source", "h_eq", "h_tri_4", "h_units")
CHECK_RANDOM_N = (20, 30)
CHECK_TWINS_K = (3, 5, 6)
SPECTRA_N = (20, 30)
SPECTRA_CERTIFICATES = 2
WALKS_N = (12, 16, 20)
WALKS_BETWEENNESS_N = (12,)
FIRST_HIT_HORIZON = 50
BETWEENNESS_HORIZON = 10
SIM_TRAJECTORIES, SIM_STEPS, SIM_SEED = 1000, 200, 20221205

WORKLOADS = ("check", "spectra", "walks")


@dataclass
class Op:
    """One timed call. ``canon`` gives the exact output's canonical form, or
    None for float outputs; ``oracle`` returns True when the output is right."""

    name: str
    call: Callable[[], object]
    canon: Callable[[object], object] | None
    oracle: Callable[[object], bool]


def digest(form) -> str:
    text = json.dumps(form, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _read_fixture(root: Path, name: str) -> Instance:
    data = json.loads((root / "fixtures" / f"{name}.json").read_text(encoding="utf-8"))
    edges = tuple((label, frozenset(m)) for label, m in data["hyperedges"].items())
    return Instance(name, tuple(data["vertices"]), edges)


def generate_inputs(workload: str, variant: int, root: Path) -> list[Instance]:
    """All instances of a workload, labeled by the variant.

    Each random structure comes from a seed fixed by its name; the variant
    seed permutes its labels (fixtures are read as shipped).
    """
    naming = random.Random(f"{workload}:{variant}")

    def connected(name: str, n: int) -> Instance:
        return generate.random_connected(random.Random(f"{workload}:{name}"), name, n, 3 * n // 2)

    if workload == "check":
        out = [_read_fixture(root, name) for name in CHECK_FIXTURES]
        out += [generate.relabeled(connected(f"r{n}", n), naming) for n in CHECK_RANDOM_N]
        out += [generate.twins_with_hub(naming, f"t{k}", k) for k in CHECK_TWINS_K]
        return out
    if workload == "spectra":
        return [
            generate.relabeled(generate.spectra_family(random.Random(f"{workload}:s{n}"), n), naming)
            for n in SPECTRA_N
        ]
    if workload == "walks":
        return [generate.relabeled(connected(f"w{n}", n), naming) for n in WALKS_N]
    raise ValueError(f"unknown workload {workload!r}")


# -- canonical forms of exact outputs ---------------------------------------------


def _vec(x) -> list[str]:
    return [f"{k}={v}" for k, v in x.items()]


def _frac(x) -> str:
    return "None" if x is None else str(x)


def _matrix(tm) -> dict[str, dict[str, Fraction]]:
    m = tm.matrix
    return {u: dict(zip(m.col_labels, row)) for u, row in zip(m.row_labels, m.entries)}


def _rows(tm) -> list:
    m = tm.matrix
    return [list(m.col_labels)] + [[u] + [str(x) for x in row] for u, row in zip(m.row_labels, m.entries)]


def _sim(res) -> list:
    return [
        list(res.visit_counts.items()),
        [[v, sorted(res.first_hits[v].items())] for v in res.visit_counts],
    ]


# -- workloads --------------------------------------------------------------------


def _check_ops(hl, instances, paths) -> list[Op]:
    ops = []
    for inst, path in zip(instances, paths):
        arg = str(path)

        def call(arg=arg):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = hl.cli.main(["check", arg])
            return code, out.getvalue()

        def canon(res, arg=arg, name=inst.name):
            code, text = res
            return [code, text.replace(json.dumps(arg), json.dumps(name))]

        def oracle(res, inst=inst):
            code, text = res
            report = json.loads(text)
            statuses = {c["status"] for c in report["theorem_checks"]}
            n, m = len(inst.vertices), len(inst.edges)
            nullity = n + m - 2 * oracles.int_rank(oracles.incidence_rows(inst))
            return (
                code == 0
                and report["results"]["failed"] == 0
                and statuses <= {"pass", "not-applicable"}
                and report["results"]["nullity_A_GH"] == nullity
            )

        ops.append(Op(f"check:{inst.name}", call, canon, oracle))
    return ops


def _certificates(hl, h, inst, basis):
    """The first basis vectors as vertex certificates, each checked by I^T x = 0."""
    certs = []
    for vec in basis.vectors[:SPECTRA_CERTIFICATES]:
        if not oracles.annihilated_by_incidence_t(inst, vec):
            raise AssertionError(f"{inst.name}: basis vector is not in ker I^T")
        certs.append(
            hl.Certificate(hl.CertificateKind.DEPENDENT_VERTICES, hl.vector_support(vec), dict(vec), hl.structures.VERTEX_AXIS)
        )
    return certs


def _spectra_ops(hl, instances, paths) -> list[Op]:
    ops = []
    for inst, path in zip(instances, paths):
        h = hl.parse(path.read_text(encoding="utf-8"))
        nullity = len(inst.vertices) - oracles.int_rank(oracles.incidence_rows(inst))
        p = inst.name

        def basis_ok(b, inst=inst, nullity=nullity):
            return b.dimension == nullity and all(
                oracles.annihilated_by_incidence_t(inst, v) for v in b.vectors
            )

        ops.append(Op(
            f"{p}:nullspace",
            lambda h=h: hl.nullspace(hl.incidence_matrix(h).transpose()),
            lambda b: [_vec(v) for v in b.vectors],
            basis_ok,
        ))
        for kind, preset in (("Q", "unit"), ("A", "edgenorm"), ("L", "fullnorm"), ("A_GH", None)):
            ops.append(Op(
                f"{p}:spectrum:{kind}",
                lambda h=h, kind=kind, preset=preset: hl.hypergraph_spectrum(
                    h, kind, None if preset is None else hl.weight_scheme(h, preset)
                ),
                None,
                lambda s, inst=inst, kind=kind: oracles.spectrum_matches(inst, kind, s.values()),
            ))
        certs = _certificates(hl, h, inst, hl.nullspace(hl.incidence_matrix(h).transpose()))
        for i, cert in enumerate(certs):
            x = cert.coefficients
            ops.append(Op(
                f"{p}:verify_Q:c{i}",
                lambda h=h, cert=cert: hl.verify_Q_annihilation(h, hl.unit_weights(h), cert),
                str,
                lambda ok, inst=inst, x=x: ok is True and oracles.q_annihilates(inst, x),
            ))

            def eigen_ok(value, inst=inst, x=x):
                constant = oracles.degree_constant_on_support(inst, x)
                if value is None:
                    return not constant
                return constant and oracles.adjacency_eigen(inst, x, value)

            ops.append(Op(
                f"{p}:verify_A:c{i}",
                lambda h=h, cert=cert: hl.verify_A_eigenvalue(h, hl.edge_normalized_weights(h), cert),
                _frac,
                eigen_ok,
            ))
        ops.append(Op(
            f"{p}:perron",
            lambda h=h: hl.perron_centrality(h),
            None,
            lambda r, inst=inst: oracles.perron_matches(inst, r.values, r.parameters["spectral_radius"]),
        ))
    return ops


def _walks_ops(hl, instances, paths) -> list[Op]:
    ops = []
    for inst, path in zip(instances, paths):
        h = hl.parse(path.read_text(encoding="utf-8"))
        p = inst.name
        n = len(inst.vertices)
        target, start = inst.vertices[0], inst.vertices[-1]
        kernel = oracles.transition(inst, lazy=False)
        times = oracles.hitting_times(kernel, target)
        tm = hl.transition_matrix(h, hl.WalkPolicy.uniform_nonlazy())
        for lazy in (False, True):
            policy = "lazy" if lazy else "nonlazy"
            ops.append(Op(
                f"{p}:transition:{policy}",
                lambda h=h, lazy=lazy: hl.transition_matrix(
                    h, hl.WalkPolicy.uniform_lazy() if lazy else hl.WalkPolicy.uniform_nonlazy()
                ),
                _rows,
                lambda t, inst=inst, lazy=lazy: oracles.same_kernel(inst, _matrix(t), lazy),
            ))
        ops.append(Op(
            f"{p}:hitting",
            lambda tm=tm, target=target: hl.hitting_times(tm, target),
            _vec,
            lambda ht, kernel=kernel, target=target: oracles.hitting_identity(kernel, target, ht),
        ))
        ops.append(Op(
            f"{p}:rw_closeness",
            lambda tm=tm: hl.rw_closeness(tm),
            lambda r: _vec(r.values),
            lambda r, n=n, target=target, times=times: r.values[target]
            == Fraction(n) / sum(times.values(), Fraction(0))
            and all(v > 0 for v in r.values.values()),
        ))
        ops.append(Op(
            f"{p}:first_hit",
            lambda tm=tm, target=target, start=start: hl.first_hit_probabilities(
                tm, target, FIRST_HIT_HORIZON, start
            ),
            lambda law: [str(x) for x in law],
            lambda law, kernel=kernel, target=target, start=start: len(law) == FIRST_HIT_HORIZON
            and oracles.first_hit_law(kernel, target, start, law),
        ))

        def sim_ok(res, inst=inst):
            visits = sum(res.visit_counts.values())
            hits = all(
                1 <= t <= SIM_STEPS and sum(res.first_hits[v].values()) <= SIM_TRAJECTORIES
                for v in inst.vertices for t in res.first_hits[v]
            )
            return visits == SIM_TRAJECTORIES * (SIM_STEPS + 1) and hits

        ops.append(Op(
            f"{p}:simulate",
            lambda tm=tm, start=start: hl.simulate(tm, start, SIM_STEPS, SIM_TRAJECTORIES, SIM_SEED),
            _sim,
            sim_ok,
        ))
        if n in WALKS_BETWEENNESS_N:
            ops.append(Op(
                f"{p}:rw_betweenness",
                lambda tm=tm: hl.rw_betweenness(tm, BETWEENNESS_HORIZON),
                lambda r: _vec(r.values),
                lambda r, inst=inst: list(r.values) == list(inst.vertices)
                and all(v >= 0 for v in r.values.values()),
            ))
    return ops


_BUILDERS = {"check": _check_ops, "spectra": _spectra_ops, "walks": _walks_ops}


def make_ops(workload: str, hl, instances, paths) -> list[Op]:
    """Ops of a workload over its written inputs. Untimed: parses and prepares."""
    return _BUILDERS[workload](hl, instances, paths)


def input_paths(root: Path, instances, work: Path) -> list[Path]:
    """Fixtures are read in place; generated instances are written to ``work``."""
    return [
        root / "fixtures" / f"{inst.name}.json" if inst.name in CHECK_FIXTURES else inst.write(work)
        for inst in instances
    ]
