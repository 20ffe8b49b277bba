"""Command line front end: JSON reports, DOT exports, and theorem checks.

Every subcommand loads one hypergraph, delegates to a single library
operation, and prints a deterministic report. Reports go to stdout as JSON
(or flat key = value lines with --format lines); diagnostics go to stderr.
Exit codes: 0 success, 1 unreadable or unparseable input, 2 precondition
failure (the library error name is printed), 3 a theorem check failed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction

from .centrality import (
    graph_projection,
    perron_centrality,
    rw_betweenness,
    rw_closeness,
    unit_closeness,
    unit_eccentricity,
)
from .errors import (
    HyperlinError,
    IsolatedVertexError,
    SingletonEdgeNonLazyError,
    UnreachableError,
)
from .fixtures import resolve_input_path
from .hypergraph import (
    Hypergraph,
    incidence_graph,
    incidence_matrix,
)
from .linalg import determinant, nullspace, rref
from .randwalk import (
    WalkPolicy,
    first_hit_probabilities,
    hitting_times,
    simulate,
    transition_matrix,
    verify_partition_transition,
)
from .spectra import (
    _MATRIX_BUILDERS,
    build_A_GH,
    hypergraph_spectrum,
    verify_Q_annihilation,
    weight_scheme,
)
from .structures import (
    Certificate,
    CertificateKind,
    VERTEX_AXIS,
    find_equal_edge_partitions,
    is_dependent_set,
    unit_contraction,
    units,
    verify_equal_edge_partition,
    verify_unit_maximality,
)

__all__ = ["main"]


# ---------------------------------------------------------------------------
# report plumbing


def _jsonable(obj):
    """Recursively convert report values into JSON-safe types.

    Fractions become "p/q" strings so reports stay exact; mapping keys are
    stringified (first-hit histograms are keyed by integer step).
    """
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, (frozenset, set)):
        return sorted(str(x) for x in obj)
    return obj


def _render_lines(obj, prefix: str = "") -> list[str]:
    if isinstance(obj, dict):
        out = []
        for k in sorted(obj):
            key = f"{prefix}.{k}" if prefix else str(k)
            out.extend(_render_lines(obj[k], key))
        return out
    if isinstance(obj, list):
        out = []
        for i, x in enumerate(obj):
            out.extend(_render_lines(x, f"{prefix}[{i}]"))
        return out
    return [f"{prefix} = {obj}"]


def _emit(report: dict, fmt: str) -> None:
    safe = _jsonable(report)
    if fmt == "lines":
        print("\n".join(_render_lines(safe)))
    else:
        print(json.dumps(safe, indent=2, sort_keys=True))


def _report(args, h: Hypergraph, parameters: dict, results: dict) -> dict:
    return {
        "command": args.command,
        "input": {"path": str(args.file), "digest": h.digest()},
        "parameters": parameters,
        "results": results,
    }


def _load(args) -> Hypergraph:
    path = resolve_input_path(args.file)
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return Hypergraph.from_json(text)
    return Hypergraph.from_lines(text)


def _policy(name: str) -> WalkPolicy:
    if name == "lazy":
        return WalkPolicy.uniform_lazy()
    return WalkPolicy.uniform_nonlazy()


def _basis_payload(basis) -> list[dict]:
    return [
        {lab: val for lab, val in vec.items() if val != 0} for vec in basis.vectors
    ]


# ---------------------------------------------------------------------------
# subcommands


def cmd_units(args, h: Hypergraph) -> tuple[dict, dict]:
    dec = units(h)
    results = dec.to_json_dict()
    results["count"] = len(dec.units)
    return {}, results


def cmd_contract(args, h: Hypergraph) -> tuple[dict, dict]:
    con = unit_contraction(h)
    results = con.to_json_dict()
    results["vertex_count"] = con.contracted.n_vertices
    results["edge_count"] = con.contracted.n_hyperedges
    return {}, results


def cmd_nullspace(args, h: Hypergraph) -> tuple[dict, dict]:
    inc = incidence_matrix(h)
    if args.axis == "vertices":
        mat, name = inc.transpose(), "incidence transpose"
    elif args.axis == "edges":
        mat, name = inc, "incidence"
    else:
        mat, name = build_A_GH(h), "incidence graph adjacency"
    basis = nullspace(mat)
    results = {
        "axis": args.axis,
        "matrix": name,
        "rank": len(mat.col_labels) - basis.dimension,
        "nullity": basis.dimension,
        "basis": _basis_payload(basis),
    }
    return {"axis": args.axis}, results


def cmd_certify(args, h: Hypergraph) -> tuple[dict, dict]:
    labels = [s for s in args.set.split(",") if s]
    axis = "hyperedges" if args.axis == "edges" else "vertices"
    cert = is_dependent_set(h, labels, axis=axis)
    results = {
        "set": sorted(labels),
        "axis": args.axis,
        "dependent": cert is not None,
        "certificate": cert.to_json_dict() if cert is not None else None,
    }
    return {"set": ",".join(sorted(labels)), "axis": args.axis}, results


def cmd_partitions(args, h: Hypergraph) -> tuple[dict, dict]:
    cap = args.max_support if args.max_support is not None else h.n_vertices
    pairs = find_equal_edge_partitions(h, max_support=cap)
    found = []
    for u_set, v_set in pairs:
        ok, table = verify_equal_edge_partition(h, u_set, v_set)
        found.append(
            {
                "left": sorted(u_set),
                "right": sorted(v_set),
                "verified": ok,
                "edge_counts": {e: list(c) for e, c in table.items()},
            }
        )
    return {"max_support": cap}, {"count": len(found), "partitions": found}


def cmd_spectra(args, h: Hypergraph) -> tuple[dict, dict]:
    params = {"matrix": args.matrix, "weights": args.weights, "tol": args.tol}
    if args.det:
        params["det"] = True
        if args.matrix == "I":
            mat = incidence_matrix(h)
        elif args.matrix == "A_GH":
            mat = build_A_GH(h)
        else:
            mat = _MATRIX_BUILDERS[args.matrix](h, weight_scheme(h, args.weights))
        return params, {"matrix": args.matrix, "determinant": determinant(mat)}
    if args.matrix == "I":
        raise ValueError(
            "the incidence matrix is not symmetric; use --det for its determinant"
        )
    w = None if args.matrix == "A_GH" else weight_scheme(h, args.weights)
    spectrum = hypergraph_spectrum(h, args.matrix, w, tol=args.tol)
    return params, spectrum.to_json_dict()


def cmd_walk(args, h: Hypergraph) -> tuple[dict, dict]:
    tm = transition_matrix(h, _policy(args.policy))
    params = {"policy": args.policy}
    if args.start is None:
        rows = {u: dict(tm.matrix.row(u)) for u in h.vertices}
        return params, {"transition_matrix": rows}
    params.update(
        {
            "start": args.start,
            "steps": args.steps,
            "trajectories": args.trajectories,
            "seed": args.seed,
        }
    )
    sim = simulate(tm, args.start, args.steps, args.trajectories, args.seed)
    return params, sim.to_json_dict()


def cmd_hitting(args, h: Hypergraph) -> tuple[dict, dict]:
    tm = transition_matrix(h, _policy(args.policy))
    params = {
        "policy": args.policy,
        "target": args.target,
        "self_time": args.self_time,
    }
    times = hitting_times(tm, args.target, self_time=args.self_time)
    results = {"target": args.target, "times": times}
    if args.start is not None and args.horizon is not None:
        params.update({"start": args.start, "horizon": args.horizon})
        dist = first_hit_probabilities(tm, args.target, args.horizon, args.start)
        results["first_hit_distribution"] = dist
    return params, results


def cmd_centrality(args, h: Hypergraph) -> tuple[dict, dict]:
    params = {"kind": args.kind}
    if args.kind == "rw_closeness":
        params.update({"policy": args.policy, "self_time": args.self_time})
        rep = rw_closeness(transition_matrix(h, _policy(args.policy)), args.self_time)
    elif args.kind == "rw_betweenness":
        params.update({"policy": args.policy, "horizon": args.horizon})
        rep = rw_betweenness(transition_matrix(h, _policy(args.policy)), args.horizon)
    elif args.kind == "unit_closeness":
        rep = unit_closeness(h)
    elif args.kind == "unit_eccentricity":
        rep = unit_eccentricity(h)
    else:
        params.update({"weights": args.weights, "tol": args.tol})
        rep = perron_centrality(
            h, weight_scheme(h, args.weights).edge_weights, tol=args.tol
        )
    return params, rep.to_json_dict()


def cmd_dot(args, h: Hypergraph) -> tuple[dict, dict]:
    if args.which == "incidence":
        text = incidence_graph(h).to_dot()
    elif args.which == "projection":
        text = graph_projection(h).to_dot()
    else:
        text = unit_contraction(h).to_dot()
    print(text)
    return {}, {}


# ---------------------------------------------------------------------------
# theorem-check suite


def _check_rank_equality(h, inc, checks) -> None:
    r_rows = rref(inc).rank
    r_cols = rref(inc.transpose()).rank
    status = "pass" if r_rows == r_cols else "fail"
    checks.append(
        {
            "name": "rank_equality",
            "status": status,
            "witness": f"rank(I)={r_rows}, rank(I^T)={r_cols}",
        }
    )


def _check_nullity_additivity(h, inc, checks) -> int:
    n_edge = nullspace(inc).dimension
    n_vertex = nullspace(inc.transpose()).dimension
    n_big = nullspace(build_A_GH(h)).dimension
    bound = abs(h.n_vertices - h.n_hyperedges)
    ok = n_big == n_edge + n_vertex and n_big >= bound
    checks.append(
        {
            "name": "nullity_additivity",
            "status": "pass" if ok else "fail",
            "witness": (
                f"nullity(A_GH)={n_big}, nullity(I)={n_edge}, "
                f"nullity(I^T)={n_vertex}, lower bound {bound}"
            ),
        }
    )
    return n_big


def _check_square_determinant(h, inc, n_big, checks) -> None:
    if h.n_vertices != h.n_hyperedges:
        checks.append(
            {
                "name": "square_determinant",
                "status": "not-applicable",
                "witness": f"|V|={h.n_vertices} != |E|={h.n_hyperedges}",
            }
        )
        return
    det = determinant(inc)
    ok = (det != 0) == (n_big == 0)
    checks.append(
        {
            "name": "square_determinant",
            "status": "pass" if ok else "fail",
            "witness": f"det(I)={det}, nullity(A_GH)={n_big}",
        }
    )


def _check_unit_soundness(h, checks):
    dec = units(h)
    sound = True
    for u in dec.units:
        stars = {frozenset(h.star(v)) for v in u.members}
        if len(stars) != 1:
            sound = False
        if len(u.members) >= 2 and not verify_unit_maximality(h, u.members):
            sound = False
    covered = sorted(v for u in dec.units for v in u.members)
    if covered != sorted(h.vertices):
        sound = False
    checks.append(
        {
            "name": "unit_soundness",
            "status": "pass" if sound else "fail",
            "witness": f"{len(dec.units)} units partition {h.n_vertices} vertices",
        }
    )
    return dec


def _check_q_annihilation(h, inc, checks) -> None:
    basis = nullspace(inc.transpose())
    if basis.dimension == 0:
        checks.append(
            {
                "name": "q_annihilation",
                "status": "not-applicable",
                "witness": "nullity(I^T)=0, no certificates",
            }
        )
        return
    presets = ["unit"]
    if all(len(m) >= 2 for _, m in h.hyperedges):
        presets.append("edgenorm")
        if all(h.degree(v) >= 1 for v in h.vertices):
            presets.append("fullnorm")
    ok = True
    for vec in basis.vectors:
        support = frozenset(lab for lab, val in vec.items() if val != 0)
        cert = Certificate(
            CertificateKind.DEPENDENT_VERTICES, support, dict(vec), VERTEX_AXIS
        )
        for preset in presets:
            if not verify_Q_annihilation(h, weight_scheme(h, preset), cert):
                ok = False
    checks.append(
        {
            "name": "q_annihilation",
            "status": "pass" if ok else "fail",
            "witness": (
                f"{basis.dimension} basis certificates under {len(presets)} "
                f"weight presets"
            ),
        }
    )


def _signed_indicator_in_nullspace(h, inc_t, u_set, v_set) -> bool:
    chi = {v: Fraction(1) for v in u_set}
    chi.update({v: Fraction(-1) for v in v_set})
    image = inc_t.apply(chi)
    return all(val == 0 for val in image.values())


def _check_partition_nullspace(h, inc, checks) -> None:
    inc_t = inc.transpose()
    pairs = find_equal_edge_partitions(h, max_support=h.n_vertices)
    ok = True
    for u_set, v_set in pairs:
        counted, _ = verify_equal_edge_partition(h, u_set, v_set)
        if not counted or not _signed_indicator_in_nullspace(h, inc_t, u_set, v_set):
            ok = False
    witness = f"{len(pairs)} partitions from the nullspace all verified by counting"
    if h.n_vertices <= 10:
        found = set(pairs)
        labels = list(h.vertices)
        for assignment in itertools.product((-1, 0, 1), repeat=len(labels)):
            u_set = frozenset(l for l, s in zip(labels, assignment) if s == 1)
            v_set = frozenset(l for l, s in zip(labels, assignment) if s == -1)
            if not u_set and not v_set:
                continue
            for lab in labels:
                if lab in u_set:
                    break
                if lab in v_set:
                    u_set, v_set = v_set, u_set
                    break
            counted, _ = verify_equal_edge_partition(h, u_set, v_set)
            if counted != _signed_indicator_in_nullspace(h, inc_t, u_set, v_set):
                ok = False
            if counted and (u_set, v_set) not in found:
                ok = False
        witness += "; exhaustive counting sweep agreed both directions"
    checks.append(
        {
            "name": "partition_nullspace",
            "status": "pass" if ok else "fail",
            "witness": witness,
        }
    )


def _check_walk_symmetries(h, dec, checks) -> None:
    multi = [u for u in dec.units if len(u.members) >= 2]
    if not multi:
        checks.append(
            {
                "name": "walk_symmetries",
                "status": "not-applicable",
                "witness": "no unit has two or more members",
            }
        )
        return
    try:
        tm = transition_matrix(h, WalkPolicy.uniform_nonlazy())
        tables = {}
        ok = True
        pairs = 0
        for u in multi:
            members = list(u.members)
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    for t in (a, b):
                        if t not in tables:
                            tables[t] = hitting_times(tm, t)
                    if tables[b][a] != tables[a][b]:
                        ok = False
                    for w in h.vertices:
                        if w in (a, b):
                            continue
                        if tables[a][w] != tables[b][w]:
                            ok = False
                    pairs += 1
    except (
        IsolatedVertexError,
        SingletonEdgeNonLazyError,
        UnreachableError,
    ) as exc:
        checks.append(
            {
                "name": "walk_symmetries",
                "status": "not-applicable",
                "witness": type(exc).__name__,
            }
        )
        return
    checks.append(
        {
            "name": "walk_symmetries",
            "status": "pass" if ok else "fail",
            "witness": f"{pairs} unit pairs, exact hitting-time symmetry",
        }
    )


def _check_partition_transition(h, inc, checks) -> None:
    pairs = find_equal_edge_partitions(h, max_support=h.n_vertices)
    if not pairs:
        checks.append(
            {
                "name": "partition_transition",
                "status": "not-applicable",
                "witness": "no equal partitions",
            }
        )
        return
    try:
        tm = transition_matrix(h, WalkPolicy.uniform_nonlazy())
    except (IsolatedVertexError, SingletonEdgeNonLazyError) as exc:
        checks.append(
            {
                "name": "partition_transition",
                "status": "not-applicable",
                "witness": type(exc).__name__,
            }
        )
        return
    two_sided = [(u, v) for u, v in pairs if v]
    ok = all(verify_partition_transition(tm, u, v) for u, v in two_sided)
    checks.append(
        {
            "name": "partition_transition",
            "status": "pass" if ok else "fail",
            "witness": f"{len(two_sided)} partitions balance transition mass",
        }
    )


def cmd_check(args, h: Hypergraph) -> tuple[dict, dict]:
    inc = incidence_matrix(h)
    checks: list[dict] = []
    _check_rank_equality(h, inc, checks)
    n_big = _check_nullity_additivity(h, inc, checks)
    _check_square_determinant(h, inc, n_big, checks)
    dec = _check_unit_soundness(h, checks)
    _check_q_annihilation(h, inc, checks)
    _check_partition_nullspace(h, inc, checks)
    _check_partition_transition(h, inc, checks)
    _check_walk_symmetries(h, dec, checks)
    results = {
        "nullity_A_GH": n_big,
        "theorem_checks": checks,
        "failed": sum(1 for c in checks if c["status"] == "fail"),
    }
    return {}, results


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperlin",
        description="Exact dependence structure, spectra, walks, and "
        "centralities of hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="hypergraph file (.json or label: members lines)")
        p.add_argument(
            "--format",
            choices=["json", "lines"],
            default="json",
            help="report format on stdout",
        )
        return p

    add("units", "unit decomposition (star-equivalence classes)")
    add("contract", "quotient by the unit partition")

    p = add("nullspace", "canonical nullspace basis of an incidence axis")
    p.add_argument(
        "--axis",
        choices=["vertices", "edges", "incidence"],
        default="vertices",
        help="vertices: ker I^T, edges: ker I, incidence: ker A_GH",
    )

    p = add("certify", "find a dependence certificate inside a given set")
    p.add_argument("--set", required=True, help="comma separated labels")
    p.add_argument("--axis", choices=["vertices", "edges"], default="vertices")

    p = add("partitions", "equal partitions (U, V) via the nullspace")
    p.add_argument("--max-support", type=int, default=None)

    p = add("spectra", "eigenvalues (or exact determinant) of a matrix")
    p.add_argument(
        "--matrix", choices=["Q", "A", "L", "K", "D", "A_GH", "I"], default="A"
    )
    p.add_argument(
        "--weights", choices=["unit", "edgenorm", "fullnorm"], default="unit"
    )
    p.add_argument("--det", action="store_true", help="exact determinant instead")
    p.add_argument("--tol", type=float, default=1e-12)

    p = add("walk", "transition matrix, or seeded simulation with --start")
    p.add_argument("--policy", choices=["nonlazy", "lazy"], default="nonlazy")
    p.add_argument("--start", default=None)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--trajectories", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = add("hitting", "exact expected hitting times onto a target")
    p.add_argument("--policy", choices=["nonlazy", "lazy"], default="nonlazy")
    p.add_argument("--target", required=True)
    p.add_argument("--self-time", choices=["return", "zero"], default="return")
    p.add_argument("--start", default=None, help="with --horizon: first-hit law")
    p.add_argument("--horizon", type=int, default=None)

    p = add("centrality", "one centrality report")
    p.add_argument(
        "--kind",
        choices=[
            "rw_closeness",
            "rw_betweenness",
            "unit_closeness",
            "unit_eccentricity",
            "perron",
        ],
        required=True,
    )
    p.add_argument("--policy", choices=["nonlazy", "lazy"], default="nonlazy")
    p.add_argument("--horizon", type=int, default=100)
    p.add_argument("--self-time", choices=["return", "zero"], default="return")
    p.add_argument(
        "--weights", choices=["unit", "edgenorm", "fullnorm"], default="unit"
    )
    p.add_argument("--tol", type=float, default=1e-12)

    add("check", "run every applicable theorem check")

    p = add("dot", "graphviz DOT export")
    p.add_argument(
        "--which",
        choices=["incidence", "projection", "contraction"],
        default="incidence",
    )
    return parser


_HANDLERS = {
    "units": cmd_units,
    "contract": cmd_contract,
    "nullspace": cmd_nullspace,
    "certify": cmd_certify,
    "partitions": cmd_partitions,
    "spectra": cmd_spectra,
    "walk": cmd_walk,
    "hitting": cmd_hitting,
    "centrality": cmd_centrality,
    "check": cmd_check,
    "dot": cmd_dot,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        h = _load(args)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, HyperlinError) as exc:
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    try:
        parameters, results = _HANDLERS[args.command](args, h)
    except (HyperlinError, ValueError) as exc:
        print(f"precondition failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.command == "dot":
        return 0
    report = _report(args, h, parameters, results)
    if args.command == "check":
        report["theorem_checks"] = report["results"].pop("theorem_checks")
    _emit(report, args.format)
    if args.command == "check" and results["failed"]:
        print(f"{results['failed']} theorem check(s) failed", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
