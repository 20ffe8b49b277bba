"""Command line front end: JSON reports, DOT exports, and theorem checks.

Every subcommand loads one hypergraph, delegates to a single library
operation, and prints a deterministic report. Reports go to stdout as JSON
(or flat key = value lines with --format lines); diagnostics go to stderr.
Exit codes: 0 success, 1 unreadable or unparseable input, 2 precondition
failure (the library error name is printed), 3 a theorem check failed.
"""

from __future__ import annotations

import argparse
import functools
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
from .checks import run_checks
from .errors import HyperlinError
from .fixtures import resolve_input_path
from .hypergraph import (
    Hypergraph,
    incidence_graph,
    incidence_matrix,
    parse,
)
from .linalg import determinant, nullspace
from .randwalk import (
    SELF_TIMES,
    WalkPolicy,
    first_hit_probabilities,
    hitting_times,
    simulate,
    transition_matrix,
)
from .spectra import (
    _MATRIX_BUILDERS,
    WEIGHT_PRESETS,
    _check_tol,
    build_A_GH,
    hypergraph_spectrum,
    weight_scheme,
)
from .structures import (
    find_equal_edge_partitions,
    is_dependent_set,
    unit_contraction,
    units,
    verify_equal_edge_partition,
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
    return parse(path.read_text(encoding="utf-8"), "json" if path.suffix == ".json" else "lines")


_POLICIES = {"nonlazy": WalkPolicy.uniform_nonlazy, "lazy": WalkPolicy.uniform_lazy}


def _kernel(args, h: Hypergraph):
    """The walk kernel of ``--policy`` on ``h``."""
    return transition_matrix(h, _POLICIES[args.policy]())


#: --axis name -> (report name of the matrix, its builder); the builders look
#: incidence_matrix up when called, so a wrapper bound later is the one used.
_NULLSPACE_AXES = {
    "vertices": ("incidence transpose", lambda h: incidence_matrix(h).transpose()),
    "edges": ("incidence", lambda h: incidence_matrix(h)),
    "incidence": ("incidence graph adjacency", build_A_GH),
}

_DOT = {"incidence": incidence_graph, "projection": graph_projection, "contraction": unit_contraction}

#: --kind -> (the options its report echoes, its report); like the builders
#: above, each call looks the library function up when it runs.
_CENTRALITIES = {
    "rw_closeness": (("policy", "self_time"), lambda a, h: rw_closeness(_kernel(a, h), a.self_time)),
    "rw_betweenness": (("policy", "horizon"), lambda a, h: rw_betweenness(_kernel(a, h), a.horizon)),
    "unit_closeness": ((), lambda a, h: unit_closeness(h)),
    "unit_eccentricity": ((), lambda a, h: unit_eccentricity(h)),
    "perron": (
        ("weights", "tol"),
        lambda a, h: perron_centrality(h, weight_scheme(h, a.weights).edge_weights, tol=a.tol),
    ),
}


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
    name, build = _NULLSPACE_AXES[args.axis]
    mat = build(h)
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
    cap = args.max_support if args.max_support is not None else max(h.n_vertices, 1)
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
    _check_tol(args.tol)
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
    tm = _kernel(args, h)
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
    if (args.start is None) != (args.horizon is None):
        raise ValueError("a first-hit law needs both --start and --horizon")
    tm = _kernel(args, h)
    params = {
        "policy": args.policy,
        "target": args.target,
        "self_time": args.self_time,
    }
    times = hitting_times(tm, args.target, self_time=args.self_time)
    results = {"target": args.target, "times": times}
    if args.start is not None:
        params.update({"start": args.start, "horizon": args.horizon})
        dist = first_hit_probabilities(tm, args.target, args.horizon, args.start)
        results["first_hit_distribution"] = dist
    return params, results


def cmd_centrality(args, h: Hypergraph) -> tuple[dict, dict]:
    echoed, report = _CENTRALITIES[args.kind]
    params = {"kind": args.kind, **{name: getattr(args, name) for name in echoed}}
    return params, report(args, h).to_json_dict()


def cmd_dot(args, h: Hypergraph) -> tuple[dict, dict]:
    print(_DOT[args.which](h).to_dot())
    return {}, {}


def cmd_check(args, h: Hypergraph) -> tuple[dict, dict]:
    return {}, run_checks(h)


# ---------------------------------------------------------------------------
# argument parsing and dispatch


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; argparse reads sys.stderr and the
    terminal width when it prints, not when it is built."""
    parser = argparse.ArgumentParser(
        prog="hyperlin",
        description="Exact dependence structure, spectra, walks, and "
        "centralities of hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, handler) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("file", help="hypergraph file (.json or label: members lines)")
        p.add_argument(
            "--format",
            choices=["json", "lines"],
            default="json",
            help="report format on stdout",
        )
        return p

    add("units", "unit decomposition (star-equivalence classes)", cmd_units)
    add("contract", "quotient by the unit partition", cmd_contract)

    p = add("nullspace", "canonical nullspace basis of an incidence axis", cmd_nullspace)
    p.add_argument(
        "--axis",
        choices=list(_NULLSPACE_AXES),
        default="vertices",
        help="vertices: ker I^T, edges: ker I, incidence: ker A_GH",
    )

    p = add("certify", "find a dependence certificate inside a given set", cmd_certify)
    p.add_argument("--set", required=True, help="comma separated labels")
    p.add_argument("--axis", choices=["vertices", "edges"], default="vertices")

    p = add("partitions", "equal partitions (U, V) via the nullspace", cmd_partitions)
    p.add_argument("--max-support", type=int, default=None)

    p = add("spectra", "eigenvalues (or exact determinant) of a matrix", cmd_spectra)
    p.add_argument("--matrix", choices=[*_MATRIX_BUILDERS, "A_GH", "I"], default="A")
    p.add_argument("--weights", choices=list(WEIGHT_PRESETS), default="unit")
    p.add_argument("--det", action="store_true", help="exact determinant instead")
    p.add_argument("--tol", type=float, default=1e-12)

    p = add("walk", "transition matrix, or seeded simulation with --start", cmd_walk)
    p.add_argument("--policy", choices=list(_POLICIES), default="nonlazy")
    p.add_argument("--start", default=None)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--trajectories", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = add("hitting", "exact expected hitting times onto a target", cmd_hitting)
    p.add_argument("--policy", choices=list(_POLICIES), default="nonlazy")
    p.add_argument("--target", required=True)
    p.add_argument("--self-time", choices=list(SELF_TIMES), default="return")
    p.add_argument("--start", default=None, help="with --horizon: first-hit law")
    p.add_argument("--horizon", type=int, default=None)

    p = add("centrality", "one centrality report", cmd_centrality)
    p.add_argument("--kind", choices=list(_CENTRALITIES), required=True)
    p.add_argument("--policy", choices=list(_POLICIES), default="nonlazy")
    p.add_argument("--horizon", type=int, default=100)
    p.add_argument("--self-time", choices=list(SELF_TIMES), default="return")
    p.add_argument("--weights", choices=list(WEIGHT_PRESETS), default="unit")
    p.add_argument("--tol", type=float, default=1e-12)

    add("check", "run every applicable theorem check", cmd_check)

    p = add("dot", "graphviz DOT export", cmd_dot)
    p.add_argument("--which", choices=list(_DOT), default="incidence")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        h = _load(args)
    except (OSError, UnicodeDecodeError, HyperlinError) as exc:
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    # Exact results may have more digits than Python's int-to-str limit
    # (3.10.7+) allows; the input above was still parsed under that limit.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        try:
            parameters, results = args.handler(args, h)
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
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
