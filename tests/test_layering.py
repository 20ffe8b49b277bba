"""Only ``linalg`` knows the layout of its fraction-free elimination, and only
it reads a matrix's Fraction view ``entries``: every other module reads the
integer rows, and only a certificate or report edge reads a nullspace basis's
Fraction view ``vectors``. The unknown-label rule also lives there alone, in
``linalg._known``, and every entry that takes labels goes through it; so
does the integer rule, in ``linalg._integer``, which every counted argument
goes through. One breadth-first search, ``hypergraph._hops``, answers every
reachability question, and one SplitMix64 mix, ``randwalk._mix64``, makes
every draw. One probability rule, ``randwalk._require_distribution``, raises
every BadDistributionError, and one first-arrival recursion,
``randwalk._first_arrivals``, serves first-hit laws and betweenness. One
isolated-vertex rule, ``hypergraph._require_incident``, raises every
IsolatedVertexError, and one weight-domain rule, ``spectra._check_weights``,
every WeightDomainMismatchError. One int64-or-Python-int rule,
``linalg._int_array``, decides how every exact numpy product holds its ints."""

import ast
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hyperlin
from hyperlin import (
    Certificate,
    CertificateKind,
    RationalMatrix,
    WalkPolicy,
    contraction_nullspace_lift,
    find_equal_edge_partitions,
    first_hit_probabilities,
    graph_projection,
    hitting_times,
    incidence_matrix,
    is_dependent_set,
    pullback_dependent_set,
    rat,
    rw_betweenness,
    simulate,
    step_distribution,
    transition_matrix,
    unit_distance,
    units,
    verify_covering_projection,
    verify_star_partition,
    verify_unit_maximality,
)
from hyperlin import fixtures as fx
from hyperlin.errors import BadHorizonError, UnknownLabelError
from hyperlin.structures import VERTEX_AXIS


def _uses_outside_linalg(name: str) -> list[str]:
    found = []
    for path in sorted(Path(hyperlin.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            names = {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)}
            if name in names:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    return found


def test_only_linalg_names_the_fraction_free_reduction():
    assert _uses_outside_linalg("_fraction_free_reduce") == []


def test_only_linalg_reads_the_fraction_view():
    assert _uses_outside_linalg("entries") == []


def _unknown_label_messages_outside_linalg() -> list[str]:
    found = []
    for path in sorted(Path(hyperlin.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            if getattr(func, "id", getattr(func, "attr", None)) != "UnknownLabelError":
                continue
            message = node.args[0]
            if isinstance(message, ast.JoinedStr) and message.values:
                message = message.values[0]
            text = getattr(message, "value", None)
            if isinstance(text, str) and text.startswith("unknown"):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_linalg_writes_the_unknown_label_message():
    assert _unknown_label_messages_outside_linalg() == []


def _functions_using(found) -> set[str]:
    """``file:function`` of every function with a node for which ``found(node, aliases)``
    holds, ``aliases`` being the names the file imports ``operator.index`` as."""
    out = set()
    for path in sorted(Path(hyperlin.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        aliases = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "operator"
            for alias in node.names
            if alias.name == "index"
        }
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and any(found(n, aliases) for n in ast.walk(fn)):
                out.add(f"{path.name}:{fn.name}")
    return out


def _is_bool_test(node, aliases) -> bool:
    if isinstance(node, ast.Compare):  # ``bool in kinds``, kinds a set of types
        return getattr(node.left, "id", None) == "bool" and isinstance(node.ops[0], ast.In)
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"):
        return False
    kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
    return any(getattr(k, "id", None) == "bool" for k in kinds)


def _is_operator_index(node, aliases) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "index" and getattr(node.value, "id", None) == "operator"
    return isinstance(node, ast.Name) and node.id in aliases


def test_only_the_integer_rule_and_the_tolerance_rule_test_for_bool():
    # the numerator pass holds the integer rule for whole rows in one type scan
    assert _functions_using(_is_bool_test) == {
        "linalg.py:_integer",
        "linalg.py:__post_init__",
        "spectra.py:_check_tol",
    }


def test_only_the_integer_rule_and_the_numerator_pass_call_operator_index():
    assert _functions_using(_is_operator_index) == {"linalg.py:_integer", "linalg.py:__post_init__"}


def test_only_the_certificate_and_report_edges_read_basis_vectors():
    # a nullspace basis is integer rows over one denominator; its Fraction view
    # is read only where a certificate or a report is built from it
    readers = _functions_using(lambda node, _: isinstance(node, ast.Attribute) and node.attr == "vectors")
    assert {name for name in readers if not name.startswith("linalg.py:")} == {
        "structures.py:is_dependent_set",
        "cli.py:_basis_payload",
    }


def _unknown_label_raisers_outside_linalg() -> set[str]:
    def raises_it(node, aliases) -> bool:
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "UnknownLabelError"

    return {name for name in _functions_using(raises_it) if not name.startswith("linalg.py:")}


def test_every_label_lookup_reports_a_miss_through_known():
    # the two left check a whole mapping against a domain, not a lookup
    assert _unknown_label_raisers_outside_linalg() == {
        "randwalk.py:__post_init__",
        "structures.py:_validate_vertex_map",
    }


def test_one_breadth_first_search_serves_connectivity_distances_and_reachability():
    callers = set()
    for path in sorted(Path(hyperlin.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and any(
                getattr(node, "id", None) == "_hops" for node in ast.walk(fn)
            ):
                callers.add(f"{path.name}:{fn.name}")
    assert callers == {
        "hypergraph.py:is_connected",
        "centrality.py:distances_from",
        "randwalk.py:_require_reachable",
    }


def _calls_to(name: str) -> set[str]:
    def calls(node, _) -> bool:
        return isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))

    return _functions_using(calls)


def test_one_probability_rule_raises_bad_distribution_errors():
    """Kernel rows, custom edge and vertex choices and initial distributions
    are all checked by ``randwalk._require_distribution``."""
    assert _calls_to("BadDistributionError") == {"randwalk.py:_require_distribution"}


def test_one_isolated_vertex_rule_raises_isolated_vertex_errors():
    """Walk kernels, Perron centrality and the ``fullnorm`` weights all reject
    a vertex in no hyperedge through ``hypergraph._require_incident``."""
    assert _calls_to("IsolatedVertexError") == {"hypergraph.py:_require_incident"}
    assert _calls_to("_require_incident") == {
        "randwalk.py:transition_matrix",
        "centrality.py:perron_centrality",
        "spectra.py:fully_normalized_weights",
    }


def test_one_weight_domain_rule_raises_weight_domain_mismatch_errors():
    """Vertex and hyperedge weights of the weighted builders and Perron's
    edge weights are checked by ``spectra._check_weights``."""
    assert _calls_to("WeightDomainMismatchError") == {"spectra.py:_check_weights"}
    assert _calls_to("_check_weights") == {"spectra.py:_q_rows", "centrality.py:perron_centrality"}


def test_one_first_arrival_recursion_serves_first_hits_and_betweenness():
    """``randwalk._first_arrivals`` is the one first-arrival recursion: no
    absorbing walk or second initial-mass builder is left beside it."""
    assert _calls_to("_first_arrivals") == {
        "randwalk.py:first_hit_probabilities",
        "centrality.py:_betweenness_by_first_passage",
        "centrality.py:through",
    }
    functions = [
        node
        for path in sorted(Path(hyperlin.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
    ]
    assert not {fn.name for fn in functions} & {"_integer_walk", "_as_distribution"}
    assert not [fn.name for fn in functions if "absorb" in {a.arg for a in fn.args.args + fn.args.kwonlyargs}]


def test_one_splitmix64_mix_reads_the_multipliers():
    """SplitMix64's two mix multipliers are read in ``randwalk._mix64`` alone,
    and their values are written once, so scalar draws and uint64 blocks share
    one mix."""
    from hyperlin.randwalk import _MIX_A, _MIX_B

    readers, reads, inside, written = set(), 0, 0, 0
    for path in sorted(Path(hyperlin.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in ("_MIX_A", "_MIX_B") and isinstance(node.ctx, ast.Load):
                reads += 1
            written += isinstance(node, ast.Constant) and node.value in (_MIX_A, _MIX_B)
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                names = [n for n in ast.walk(fn) if isinstance(n, ast.Name) and n.id in ("_MIX_A", "_MIX_B")]
                if names:
                    readers.add(f"{path.name}:{fn.name}")
                    inside += len(names)
    assert readers == {"randwalk.py:_mix64"}
    assert inside == reads == 2
    assert written == 2


H = fx.balanced_overlap()
TM = transition_matrix(H, WalkPolicy.uniform_lazy())
IDENTITY = {v: v for v in H.vertices}
ZERO_CERT = Certificate(
    CertificateKind.DEPENDENT_VERTICES, frozenset(), {v: 0 for v in H.vertices}, VERTEX_AXIS
)


@pytest.mark.parametrize(
    "call",
    [
        lambda: H.vertex_order([H.vertices[0], "zz"]),
        lambda: is_dependent_set(H, [H.vertices[0], "zz"]),
        lambda: verify_unit_maximality(H, [H.vertices[0], "zz"]),
        lambda: contraction_nullspace_lift(H, {"zz": Fraction(1)}),
        lambda: verify_star_partition(H, H.vertices[0], ["zz"]),
        lambda: verify_covering_projection(H, H, {**IDENTITY, "zz": H.vertices[0]}),
        lambda: pullback_dependent_set(H, H, {**IDENTITY, H.vertices[0]: "zz"}, ZERO_CERT),
        lambda: step_distribution(TM, "zz", 1),
        lambda: step_distribution(TM, {"zz": Fraction(1)}, 1),
        lambda: hitting_times(TM, "zz"),
        lambda: first_hit_probabilities(TM, "zz", 3, H.vertices[0]),
        lambda: graph_projection(H).neighbors("zz"),
        lambda: graph_projection(H).distances_from("zz"),
        lambda: H.star("zz"),
        lambda: H.members("zz"),
        lambda: H.degree("zz"),
        lambda: units(H).unit_of("zz"),
        lambda: unit_distance(H, H.vertices[0], "zz"),
        lambda: incidence_matrix(H).entry("zz", H.edge_labels[0]),
        lambda: incidence_matrix(H).row("zz"),
        lambda: incidence_matrix(H).submatrix([H.vertices[0]], ["zz"]),
    ],
    ids=[
        "vertex_order",
        "is_dependent_set",
        "verify_unit_maximality",
        "contraction_nullspace_lift",
        "verify_star_partition",
        "map-source",
        "map-target",
        "initial-state",
        "initial-distribution",
        "hitting_times",
        "first_hit_probabilities",
        "neighbors",
        "distances_from",
        "star",
        "members",
        "degree",
        "unit_of",
        "unit_distance",
        "entry",
        "row",
        "submatrix",
    ],
)
def test_every_labelled_entry_names_an_unknown_label(call):
    with pytest.raises(UnknownLabelError, match=r"^unknown [a-z ]+: \[.*'zz'.*\]$"):
        call()


JSON_MATRIX = {"rows": 1, "cols": 2, "row_labels": ["r"], "col_labels": ["a", "b"], "entries": ["1", "1/2"]}
SIMULATED = transition_matrix(fx.hub_cycle(), WalkPolicy.uniform_lazy())


def _simulated(steps=4, trajectories=3, seed=5) -> str:
    return json.dumps(simulate(SIMULATED, SIMULATED.states[0], steps, trajectories, seed).to_json_dict())


#: caller -> (its report for one integer argument, an int it accepts, the
#: error a non-integer gets); each report is a repr or JSON text, so an
#: integer of another type leaking into it would show.
INTEGER_CALLERS = {
    "step count": (lambda t: repr(step_distribution(TM, H.vertices[0], t)), 3, BadHorizonError),
    "first-hit horizon": (
        lambda t: repr(first_hit_probabilities(TM, H.vertices[1], t, H.vertices[0])), 3, BadHorizonError
    ),
    "simulate steps": (lambda t: _simulated(steps=t), 4, BadHorizonError),
    "simulate trajectories": (lambda t: _simulated(trajectories=t), 3, BadHorizonError),
    "simulate seed": (lambda t: _simulated(seed=t), 5, TypeError),
    "betweenness horizon": (lambda t: repr(rw_betweenness(TM, t).to_json_dict()), 2, BadHorizonError),
    "max_support": (lambda t: repr(find_equal_edge_partitions(H, max_support=t)), 4, ValueError),
    "denominator": (lambda t: repr(RationalMatrix(["r"], ["c"], [[2]], t)), 6, ValueError),
    "json rows": (lambda t: repr(RationalMatrix.from_json_dict({**JSON_MATRIX, "rows": t})), 1, ValueError),
    "json cols": (lambda t: repr(RationalMatrix.from_json_dict({**JSON_MATRIX, "cols": t})), 2, ValueError),
    "rat": (lambda t: repr(rat(t)), 3, TypeError),
}


@pytest.mark.parametrize("caller", sorted(INTEGER_CALLERS))
def test_numpy_integers_count_as_the_int_they_equal(caller):
    report, good, _ = INTEGER_CALLERS[caller]
    want = report(good)
    assert report(np.int64(good)) == want
    assert report(np.uint8(good)) == want


@pytest.mark.parametrize("bad", [True, 2.0, "3", None], ids=repr)
@pytest.mark.parametrize("caller", sorted(INTEGER_CALLERS))
def test_what_is_not_an_integer_keeps_its_error_type(caller, bad):
    report, _, error = INTEGER_CALLERS[caller]
    if caller == "rat" and bad == "3":
        assert report(bad) == repr(Fraction(3))  # a 'p/q' literal, not an integer
        return
    with pytest.raises(error, match=repr(bad) if caller == "rat" else rf"^.* must be .*, got {bad!r}$"):
        report(bad)


def test_one_int64_rule_serves_the_exact_kernel():
    """``linalg._int_array`` alone writes the int64 bound and handles an
    OverflowError; the four exact numpy products state only their weights."""

    def writes_2_to_the_63(node, _) -> bool:
        return (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Pow)
            and (getattr(node.left, "value", None), getattr(node.right, "value", None)) == (2, 63)
        )

    def handles_overflow(node, _) -> bool:
        return isinstance(node, ast.ExceptHandler) and "OverflowError" in ast.dump(node.type)

    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in Path(hyperlin.__file__).parent.glob("*.py")]
    assert sum(writes_2_to_the_63(node, None) for tree in trees for node in ast.walk(tree)) == 1
    assert _functions_using(writes_2_to_the_63) == {"linalg.py:_int_array"}
    assert _functions_using(handles_overflow) == {"linalg.py:_int_array"}
    assert _calls_to("_int_array") == {
        "linalg.py:_certified",
        "linalg.py:_modular_rref",
        "checks.py:_walk_balanced",
        "structures.py:_sign_sums",
    }
