"""Only ``linalg`` knows the layout of its fraction-free elimination, and only
it reads a matrix's Fraction view ``entries``: every other module reads the
integer rows. The unknown-label rule also lives there alone, in
``linalg._known``, and every entry that takes labels goes through it. One
breadth-first search, ``hypergraph._hops``, answers every reachability
question."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import hyperlin
from hyperlin import (
    Certificate,
    CertificateKind,
    WalkPolicy,
    contraction_nullspace_lift,
    first_hit_probabilities,
    graph_projection,
    hitting_times,
    is_dependent_set,
    pullback_dependent_set,
    step_distribution,
    transition_matrix,
    verify_covering_projection,
    verify_star_partition,
    verify_unit_maximality,
)
from hyperlin import fixtures as fx
from hyperlin.errors import UnknownLabelError
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
    ],
)
def test_every_labelled_entry_names_an_unknown_label(call):
    with pytest.raises(UnknownLabelError, match=r"^unknown [a-z ]+: \[.*'zz'.*\]$"):
        call()
