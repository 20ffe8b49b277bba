"""Only ``linalg`` knows the layout of its fraction-free elimination, and only
it reads a matrix's Fraction view ``entries``: every other module reads the
integer rows."""

import ast
from pathlib import Path

import hyperlin


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
