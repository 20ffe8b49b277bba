"""Only ``linalg`` knows the layout of its fraction-free elimination."""

import ast
from pathlib import Path

import hyperlin


def test_only_linalg_names_the_fraction_free_reduction():
    found = []
    for path in sorted(Path(hyperlin.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            names = {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)}
            if "_fraction_free_reduce" in names:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert found == []
