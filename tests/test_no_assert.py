"""Library invariants raise named errors, so they still hold under ``python -O``."""

import ast
from pathlib import Path

import hyperlin


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(Path(hyperlin.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
