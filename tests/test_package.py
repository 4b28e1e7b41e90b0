"""Properties of the package source as a whole."""

import ast
from pathlib import Path

import galois_equiv


def test_library_has_no_assert_statements():
    # python -O strips assert, so invariants and preconditions must raise
    found = []
    for path in sorted(Path(galois_equiv.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
