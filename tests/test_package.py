"""Properties of the package source as a whole."""

import ast
import importlib
import importlib.util
from pathlib import Path

import galois_equiv

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_library_has_no_assert_statements():
    # python -O strips assert, so invariants and preconditions must raise
    found = []
    for path in sorted(Path(galois_equiv.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_every_traced_name_resolves():
    # the traced benchmark run wraps these names; a rename in src/ would break it
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, attr, _, _ in tracing.WRAPPED:
        module = importlib.import_module(f"galois_equiv.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name, None)
            found = isinstance(cls, type) and callable(vars(cls).get(method))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert tracing.WRAPPED
    assert missing == []
