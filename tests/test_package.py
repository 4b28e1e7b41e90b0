"""Properties of the package source as a whole."""

import ast
import importlib
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import galois_equiv
import galois_equiv.cli

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"
WORKLOADS = ROOT / "bench" / "workloads.py"


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


def test_double_cover_generator_rewrites_the_shipped_fixture(tmp_path):
    # the generator re-checks its construction with the library, so a library
    # change that breaks it, or changes what it writes, shows here
    src = Path(galois_equiv.__file__).resolve().parent.parent
    tool = tmp_path / "tools" / "make_double_cover_fixture.py"
    tool.parent.mkdir()
    shutil.copy(ROOT / "tools" / tool.name, tool)
    fixtures = tmp_path / "src" / "galois_equiv" / "fixtures"
    fixtures.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, str(tool)], env=env, check=True, capture_output=True, timeout=120)
    shipped = src / "galois_equiv" / "fixtures" / "2a7_4dim.json"
    assert (fixtures / "2a7_4dim.json").read_bytes() == shipped.read_bytes()


def test_fixture_grid_outputs_match_the_recorded_bytes(tmp_path, monkeypatch):
    # the benchmark's fixture-grid calls, built and run as the benchmark does
    # but in-process: every exit code, stdout and the --out certificate must
    # equal bench/expected/fixture_grid.json byte for byte
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up there
    spec.loader.exec_module(workloads)
    program = SimpleNamespace(cli=galois_equiv.cli)
    expected = workloads.load_expected("fixture_grid")
    argvs = workloads.fixture_grid_argvs(program, tmp_path)
    assert sorted(argvs) == sorted(expected)
    for name, argv in argvs.items():
        code, stdout, _ = workloads.cli_call(program, argv)
        assert (code, stdout) == (expected[name]["code"], expected[name]["stdout"]), name
        if "file" in expected[name]:
            assert (tmp_path / "a5_certificate.json").read_text(encoding="utf-8") == expected[name]["file"], name


def test_the_harness_self_test_passes_and_writes_nothing_in_the_checkout():
    # bench/selftest.py wraps the traced names of the package in src/, so a
    # rename there that breaks the traced benchmark fails here; bytecode
    # writing is off so that any file that appears is the harness's own
    def snapshot():
        return {
            (str(path), path.stat().st_mtime_ns)
            for path in ROOT.rglob("*")
            if path.is_file() and ".git" not in path.relative_to(ROOT).parts
        }

    before = snapshot()
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "selftest.py"], cwd=ROOT / "bench", env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert snapshot() == before
