"""Properties of the package source as a whole."""

import ast
import importlib
import importlib.util
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import galois_equiv
import galois_equiv.cli

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"
WORKLOADS = ROOT / "bench" / "workloads.py"
BENCH_PAIRS = ROOT / "tools" / "bench_pairs.py"


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


def test_the_readme_python_example_runs():
    # the documented library example; an API change that breaks it fails here
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_the_readme_shell_transcripts_print_what_they_show(capsys):
    # each documented "$ galois-equiv <sub> <fixture>" prints the text below
    # it, and "$ echo $?" after it shows its exit code
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = [b for b in re.findall(r"```sh\n(.*?)```", readme, re.S) if "$ galois-equiv" in b]
    commands = codes = 0
    for run in re.split(r"^\$ ", block, flags=re.M)[1:]:
        command, _, shown = run.partition("\n")
        if command == "echo $?":
            assert code == int(shown), sub
            codes += 1
            continue
        sub, name = re.fullmatch(r"galois-equiv (\w+) \$\(.*fixture_path\('([\w.]+)'\).*\)", command).groups()
        code = galois_equiv.cli.main([sub, galois_equiv.cli.fixture_path(name)])
        assert capsys.readouterr().out == shown.rstrip("\n") + "\n", sub
        commands += 1
    assert commands and codes


def test_the_readme_problem_file_is_the_shipped_c3_fixture():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    shipped = Path(galois_equiv.cli.fixture_path("c3_inversion.json")).read_text(encoding="utf-8")
    assert json.loads(block) == json.loads(shipped)


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


def test_the_command_times_tool_prints_a_row_per_fixture():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "command_times.py"), "--repeat", "1", "--sweep"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:2] == ["| fixture | validate | lambda | equivariant | induce |", "|---|---|---|---|---|"]
    assert [line.split(" | ")[0] for line in lines[2:6]] == ["| c3_inversion", "| a5_3dim", "| 2a7_4dim", "| total"]
    # the total is the sum of the twelve cells
    cells = [float(cell.split()[0]) for line in lines[2:5] for cell in line.strip("|").split(" | ")[1:]]
    total = lines[5].strip("|").split(" | ")[1]
    assert len(cells) == 12 and abs(float(total.split()[0]) - sum(cells)) <= 0.01 * 12
    # --sweep: lambda and equivariant on the 16 height-sweep problems, 17 of
    # whose 32 calls are answered, and the median of those
    assert lines[6:9] == ["", "| problem | lambda | equivariant |", "|---|---|---|"]
    rows = [line.strip("|").split(" | ") for line in lines[9:]]
    assert [row[0].strip() for row in rows[:4]] == ["a5_3dim-H3-0", "a5_3dim-H3-1", "a5_3dim-H10-0", "a5_3dim-H10-1"]
    assert len(rows) == 17 and rows[-1][0] == " median of 17 answered"
    answered = [float(cell.split()[0]) for row in rows[:-1] for cell in row[1:] if "(exit" not in cell]
    assert len(answered) == 17 and rows[-1][1].split()[0] == f"{statistics.median(answered):.2f}"


def test_the_command_times_tool_times_cold_calls():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "command_times.py"), "--repeat", "1", "--cold"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # after the in-process table, the same cells as fresh processes
    assert lines[6:9] == ["", "| cold fixture | validate | lambda | equivariant | induce |", "|---|---|---|---|---|"]
    assert [line.split(" | ")[0] for line in lines[9:]] == ["| c3_inversion", "| a5_3dim", "| 2a7_4dim", "| total"]
    cells = [float(cell.split()[0]) for line in lines[9:12] for cell in line.strip("|").split(" | ")[1:]]
    total = float(lines[12].strip("|").split(" | ")[1].split()[0])
    # a fresh process starts an interpreter, so it takes longer than any in-process call
    in_process = float(lines[5].strip("|").split(" | ")[1].split()[0])
    assert len(cells) == 12 and abs(total - sum(cells)) <= 0.01 * 12 and total > in_process


# six norm queries, one past factor's reach: is_norm answers -1000003 *
# 1000033 over Q(i) by its sign alone, and canonical_lambda cannot factor it
NORM_QUERIES = [(-7, "-2"), (5, "-1"), (-1, "2"), (-1, str(-1000003 * 1000033)), (2, "7/3"), (13, "-3/4")]
NORMS_SCRIPT = """
import sys
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
import command_times
command_times.make_queries = lambda seed: [(d, Fraction(lam)) for d, lam in {queries}]
sys.exit(command_times.main(["--repeat", "2", "--norms"]))
"""


def test_the_command_times_tool_times_the_norm_queries():
    # the workload's queries are replaced by six, so no benchmark runs
    done = subprocess.run(
        [sys.executable, "-c", NORMS_SCRIPT.format(queries=NORM_QUERIES), str(ROOT / "tools")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # after the in-process fixture table, one row per query in order and the
    # median row, with each query asked on the shared field and on a fresh one
    assert lines[6:9] == ["", "| d lambda | shared field | fresh field |", "|---|---|---|"]
    rows = [line.strip("| ").split(" | ") for line in lines[9:]]
    assert [row[0] for row in rows[:-1]] == [f"{d} {lam}" for d, lam in NORM_QUERIES]
    medians = []
    for column in (1, 2):
        assert [row[column].endswith(" (exit 1)") for row in rows[:-1]] == [False, False, False, True, False, False]
        # five answered: the median is the middle cell, as printed
        answered = sorted(float(row[column].split()[0]) for row in rows[:-1] if "(exit" not in row[column])
        medians.append(f"{answered[2]:.2f} ms")
    assert rows[-1] == ["median of 5 answered", *medians]


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_judges_a_median_against_its_relative_bound():
    worse_than_bound = load_bench_pairs().worse_than_bound
    # setup_s 0.0335 -> 0.0459 s is +37%, past a 25% bound
    assert worse_than_bound(0.0335, 0.0459, "lower", 0.25)
    assert not worse_than_bound(0.0335, 0.0400, "lower", 0.25)
    assert not worse_than_bound(0.0335, 0.0100, "lower", 0.25)
    # ok_frac 1.0 -> 0.85 is 15% worse, past a 10% bound; a rise is never worse
    assert worse_than_bound(1.0, 0.85, "higher", 0.1)
    assert not worse_than_bound(1.0, 0.95, "higher", 0.1)
    assert not worse_than_bound(0.531, 1.0, "higher", 0.1)


def test_bench_pairs_refuses_a_tree_with_bytecode_in_the_package(tmp_path, monkeypatch, capsys):
    # bytecode in src/galois_equiv would shorten one side's setup_s; nothing runs
    bench_pairs = load_bench_pairs()
    (tmp_path / "src" / "galois_equiv" / "__pycache__").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "export", lambda ref, target: None)

    def no_run(*args):
        raise AssertionError("the benchmark ran")

    monkeypatch.setattr(bench_pairs, "run", no_run)
    assert bench_pairs.main(["--pairs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("refusing to run: remove ") and str(tmp_path / "src" / "galois_equiv" / "__pycache__") in err


def test_bench_pairs_judges_a_claimed_gain_by_the_pair_rule(tmp_path, monkeypatch, capsys):
    bench_pairs = load_bench_pairs()
    judge = bench_pairs.judge_claim
    base = [8.52, 8.59, 8.41, 8.70, 8.55, 8.63, 8.47, 8.44, 8.81, 8.58]
    change = [6.62, 6.56, 6.70, 6.49, 6.61, 6.58, 6.66, 6.52, 6.71, 6.60]
    assert judge(base, change, "lower", 0, 0)[0]
    # one pair lost in ten is allowed, two are not; a tie counts for neither
    assert judge(base, change[:9] + [9.0], "lower", 0, 0)[0]
    met, parts = judge(base, change[:8] + [8.81, 9.0], "lower", 0, 0)
    assert not met and parts[1] == "better in 8 of 10 (at least 9/10) FAILS"
    # better in every pair, but by less than the base's interquartile range
    met, parts = judge(base, [x - 0.01 for x in base], "lower", 0, 0)
    assert not met and parts[2].endswith("FAILS") and parts[1] == "better in 10 of 10 (at least 9/10)"
    # a higher-is-better metric, fewer than ten pairs, more runs with correct=false
    assert judge(change, base, "higher", 0, 0)[0]
    assert not judge(base[:9], change[:9], "lower", 0, 0)[0]
    met, parts = judge(base, change, "lower", 0, 1)
    assert not met and parts[3].endswith("FAILS")

    # main prints the verdict after the workload's table and exits 1 unless it is met
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "export", lambda ref, target: None)
    runs = {"base": iter(base), "change": iter(change)}

    def fake_run(tree, workload, seed, seconds):
        value = next(runs["change" if tree == tmp_path else "base"])
        metrics = {name: {"value": value if name == "op_p50_ref" else 1.0} for name in
                   ["setup_s", "ops_per_kref", "op_p50_ref", "op_p90_ref", "ok_frac", "peak_rss_mb"]}
        return {"correct": True, "attempted": 32, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    argv = ["--pairs", "10", "--workload", "height-sweep", "--claim", "height-sweep:op_p50_ref"]
    assert bench_pairs.main(argv) == 0
    assert "# claim height-sweep:op_p50_ref: claim met: 10 pairs (at least 10); " in capsys.readouterr().out
    runs = {"base": iter(base), "change": iter(base[1:] + base[:1])}
    assert bench_pairs.main(argv) == 1
    assert "# claim height-sweep:op_p50_ref: claim not met: " in capsys.readouterr().out
