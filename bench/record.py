"""Record the expected answers the benchmark checks against, from the current program.

    python3 bench/record.py

Writes bench/expected/:

* fixture_grid.json: exit code and stdout of every fixture-grid call, and the
  certificate file the --out call writes;
* height_sweep.json: is_trivial and lambda_canonical of each unconjugated
  fixture, which every conjugate must reproduce;
* norm_queries.json: the canonical value of every norm query that finished
  within the deadline (is_norm is true exactly when it is 1).  The query that
  did not finish is checked structurally instead (see workloads.py).

Run it only on a commit whose answers are trusted; the files in the
repository were recorded on the commit that introduced the benchmark.
"""

from __future__ import annotations

import json
import shutil
import signal
import tempfile
from pathlib import Path

import run
import workloads


def record_fixture_grid(program, scratch: Path) -> dict:
    out = {}
    for name, argv in workloads.fixture_grid_argvs(program, scratch).items():
        code, stdout, _ = workloads.cli_call(program, argv)
        out[name] = {"code": code, "stdout": stdout}
        if "--out" in argv:
            out[name]["file"] = Path(argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
    return out


def record_height_sweep(program) -> dict:
    out = {}
    for fx in workloads.SWEEP_FIXTURES:
        code, stdout, _ = workloads.cli_call(program, ["lambda", program.cli.fixture_path(f"{fx}.json")])
        report = json.loads(stdout)
        out[fx] = {"is_trivial": report["is_trivial"], "lambda_canonical": report["lambda_canonical"]}
    return out


def record_norm_queries(program) -> dict:
    """Every seed runs the same queries in its own order, so seed 0 covers them all."""
    fields = {d: workloads.field_for(program, d) for d in workloads.FIELDS}
    out = {}
    for d, lam in workloads.make_queries(0):
        try:
            signal.setitimer(signal.ITIMER_REAL, run.DEADLINE_S)
            try:
                decided, canonical, _ = workloads.norm_query(program, fields[d], lam)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except (run.DeadlineExceeded, program.errors.GaloisEquivError):
            continue
        out[workloads.query_key(d, lam)] = workloads._rational_json(canonical)
    return dict(sorted(out.items()))


def main():
    signal.signal(signal.SIGALRM, run._on_alarm)
    program = run.Program(run.ROOT)
    scratch = Path(tempfile.mkdtemp(dir=run.ROOT))
    try:
        files = {
            "fixture_grid": record_fixture_grid(program, scratch),
            "height_sweep": record_height_sweep(program),
            "norm_queries": record_norm_queries(program),
        }
    finally:
        shutil.rmtree(scratch)
    for name, data in files.items():
        with open(workloads.EXPECTED / f"{name}.json", "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=0 if name == "norm_queries" else 1, sort_keys=True)
            handle.write("\n")


if __name__ == "__main__":
    main()
