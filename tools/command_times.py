"""Time each CLI subcommand on each bundled fixture, in-process, best of N.

    python3 tools/command_times.py
    python3 tools/command_times.py --base HEAD~1 --repeat 30
    python3 tools/command_times.py --base HEAD~1 --sweep
    python3 tools/command_times.py --base HEAD~1 --cold --repeat 9
    python3 tools/command_times.py --base HEAD~1 --norms

Run from the root of a checkout.  Each cell of the table is the best wall
time, in ms, of ``cli.main([command, fixture])`` with its output captured,
over ``--repeat`` calls.  The package is imported from ``src/`` by
``bench/run.py``'s ``Program``, which drops every ``galois_equiv`` module
from ``sys.modules`` first.

With ``--base REF`` the files of REF are exported with ``git archive`` into a
temporary directory (as ``tools/bench_pairs.py`` does) and both copies of the
package are loaded into this one process.  Each round times every cell once
on each side, in an order that alternates from round to round, so a drift in
the machine's speed falls on both sides alike.  A cell then reads
"base -> change (change of the best times)".  A cell whose stdout or exit
code differs between the two sides is marked "DIFFERS", and the exit status
is then 1.  A last row, "total", sums the twelve cells on each side: the
benchmark's fixture-grid workload runs all of them, so a change that moves
time from one command to another shows there.  Nothing is written in the
checkout, bytecode included.

``--sweep`` adds a second table: ``lambda`` and ``equivariant`` on each of
the conjugated problems that the benchmark's height-sweep workload runs,
written by ``bench/workloads.write_conjugated_problems`` into a temporary
directory, and a last row with the median of the answered calls (those that
exit 0 or 3).  A call that exits 1 or 2 is timed only once, since some of
them (an exhausted witness search) take over a second; its cell is marked
with its exit code.

``--cold`` adds a table of the same twelve cells run as fresh processes,
``python -m galois_equiv.cli COMMAND FIXTURE`` with ``PYTHONPATH`` set to
each copy's ``src/`` and no bytecode written, one at a time, alternating
sides as above.  Each cell is the median wall time of ``--repeat`` processes,
so it counts what the in-process table cannot see: starting the
interpreter, importing the package, and the per-process state built on first
use, such as a field's split primes.

``--norms`` adds a table of the field layer alone: each query of the
benchmark's norm-queries workload (``bench/workloads.make_queries(0)``) run
as that workload runs it, ``is_norm`` and ``canonical_lambda``, then
``norm_witness`` when lambda is a norm, under the benchmark's deadline, and a
last row with the median of the answered queries in each column.  The
"shared field" column asks every query on one field object per d, as the
workload does, so a query can find what earlier ones left on the field; the
"fresh field" column asks each on a field built just before the call,
outside the timed span, as a one-shot CLI call does.  A query that fails
(exit 1: an error or the deadline) or takes over 0.1 s is timed only once,
since the unit-path witness searches take over half a second each.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True  # a __pycache__ left in src/ would speed up the benchmark's set-up of one side
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from bench_pairs import ROOT, export  # noqa: E402
from run import DEADLINE_S, DeadlineExceeded, Program, _on_alarm  # noqa: E402
from workloads import field_for, make_queries, norm_query, query_key, write_conjugated_problems  # noqa: E402

FIXTURES = ("c3_inversion", "a5_3dim", "2a7_4dim")
COMMANDS = ("validate", "lambda", "equivariant", "induce")
SWEEP_COMMANDS = ("lambda", "equivariant")
FAILED = (1, 2)  # the exit codes of a failure: an error, bad input
NORM_ONCE_S = 0.1  # a norm query slower than this is timed once
NORM_COLUMNS = ("shared field", "fresh field")


def run_once(cli, argv: list[str]) -> tuple[float, int, str]:
    """The wall time, exit code and stdout of one cli.main(argv)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        began = perf_counter()
        code = cli.main(argv)
        elapsed = perf_counter() - began
    return elapsed, code, out.getvalue()


class ColdCli:
    """cli.main(argv) as a fresh python -m galois_equiv.cli process on the
    package in root/src, its stdout passed on."""

    def __init__(self, root: Path):
        self.env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}

    def main(self, argv: list[str]) -> int:
        done = subprocess.run([sys.executable, "-m", "galois_equiv.cli", *argv], env=self.env,
                              capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        return done.returncode


def cli_call(clis: dict, paths: dict):
    """call(side, (problem, command)) for time_cells: one cli.main([command, problem's path])."""
    return lambda side, cell: run_once(clis[side], [cell[1], paths[side][cell[0]]])


def norm_call(programs: dict, queries: dict):
    """call(side, (key, column)) for time_cells: the norm query named key, as
    workloads.norm_query runs it, under the benchmark's deadline, on the
    side's one field for d ("shared field") or on one built for this call
    ("fresh field").  Its time is that of norm_query alone; its exit code is
    1 on any failure, and its output the answer or the failure's kind."""
    fields = {side: {} for side in programs}

    def call(side, cell):
        d, lam = queries[cell[0]]
        if d not in fields[side]:
            fields[side][d] = field_for(programs[side], d)
        ext = field_for(programs[side], d) if cell[1] == "fresh field" else fields[side][d]
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        began = perf_counter()
        try:
            decided, canonical, witness = norm_query(programs[side], ext, lam)
            elapsed = perf_counter() - began
            code, out = 0, f"{decided} {canonical} {witness and witness.coeffs}"
        except (Exception, DeadlineExceeded) as exc:
            elapsed = perf_counter() - began
            code, out = 1, type(exc).__name__
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return elapsed, code, out

    return call


def time_cells(call, sides, cells: list, repeat: int, summary=min, once_after=math.inf) -> tuple[dict, dict]:
    """The summary (by default the best) of the times and the (exit code,
    output) of each cell on each side, over repeat rounds whose order of the
    sides alternates; call(side, cell) makes one timed call.  A cell whose
    call failed (exit 1 or 2) or took over once_after seconds is not called
    again."""
    times = {side: {cell: [] for cell in cells} for side in sides}
    results = {side: {} for side in sides}
    order = list(sides)
    for _ in range(repeat):
        for cell in cells:
            for side in order:
                done = times[side][cell]
                if done and (results[side][cell][0] in FAILED or done[0] > once_after):
                    continue
                elapsed, code, out = call(side, cell)
                done.append(elapsed)
                results[side][cell] = (code, out)
        order.reverse()
    return {side: {cell: summary(ts) for cell, ts in by_cell.items()} for side, by_cell in times.items()}, results


def shown(times: dict) -> str:
    """One cell: the change's time in ms, after the base's and the change of the two when timed against one."""
    new = times["change"] * 1e3
    if "base" not in times:
        return f"{new:.2f} ms"
    old = times["base"] * 1e3
    return f"{old:.2f} -> {new:.2f} ms ({(new - old) / old:+.0%})"


def print_table(header: str, problems, commands, best: dict, results: dict) -> bool:
    """Print one row per problem and one column per command; returns whether
    any cell's exit code or stdout differs between the sides."""
    differs = False
    print(f"| {header} | " + " | ".join(commands) + " |")
    print("|---" * (len(commands) + 1) + "|")
    for problem in problems:
        row = []
        for cell in ((problem, command) for command in commands):
            text = shown({side: best[side][cell] for side in best})
            code = results["change"][cell][0]
            if code in FAILED:
                text += f" (exit {code})"
            if "base" in results and results["base"][cell] != results["change"][cell]:
                differs = True
                text += " DIFFERS"
            row.append(text)
        print(f"| {problem} | " + " | ".join(row) + " |")
    return differs


def print_total(best: dict, columns: int) -> None:
    """The row of the sum of every cell on each side."""
    print(f"| total | {shown({side: sum(cells.values()) for side, cells in best.items()})} |" + " |" * (columns - 1))


def print_median(best: dict, results: dict, groups: list, columns: int) -> None:
    """The row of the median of the answered cells (exit 0 or 3) of each group
    of cells, on each side, one group per column from the first.  The row is
    named by the first group's count; another group's differing count is
    shown in its cell."""
    texts, counts = [], []
    for cells in groups:
        answered = {side: [best[side][cell] for cell in cells if results[side][cell][0] not in FAILED]
                    for side in best}
        counts.append(len(answered["change"]))
        texts.append(shown({side: statistics.median(times) for side, times in answered.items()})
                     + (f" (of {counts[-1]})" if counts[-1] != counts[0] else ""))
    print(f"| median of {counts[0]} answered | " + " | ".join(texts) + " |" + " |" * (columns - len(groups)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git ref to time against the working tree, alternately")
    parser.add_argument("--repeat", type=int, default=15, help="calls per cell and side (default 15)")
    parser.add_argument("--sweep", action="store_true",
                        help="also time lambda and equivariant on the height-sweep workload's problems")
    parser.add_argument("--cold", action="store_true",
                        help="also time each fixture cell as fresh CLI processes, median of --repeat")
    parser.add_argument("--norms", action="store_true",
                        help="also time the norm-queries workload's queries on the field layer alone")
    args = parser.parse_args(argv)

    with contextlib.ExitStack() as stack:
        roots = {}
        if args.base:
            roots["base"] = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="command-times-")))
            export(args.base, roots["base"])
        roots["change"] = ROOT
        # each copy's fixtures by path: cli.fixture_path finds the package last imported
        programs = {side: Program(root) for side, root in roots.items()}
        clis = {side: program.cli for side, program in programs.items()}
        paths = {side: {f: str(root / "src" / "galois_equiv" / "fixtures" / f"{f}.json") for f in FIXTURES}
                 for side, root in roots.items()}
        cells = [(f, c) for f in FIXTURES for c in COMMANDS]
        best, results = time_cells(cli_call(clis, paths), roots, cells, args.repeat)
        differs = print_table("fixture", FIXTURES, COMMANDS, best, results)
        print_total(best, len(COMMANDS))
        if args.cold:
            cold = {side: ColdCli(root) for side, root in roots.items()}
            best, results = time_cells(cli_call(cold, paths), roots, cells, args.repeat, statistics.median)
            print()
            differs = print_table("cold fixture", FIXTURES, COMMANDS, best, results) or differs
            print_total(best, len(COMMANDS))
        if args.sweep:
            # written once, by the working tree's package (the last imported), for both sides
            workdir = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="command-times-sweep-")))
            sweep = {path.stem: str(path) for _, _, path in write_conjugated_problems(programs["change"], workdir)}
            cells = [(problem, command) for problem in sweep for command in SWEEP_COMMANDS]
            best, results = time_cells(cli_call(clis, dict.fromkeys(roots, sweep)), roots, cells, args.repeat)
            print()
            differs = print_table("problem", sweep, SWEEP_COMMANDS, best, results) or differs
            print_median(best, results, [cells], len(SWEEP_COMMANDS))
        if args.norms:
            signal.signal(signal.SIGALRM, _on_alarm)
            queries = {query_key(d, lam): (d, lam) for d, lam in make_queries(0)}
            cells = [(key, column) for key in queries for column in NORM_COLUMNS]
            best, results = time_cells(norm_call(programs, queries), roots, cells, args.repeat, once_after=NORM_ONCE_S)
            print()
            differs = print_table("d lambda", queries, NORM_COLUMNS, best, results) or differs
            print_median(best, results, [cells[i::len(NORM_COLUMNS)] for i in range(len(NORM_COLUMNS))],
                         len(NORM_COLUMNS))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
