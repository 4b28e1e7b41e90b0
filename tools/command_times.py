"""Time each CLI subcommand on each bundled fixture, in-process, best of N.

    python3 tools/command_times.py
    python3 tools/command_times.py --base HEAD~1 --repeat 30

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
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True  # a __pycache__ left in src/ would speed up the benchmark's set-up of one side
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from bench_pairs import ROOT, export  # noqa: E402
from run import Program  # noqa: E402

FIXTURES = ("c3_inversion", "a5_3dim", "2a7_4dim")
COMMANDS = ("validate", "lambda", "equivariant", "induce")


def run_once(cli, argv: list[str]) -> tuple[float, int, str]:
    """The wall time, exit code and stdout of one cli.main(argv)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        began = perf_counter()
        code = cli.main(argv)
        elapsed = perf_counter() - began
    return elapsed, code, out.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git ref to time against the working tree, alternately")
    parser.add_argument("--repeat", type=int, default=15, help="calls per cell and side (default 15)")
    args = parser.parse_args(argv)

    with contextlib.ExitStack() as stack:
        roots = {}
        if args.base:
            roots["base"] = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="command-times-")))
            export(args.base, roots["base"])
        roots["change"] = ROOT
        # each copy's fixtures by path: cli.fixture_path finds the package last imported
        clis = {side: Program(root).cli for side, root in roots.items()}
        cells = [(f, c) for f in FIXTURES for c in COMMANDS]
        paths = {side: {f: str(root / "src" / "galois_equiv" / "fixtures" / f"{f}.json") for f in FIXTURES}
                 for side, root in roots.items()}
        best = {side: dict.fromkeys(cells, float("inf")) for side in roots}
        results = {side: {} for side in roots}
        order = list(roots)
        for _ in range(args.repeat):
            for fixture, command in cells:
                for side in order:
                    elapsed, code, out = run_once(clis[side], [command, paths[side][fixture]])
                    best[side][fixture, command] = min(best[side][fixture, command], elapsed)
                    results[side][fixture, command] = (code, out)
            order.reverse()

    def shown(times: dict) -> str:
        """One cell: the change's time in ms, after the base's and the change of the two when timed against one."""
        new = times["change"] * 1e3
        if "base" not in times:
            return f"{new:.2f} ms"
        old = times["base"] * 1e3
        return f"{old:.2f} -> {new:.2f} ms ({(new - old) / old:+.0%})"

    differs = False
    print("| fixture | " + " | ".join(COMMANDS) + " |")
    print("|---" * (len(COMMANDS) + 1) + "|")
    for fixture in FIXTURES:
        row = []
        for cell in ((fixture, command) for command in COMMANDS):
            text = shown({side: best[side][cell] for side in roots})
            if "base" in roots and results["base"][cell] != results["change"][cell]:
                differs = True
                text += " DIFFERS"
            row.append(text)
        print(f"| {fixture} | " + " | ".join(row) + " |")
    total = shown({side: sum(best[side].values()) for side in roots})
    print(f"| total | {total} |" + " |" * (len(COMMANDS) - 1))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
