"""Run the benchmark in alternating pairs: a base commit against the working tree.

    python3 tools/bench_pairs.py --pairs 3 --seconds 30
    python3 tools/bench_pairs.py --base HEAD~1 --workload fixture-grid --pairs 5

Run from the root of a checkout.  The base ref (default HEAD) is exported
with ``git archive`` into a temporary directory, and ``bench/run.py --trace 0``
runs there and in the working tree in turn, with the same seed, for each pair
and each workload of BENCHMARK.json (or those given).  The order alternates
from pair to pair (base first, then the working tree first), so a drift in the
machine's speed falls on both sides alike.  Each run's number of ops attempted
and end-to-end metrics are printed when it ends; then, per workload and metric,
the median of each side, the change of the medians, in how many pairs the
working tree did better, and each side's min and max, against which a claimed
gain can be read, and per workload the median ops attempted on each
side (``peak_rss_mb`` grows with it, as the harness keeps every sample) and how
many runs of each side reported ``correct: false``.  The exit status is 1 if
any run did.

Nothing under ``bench/`` changes: the runs write only to the temporary
directory and to the working tree's git-ignored ``.bench_out/`` and
``.bench_work/``.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(ref: str, target: Path) -> None:
    """The files of ref, as git archive writes them, unpacked into target."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(target)


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object that bench/run.py prints last, for one untraced run in tree."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git ref to compare against (default HEAD)")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=float(spec.get("run_seconds", 30)))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]],
                        help="run only this workload (repeatable; default all)")
    args = parser.parse_args(argv)
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base = Path(tmp)
        export(args.base, base)
        trees = {"base": base, "change": ROOT}
        failed = False
        for workload in workloads:
            values = {side: {name: [] for name in metrics} for side in trees}
            incorrect = dict.fromkeys(trees, 0)
            attempted = {side: [] for side in trees}
            for pair in range(args.pairs):
                for side in (("base", "change") if pair % 2 == 0 else ("change", "base")):
                    result = run(trees[side], workload, args.seed, args.seconds)
                    incorrect[side] += not result["correct"]
                    attempted[side].append(result["attempted"])
                    got = {name: result["metrics"][name]["value"] for name in metrics}
                    for name, value in got.items():
                        values[side][name].append(value)
                    shown = " ".join(f"{name}={value:.6g}" for name, value in got.items())
                    print(f"{workload} pair {pair + 1} {side:6s} correct={result['correct']} "
                          f"attempted={result['attempted']} {shown}", flush=True)
            print(f"# {workload}: median base / change, change of the medians, pairs where the change is better, "
                  "[min, max] of base and of change")
            for name, better in metrics.items():
                a, b = values["base"][name], values["change"][name]
                ma, mb = statistics.median(a), statistics.median(b)
                delta = f"{(mb - ma) / ma:+.1%}" if ma else "n/a"
                wins = sum((y < x) if better == "lower" else (y > x) for x, y in zip(a, b))
                print(f"#   {name:14s} {ma:12.6g} / {mb:<12.6g} {delta:>8s}  better in {wins} of {len(a)}  "
                      f"[{min(a):.6g}, {max(a):.6g}] [{min(b):.6g}, {max(b):.6g}]")
            print(f"#   {'attempted':14s} {statistics.median(attempted['base']):12.6g} / "
                  f"{statistics.median(attempted['change']):<12.6g} (median ops run)")
            print(f"#   runs with correct=false: base {incorrect['base']} of {args.pairs}, "
                  f"change {incorrect['change']} of {args.pairs}")
            failed = failed or any(incorrect.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
