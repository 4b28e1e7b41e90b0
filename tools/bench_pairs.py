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
many runs of each side reported ``correct: false``.  Each change of the
medians is printed next to the metric's ``bound`` in BENCHMARK.json, a
relative one, and marked "WORSE THAN BOUND" when the working tree's median is
worse than the base's by more than it.  The exit status is 1 if any run
reported ``correct: false`` or any median is worse than its bound.

``--claim WORKLOAD:METRIC`` judges a gain claimed on one metric and prints
"claim met" or "claim not met", with how each part of the rule reads: at least
ten pairs, the working tree better in at least nine tenths of them (ties count
for neither side), its median better than the base's by more than the distance
between the base's quartiles, and no more runs of the working tree than of the
base reporting ``correct: false``.  The exit status is 1 when the claim is not
met.

Each run has ``PYTHONDONTWRITEBYTECODE=1`` in its environment, so every run
compiles the package afresh, as a fresh checkout does.  A tree that already
holds ``src/galois_equiv/__pycache__`` is refused (exit status 2): its
bytecode would shorten that side's ``setup_s``, which mostly times compiling.

Nothing under ``bench/`` changes: the runs write only to the temporary
directory and to the working tree's git-ignored ``.bench_out/`` and
``.bench_work/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BYTECODE = Path("src", "galois_equiv", "__pycache__")


def export(ref: str, target: Path) -> None:
    """The files of ref, as git archive writes them, unpacked into target."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(target)


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object that bench/run.py prints last, for one untraced run in tree."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(argv, cwd=tree, env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def worse_than_bound(base: float, change: float, better: str, bound: float) -> bool:
    """Whether the change's median is worse than the base's by more than the relative bound."""
    worse = change - base if better == "lower" else base - change
    return worse > bound * abs(base)


def judge_claim(base: list, change: list, better: str, incorrect_base: int,
                incorrect_change: int) -> tuple[bool, list[str]]:
    """Whether a gain claimed on one metric is met, given each side's values
    pair by pair and its count of correct=false runs, and how each part of the
    rule reads (those it fails end in "FAILS")."""
    wins = sum((y < x) if better == "lower" else (y > x) for x, y in zip(base, change))
    q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive") if len(base) > 1 else (base[0],) * 3
    gain = statistics.median(base) - statistics.median(change)
    gain = gain if better == "lower" else -gain
    parts = [
        (len(base) >= 10, f"{len(base)} pairs (at least 10)"),
        (10 * wins >= 9 * len(base), f"better in {wins} of {len(base)} (at least 9/10)"),
        (gain > q3 - q1, f"median better by {gain:.6g} (more than the base's interquartile range {q3 - q1:.6g})"),
        (incorrect_change <= incorrect_base,
         f"correct=false in {incorrect_change} runs of the change (at most the base's {incorrect_base})"),
    ]
    return all(ok for ok, _ in parts), [text if ok else f"{text} FAILS" for ok, text in parts]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git ref to compare against (default HEAD)")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=float(spec.get("run_seconds", 30)))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]],
                        help="run only this workload (repeatable; default all)")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC",
                        help="judge a claimed gain on this metric of this workload (exit 1 unless met)")
    args = parser.parse_args(argv)
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    if args.claim:
        claim = tuple(args.claim.split(":", 1))
        if len(claim) != 2 or claim[0] not in workloads or claim[1] not in metrics:
            parser.error(f"--claim {args.claim}: want WORKLOAD:METRIC, a workload that runs and an end-to-end metric")

    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base = Path(tmp)
        export(args.base, base)
        trees = {"base": base, "change": ROOT}
        stray = [str(tree / BYTECODE) for tree in trees.values() if (tree / BYTECODE).exists()]
        if stray:
            print(f"refusing to run: remove {', '.join(stray)} first; bytecode there shortens that side's setup_s",
                  file=sys.stderr)
            return 2
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
            print(f"# {workload}: median base / change, change of the medians and its bound, pairs where the "
                  "change is better, [min, max] of base and of change")
            for name, (better, bound) in metrics.items():
                a, b = values["base"][name], values["change"][name]
                ma, mb = statistics.median(a), statistics.median(b)
                delta = f"{(mb - ma) / ma:+.1%}" if ma else "n/a"
                wins = sum((y < x) if better == "lower" else (y > x) for x, y in zip(a, b))
                worse = worse_than_bound(ma, mb, better, bound)
                failed = failed or worse
                print(f"#   {name:14s} {ma:12.6g} / {mb:<12.6g} {delta:>8s} (bound {bound:.0%})  "
                      f"better in {wins} of {len(a)}  [{min(a):.6g}, {max(a):.6g}] [{min(b):.6g}, {max(b):.6g}]"
                      + ("  WORSE THAN BOUND" if worse else ""))
            print(f"#   {'attempted':14s} {statistics.median(attempted['base']):12.6g} / "
                  f"{statistics.median(attempted['change']):<12.6g} (median ops run)")
            print(f"#   runs with correct=false: base {incorrect['base']} of {args.pairs}, "
                  f"change {incorrect['change']} of {args.pairs}")
            failed = failed or any(incorrect.values())
            if args.claim and claim[0] == workload:
                name = claim[1]
                met, parts = judge_claim(values["base"][name], values["change"][name], metrics[name][0],
                                         incorrect["base"], incorrect["change"])
                print(f"# claim {args.claim}: {'claim met' if met else 'claim not met'}: " + "; ".join(parts))
                failed = failed or not met
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
