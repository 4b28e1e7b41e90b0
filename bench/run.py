"""Benchmark for galois-equiv: one closed-loop client, driving the program from outside.

    python3 bench/run.py --workload fixture-grid --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  The client is a single process and thread
that sends the next operation only when the previous one has returned.  It
imports ``galois_equiv`` from ``src/`` in the checkout, makes the workload's
inputs from ``--seed``, and runs whole passes over the workload's op list
until the time spent inside operations reaches ``--seconds`` (and at least
MIN_PASSES passes and MIN_SAMPLES operations).  Every answer is checked
outside the timed span.

Times are gated in reference units: each op's wall time over that of a fixed
reference kernel run just before, during and just after it.  On a shared
machine the speed of the CPU changes by up to 2x, in phases from under a
second to more than a minute, and such a ratio cancels most of it.  The
wall-clock figures of the same run are printed and kept as well.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` measures the same
way untraced, then runs one more pass with every layer's public functions
wrapped (see tracing.py), and prints the per-layer metrics.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  The full
result, with the Python version, git SHA, nproc, seed and per-op samples, and
the spans of a traced run, are written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Every measured op, traced or not, runs far below this limit (the slowest
# answer, induce on 2.A7, takes about 2 s; the slowest failure, an exhausted
# witness search, about 3.5 s); the canonical_lambda scans it cuts off run
# for 40 s or more.
DEADLINE_S = 10.0
# What a failure is charged in op_p90_ref, in reference times: three times the
# costliest answer seen (a real-field unit-path norm query, about 3000).
DEADLINE_REF = 10_000.0
# CPU time between two reference kernel runs inside an op (see SpeedSampler).
SAMPLE_S = 0.05
# Set-up is timed this many times, once before the first pass and twice after
# each pass (the rest after the last), so that its repeats fall at different
# times of the run rather than in one phase of a shared machine's speed.
SETUP_REPEATS = 11
# Every op that answers runs at least five times: its cost is the median of
# them, its wall time (wall.*) the fastest.
MIN_PASSES = 5
# statistics.quantiles puts p90 at rank 0.9 (n + 1); ten samples lie beyond it from n = 109.
MIN_SAMPLES = 110
MODULES = ("errors", "field", "linalg", "rep", "equivariance", "induced", "cli")
HEIGHT_GROUPS = tuple(f"H{h}" for h in workloads.HEIGHTS)
ERROR_KINDS = (
    "FactorizationIncomplete",
    "NoWitnessFound",
    "Unsupported",
    "Singular",
    "CapExceeded",
    "NotEquivalent",
    "NotIrreducible",
    "InternalInvariantViolation",
    "BadWitness",
    "BudgetExhausted",
    "EndomorphismCheckFailed",
    "ParseError",
    "GaloisEquivError",
    "ValueError",
    "other",
)


class DeadlineExceeded(BaseException):
    """Raised by the interval timer; a BaseException so ``except Exception`` cannot swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


class Program:
    """galois_equiv and its layer modules, imported fresh from ``<root>/src``."""

    def __init__(self, root: Path):
        src = (root / "src").resolve()
        if not (src / "galois_equiv" / "__init__.py").is_file():
            raise FileNotFoundError(f"no galois_equiv package under {src}")
        for name in [m for m in sys.modules if m == "galois_equiv" or m.startswith("galois_equiv.")]:
            del sys.modules[name]
        if sys.path[0] != str(src):
            sys.path.insert(0, str(src))
        importlib.invalidate_caches()
        self.pkg = importlib.import_module("galois_equiv")
        if Path(self.pkg.__file__).resolve().parent != src / "galois_equiv":
            raise ImportError(f"galois_equiv was imported from {self.pkg.__file__}, not {src}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"galois_equiv.{name}"))

    def modules(self) -> list:
        return [self.pkg] + [getattr(self, name) for name in MODULES]


def reference_kernel():
    """A fixed piece of exact arithmetic (Fraction sums, big-integer squaring),
    0.5 to 1 ms; it runs around and during every op to read the machine's speed."""
    total, x = Fraction(0), 3
    for i in range(1, 150):
        total += Fraction(i % 89 + 1, i % 97 + 1)
        x = (x * x + i) % 10**60
    return total, x


def time_reference() -> float:
    began = perf_counter()
    reference_kernel()
    return perf_counter() - began


class SpeedSampler:
    """Runs the reference kernel every SAMPLE_S of CPU time while an op runs, so
    that an op longer than the machine's speed phases is set against the speed
    during it and not only at its ends.  Installs its SIGPROF handler."""

    def __init__(self):
        self.running = False
        self.reference_s: list[float] = []
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum, frame):
        if self.running:  # a signal delivered after stop() is dropped
            self.reference_s.append(time_reference())

    def start(self):
        self.reference_s = []
        self.running = True
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_S, SAMPLE_S)

    def stop(self):
        self.running = False
        signal.setitimer(signal.ITIMER_PROF, 0)


def run_op(op, recorder=None, sampler: SpeedSampler | None = None) -> tuple[float, object, str | None, list[float]]:
    """Run one op under the deadline; returns (seconds, result, failure kind or
    None, reference kernel times the sampler took during it).  The seconds
    exclude the sampler's runs."""
    result, failure = None, None
    if recorder is not None:
        first_span = len(recorder.start)
        recorder.active = True
    began = ended = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        if sampler is not None:
            sampler.start()
        began = perf_counter()
        try:
            result = op.call()
        finally:
            if sampler is not None:
                sampler.stop()
            ended = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        failure = "deadline"
    except Exception as exc:  # the client keeps running; the kind is counted
        failure = type(exc).__name__
    during = sampler.reference_s if sampler is not None else []
    elapsed = ended - began - sum(during)
    if recorder is not None:
        recorder.active = False
        recorder.stack.clear()
        if failure == "deadline":
            recorder.repair(first_span, perf_counter())
    if failure is None:
        try:
            failure = op.check(result)
        except Exception:  # output the check cannot even read is a wrong answer
            failure = "mismatch"
    return elapsed, result, failure, during


class Measurement:
    """Outcomes of whole passes over one op list.  Each op keeps, for every pass,
    its wall time and its cost: that time over the mean of the reference kernel
    times just before it, during it and just after it."""

    def __init__(self, ops):
        self.ops = ops
        self.times: list[list[float]] = [[] for _ in ops]
        self.costs: list[list[float]] = [[] for _ in ops]
        self.reference_s: list[float] = []
        self.failed: list[str | None] = [None] * len(ops)
        self.failures: Counter = Counter()
        self.group_failures: Counter = Counter()
        self.samples: list[tuple[str, float, float, str | None]] = []
        self.passes = 0
        self.busy_s = 0.0

    def add(self, i: int, elapsed: float, cost: float, failure: str | None):
        self.times[i].append(elapsed)
        self.costs[i].append(cost)
        self.busy_s += elapsed
        self.samples.append((self.ops[i].name, elapsed, cost, failure))
        if failure is not None:
            self.failed[i] = failure
            self.count_failure(i, failure)

    def count_failure(self, i: int, failure: str):
        self.failures[failure] += 1
        if self.ops[i].group:
            self.group_failures[self.ops[i].group] += 1

    @property
    def attempted(self) -> int:
        return self.passes * len(self.ops)

    @property
    def ok(self) -> int:
        return self.attempted - sum(self.failures.values())

    def answered(self) -> list[int]:
        return [i for i, failure in enumerate(self.failed) if failure is None]

    def op_costs(self, pass_index: int | None = None) -> list[float]:
        """Cost of each answered op: its median over the passes, or that of pass ``pass_index``."""
        if pass_index is None:
            return [statistics.median(self.costs[i]) for i in self.answered()]
        return [self.costs[i][pass_index] for i in self.answered()]

    def ops_per_kref(self, pass_index: int | None = None) -> float:
        """Answered ops of one pass per 1000 reference times.  Failures stay out
        of it (ok_frac and op_p90_ref charge them), so that a missed deadline,
        a setting of the benchmark, does not dilute a speedup of the rest."""
        costs = self.op_costs(pass_index)
        return 1000.0 * len(costs) / sum(costs) if costs else 0.0

    def charged(self, values: list[list[float]], charge: float) -> list[float]:
        """One value per attempt: every measured value of an answered op, and
        each failure its own value plus ``charge`` once per pass."""
        out = []
        for vals, failure in zip(values, self.failed):
            out += vals if failure is None else [charge + vals[0]] * self.passes
        return out


def measure(ops, seconds: float, recorder=None, passes: int | None = None, after_pass=None) -> Measurement:
    """Whole passes until ``seconds`` of op time, MIN_PASSES passes and MIN_SAMPLES
    operations have accrued; or exactly ``passes`` passes.  ``after_pass`` is
    called, untimed, after each pass."""
    m = Measurement(ops)
    # a traced op is not sampled, so that its spans hold only the program's time
    sampler = SpeedSampler() if recorder is None else None
    before = time_reference()
    while True:
        for i, op in enumerate(ops):
            if m.failed[i] is not None:
                # the program is deterministic: a failed op would fail the same
                # way again, so later passes count it without running it
                m.count_failure(i, m.failed[i])
                continue
            if recorder is not None:
                recorder.op_id = m.passes * len(ops) + i
            elapsed, _, failure, during = run_op(op, recorder, sampler)
            after = time_reference()
            m.reference_s.append(after)
            m.add(i, elapsed, elapsed / statistics.mean([before, *during, after]), failure)
            before = after
        m.passes += 1
        if after_pass is not None:
            after_pass()
            before = time_reference()
        if passes is not None:
            if m.passes >= passes:
                return m
        elif m.busy_s >= seconds and m.passes >= MIN_PASSES and m.attempted >= MIN_SAMPLES:
            return m


def end_to_end(m: Measurement, setup_s: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics."""
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_kref": (m.ops_per_kref(), "1/kref"),
        "op_p50_ref": (statistics.median(m.op_costs() or [0.0]), "ref"),
        "op_p90_ref": (statistics.quantiles(m.charged(m.costs, DEADLINE_REF), n=10)[8], "ref"),
        "ok_frac": (m.ok / m.attempted, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def wall_clock(m: Measurement) -> dict[str, tuple[float, str]]:
    """The same run in seconds: unsteady on a shared machine, so reported but not gated."""
    answered = m.answered()
    best = [min(m.times[i]) for i in answered] or [0.0]
    return {
        "wall.ops_per_s": (len(answered) / sum(best) if answered else 0.0, "1/s"),
        "wall.op_p50_s": (statistics.median(best), "s"),
        "wall.op_p90_s": (statistics.quantiles(m.charged(m.times, DEADLINE_S), n=10)[8], "s"),
        "wall.reference_s": (statistics.median(m.reference_s), "s"),
    }


def failure_metrics(m: Measurement) -> dict[str, float]:
    out = {"failed_frac": (m.attempted - m.ok) / m.attempted}
    counts = Counter()
    for kind, n in m.failures.items():
        if kind in ("deadline", "mismatch"):
            counts[kind] += n
        else:
            counts[kind if kind in ERROR_KINDS else "other"] += n
    for kind in ERROR_KINDS + ("deadline", "mismatch"):
        out[f"errors.{kind}"] = counts[kind] / m.passes
    for group in HEIGHT_GROUPS:
        out[f"failed.{group}"] = m.group_failures[group] / m.passes
    return out


def git_sha(root: Path) -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class SetUp:
    """Imports the program and builds the workload; each call is one timed set-up."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.times: list[float] = []

    def __call__(self):
        """One more set-up, until SETUP_REPEATS; returns (program, ops).  Later
        set-ups import a fresh copy of the program; the ops of the first keep theirs."""
        if len(self.times) >= SETUP_REPEATS:
            return None
        target = self.workdir / f"setup{len(self.times)}"
        target.mkdir(parents=True)
        began = perf_counter()
        program = Program(ROOT)
        ops = workloads.WORKLOADS[self.workload](program, self.seed, target)
        self.times.append(perf_counter() - began)
        return program, ops


def per_layer(recorder, traced: Measurement, untraced: Measurement) -> dict[str, tuple[float, str]]:
    metrics = tracing.layer_metrics(recorder)
    metrics.update(failure_metrics(traced))
    # one pass against one pass: the untraced run's last, just before the traced one
    metrics["trace.overhead_frac"] = 1.0 - traced.ops_per_kref(0) / untraced.ops_per_kref(untraced.passes - 1)
    fractions = ("trace.overhead_frac", "failed_frac", "density", "grew_frac")
    reported = {
        name: (value, "s" if name.endswith("_s") else "fraction" if name.endswith(fractions) else "count")
        for name, value in metrics.items()
    }
    reported.update(wall_clock(untraced))
    return reported


def main(argv=None) -> int:
    args = parse_args(argv)
    out_dir = ROOT / ".bench_out"
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        set_up = SetUp(args.workload, args.seed, workdir)
        program, ops = set_up()
        m = untraced = measure(ops, args.seconds, after_pass=lambda: (set_up(), set_up()))
        while set_up() is not None:
            pass
        setup_s = statistics.median(set_up.times)
        if args.trace:
            if tracing.installed_wrappers(program):
                raise RuntimeError("wrappers present before the traced run")
            recorder = tracing.Recorder()
            patches = tracing.install(program, recorder)
            try:
                m = measure(ops, args.seconds, recorder, passes=1)
            finally:
                tracing.restore(patches)
            reported = per_layer(recorder, m, untraced)
        else:
            reported = end_to_end(m, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # missing, or another run still uses it
            pass

    result = {
        "correct": m.failures["mismatch"] == 0 and untraced.failures["mismatch"] == 0,
        "attempted": m.attempted,
        "failed": m.attempted - m.ok,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": m.passes,
        "ops_per_pass": len(ops),
        "deadline_s": DEADLINE_S,
        "python": platform.python_version(),
        "git_sha": git_sha(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "failures": dict(m.failures),
    }
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as handle:
        record = {"provenance": provenance, "result": result, "wall_clock": wall_clock(untraced), "samples": m.samples}
        json.dump(record, handle, indent=1)
    if args.trace:
        recorder.write(out_dir / f"{stem}-spans.jsonl.gz")

    print("# " + " ".join(f"{k}={v}" for k, v in provenance.items() if k != "failures"))
    print(f"# failures per kind: {dict(m.failures)}")
    for name, (value, unit) in reported.items():
        print(f"{name:55s} {value:16.6f} {unit}")
    if not args.trace:
        for name, (value, unit) in wall_clock(untraced).items():
            print(f"# {name:53s} {value:16.6f} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
