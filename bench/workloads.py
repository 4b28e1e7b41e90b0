"""The benchmark's workloads: inputs made from a seed, and a check of every answer.

A workload's setup returns its op list: one pass.  An op is one CLI call
(``galois_equiv.cli.main`` in-process) or one norm query through the package's
exported functions.  ``call`` is the timed part.  ``check`` runs afterwards,
outside the timed span, and returns None for a right answer or the kind of
failure: the exception name reported on exit 1, ``ParseError`` on exit 2, or
``mismatch`` for an answer that differs from the expected one.

Why these three workloads (see README.md in this directory):

* fixture-grid: the shipped user path on the bundled problems, small
  coefficients; ``induce`` on 2.A7 dominates it.
* height-sweep: A5 and 2.A7 conjugated by random Y with entries in [-H, H];
  coefficient growth and the known FactorizationIncomplete / NoWitnessFound
  failures.  C3 is left out: its representation is 1x1, so conjugation does
  nothing to it.  The conjugators are the same for every seed, which only
  shuffles the order, so which calls fail does not change with the seed.
* norm-queries: the field layer alone, including the canonical_lambda scan and
  the real-field unit path, with no matrices.
"""

from __future__ import annotations

import io
import json
import random
import re
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from pathlib import Path
from typing import Callable, Optional

EXPECTED = Path(__file__).resolve().parent / "expected"


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    group: str = ""


def load_expected(name: str) -> dict:
    with open(EXPECTED / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# CLI calls


def cli_call(program, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = program.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_failure(code: int, stderr: str) -> Optional[str]:
    """The failure kind of a CLI exit, or None when the command answered."""
    if code == 2:
        return "ParseError"
    if code == 1:
        match = re.match(r"error: (\w+):", stderr)
        return match.group(1) if match else "exit1"
    return None


# ---------------------------------------------------------------------------
# fixture-grid

FIXTURES = ("c3_inversion", "a5_3dim", "2a7_4dim")
SUBCOMMANDS = ("validate", "lambda", "equivariant", "induce")


def fixture_grid_argvs(program, workdir: Path) -> dict[str, list[str]]:
    """Op name -> argv for every fixture-grid call."""
    path = program.cli.fixture_path
    argvs = {f"{sub} {fx}": [sub, path(f"{fx}.json")] for fx in FIXTURES for sub in SUBCOMMANDS}
    a5 = path("a5_3dim.json")
    argvs["equivariant a5_3dim --replay-Y"] = ["equivariant", a5, "--replay-Y", path("a5_replay_y.json")]
    argvs["equivariant a5_3dim --out"] = ["equivariant", a5, "--out", str(workdir / "a5_certificate.json")]
    return argvs


def setup_fixture_grid(program, seed: int, workdir: Path) -> list[Op]:
    expected = load_expected("fixture_grid")
    cert_path = workdir / "a5_certificate.json"
    ops = []
    for name, argv in fixture_grid_argvs(program, workdir).items():
        want = expected[name]

        def check(result, want=want):
            code, stdout, stderr = result
            failure = cli_failure(code, stderr)
            if failure:
                return failure
            if code != want["code"] or stdout != want["stdout"]:
                return "mismatch"
            if "file" in want and cert_path.read_text(encoding="utf-8") != want["file"]:
                return "mismatch"
            return None

        ops.append(Op(name, lambda argv=argv: cli_call(program, argv), check))
    random.Random(f"fixture-grid/{seed}").shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# height-sweep

SWEEP_FIXTURES = ("a5_3dim", "2a7_4dim")
HEIGHTS = (3, 10, 30, 100)
CONJUGATORS_PER_HEIGHT = 2


def _rational_json(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _mat_json(m) -> list:
    return [[[_rational_json(c) for c in e.coeffs] for e in row] for row in m.rows]


def random_conjugator(program, ext, n: int, height: int, rng: random.Random):
    """An invertible n x n matrix whose entries have coefficients uniform in [-height, height]."""
    while True:
        y = program.linalg.Mat(
            ext,
            [
                [ext.element([rng.randint(-height, height) for _ in range(ext.degree)]) for _ in range(n)]
                for _ in range(n)
            ],
        )
        try:
            return y, program.linalg.inverse(y)
        except program.errors.Singular:
            continue


def write_conjugated_problems(program, workdir: Path) -> list[tuple[str, int, Path]]:
    """Write every height-sweep problem file; returns (fixture, H, path) for each."""
    out = []
    for fx in SWEEP_FIXTURES:
        source = program.cli.fixture_path(f"{fx}.json")
        with open(source, encoding="utf-8") as handle:
            data = json.load(handle)
        problem = program.cli.load_problem(source)
        ext = problem.ext
        n = problem.matrices[0].nrows
        for height in HEIGHTS:
            for j in range(CONJUGATORS_PER_HEIGHT):
                rng = random.Random(f"height-sweep/{fx}/{height}/{j}")
                y, y_inv = random_conjugator(program, ext, n, height, rng)
                data["representation"] = {
                    name: _mat_json(y * m * y_inv) for name, m in zip(problem.gen_names, problem.matrices)
                }
                path = workdir / f"{fx}-H{height}-{j}.json"
                path.write_text(json.dumps(data, indent=1), encoding="utf-8")
                out.append((fx, height, path))
    return out


def _sweep_check(program, sub: str, path: Path, want: dict):
    problems = {}

    def check(result):
        code, stdout, stderr = result
        failure = cli_failure(code, stderr)
        if failure:
            return failure
        report = json.loads(stdout)
        cert = report.get("certificate")
        canonical = report.get("lambda_canonical", cert and cert["lambda_canonical"])
        if report["is_trivial"] != want["is_trivial"] or canonical != want["lambda_canonical"]:
            return "mismatch"
        if code != (0 if want["is_trivial"] else 3):
            return "mismatch"
        if sub == "equivariant":
            if "problem" not in problems:
                problems["problem"] = program.cli.load_problem(str(path))
            problem = problems["problem"]
            reloaded = program.cli.certificate_from_json(cert, problem)
            if not program.equivariance.verify_certificate(reloaded, problem.representation()).ok:
                return "mismatch"
        return None

    return check


def setup_height_sweep(program, seed: int, workdir: Path) -> list[Op]:
    expected = load_expected("height_sweep")
    ops = []
    for fx, height, path in write_conjugated_problems(program, workdir):
        for sub in ("lambda", "equivariant"):
            argv = [sub, str(path)]
            ops.append(
                Op(
                    f"{sub} {path.name}",
                    lambda argv=argv: cli_call(program, argv),
                    _sweep_check(program, sub, path, expected[fx]),
                    group=f"H{height}",
                )
            )
    random.Random(f"height-sweep/{seed}").shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# norm-queries

# t^2 - d with sigma: t -> -t
FIELDS = (-1, -3, -7, 2, 5, 13)
REAL_FIELDS = tuple(d for d in FIELDS if d > 0)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
MEDIUM_PRIMES = tuple(p for p in range(53, 1000) if all(p % q for q in range(2, int(p**0.5) + 1)))
# One pass holds three strata.  The queries are drawn from a generator with a
# fixed key and the seed only shuffles their order: with the primes drawn per
# seed, the cost of a pass of 432 small queries differed by 28% between seeds
# 0 and 1, because a few of them cost fifty times the median.
# * SMALL_QUERIES over all six fields, cycling through every SHAPE (primes in
#   the numerator, primes in the denominator, at most three in all, a medium
#   prime or not, sign), one query per field and shape.  The canonical_lambda
#   scan stops at the squarefree kernel of lambda or earlier
#   (about 40 us per step), and the witness search finds small
#   representations at once, so KERNEL_CAP and SIZE_CAP keep every one of
#   them far below the deadline.
# * UNIT_PATH_QUERIES: lambda = -N(a + b t) in a real field with a ~ 10^5 and
#   b <= 300.  No q within the witness budget reaches a negative target, so
#   the direct search always fails and the answer comes from the norm -1 unit
#   times a witness for -lambda (about 1.5 s each).
# * SLOW_QUERIES: products of two primes in [1000, 1500] inert in the field.
#   Every unramified prime with symbol -1 divides the canonical value, so the
#   canonical_lambda scan runs to 10^6 (a minute or more) and meets the deadline.
SMALL_QUERIES = 216
SHAPES = [
    (num, den, medium, sign)
    for num in range(4)
    for den in range(3)
    if num + den <= 3
    for medium in (False, True)
    for sign in (1, -1)
]
UNIT_PATH_QUERIES = 2
SLOW_QUERIES = 1
KERNEL_CAP = 5000
SIZE_CAP = 10**6
SLOW_PRIME_RANGE = (1000, 1500)


def field_for(program, d: int):
    return program.field.CyclicExtension([-d, 0, 1], [0, -1])


def _legendre(a: int, p: int) -> int:
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def _inert_primes(d: int) -> list[int]:
    lo, hi = SLOW_PRIME_RANGE
    return [
        p
        for p in range(lo, hi)
        if all(p % q for q in range(2, int(p**0.5) + 1)) and _legendre(d, p) == -1
    ]


def make_queries(seed: int) -> list[tuple[int, Fraction]]:
    """The (d, lambda) queries of one pass, in the order of ``seed``."""
    rng = random.Random("norm-queries")
    queries = []
    for i in range(SMALL_QUERIES):
        d = FIELDS[i % len(FIELDS)]
        num_primes, den_primes, medium, sign = SHAPES[(i // len(FIELDS)) % len(SHAPES)]
        while True:
            exponents = Counter()  # a denominator prime p is keyed -p
            for _ in range(num_primes):
                exponents[rng.choice(SMALL_PRIMES)] += rng.randint(1, 2)
            for _ in range(den_primes):
                exponents[-rng.choice(SMALL_PRIMES)] += rng.randint(1, 2)
            if medium:
                exponents[rng.choice(MEDIUM_PRIMES)] += 1
            num = prod(p**e for p, e in exponents.items() if p > 0)
            den = prod((-p) ** e for p, e in exponents.items() if p < 0)
            primes = {abs(p) for p in exponents}
            kernel = prod(p for p in primes if (exponents[p] + exponents[-p]) % 2)
            if num * den <= SIZE_CAP and kernel <= KERNEL_CAP:
                break
        queries.append((d, Fraction(sign * num, den)))
    for i in range(UNIT_PATH_QUERIES):
        d = REAL_FIELDS[i % len(REAL_FIELDS)]
        a, b = rng.randint(10**5, 3 * 10**5), rng.randint(1, 300)
        queries.append((d, Fraction(-(a * a - d * b * b))))
    for _ in range(SLOW_QUERIES):
        d = rng.choice(FIELDS)
        p, q = rng.sample(_inert_primes(d), 2)
        queries.append((d, Fraction(p * q)))
    random.Random(f"norm-queries/{seed}").shuffle(queries)
    return queries


def query_key(d: int, lam: Fraction) -> str:
    return f"{d} {_rational_json(lam)}"


def norm_query(program, ext, lam: Fraction):
    """is_norm, then canonical_lambda, then norm_witness when lambda is a norm."""
    pkg = program.pkg
    decided = pkg.is_norm(lam, ext)
    canonical = pkg.canonical_lambda(lam, ext)
    witness = pkg.norm_witness(lam, ext) if decided else None
    return decided, canonical, witness


def _witness_norm(ext, witness) -> Fraction:
    # N(x + y t) = x^2 - b x y + c y^2 for t^2 + b t + c
    c, b = ext.min_poly[0], ext.min_poly[1]
    x, y = witness.coeffs
    return x * x - b * x * y + c * y * y


def _is_squarefree_integer(q: Fraction) -> bool:
    if q.denominator != 1 or q == 0:
        return False
    n = abs(q.numerator)
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


def _norm_check(program, ext, lam: Fraction, recorded: Optional[str]):
    def check(result):
        decided, canonical, witness = result
        if decided != (canonical == 1) or not _is_squarefree_integer(canonical):
            return "mismatch"
        if decided and _witness_norm(ext, witness) != lam:
            return "mismatch"
        if recorded is not None:
            return None if _rational_json(canonical) == recorded else "mismatch"
        return None if program.pkg.is_norm(lam / canonical, ext) else "mismatch"

    return check


def setup_norm_queries(program, seed: int, workdir: Path) -> list[Op]:
    recorded = load_expected("norm_queries")
    fields = {d: field_for(program, d) for d in FIELDS}
    ops = []
    for d, lam in make_queries(seed):
        ext = fields[d]
        key = query_key(d, lam)
        ops.append(
            Op(
                f"norm {key}",
                lambda ext=ext, lam=lam: norm_query(program, ext, lam),
                _norm_check(program, ext, lam, recorded.get(key)),
            )
        )
    return ops


WORKLOADS = {
    "fixture-grid": setup_fixture_grid,
    "height-sweep": setup_height_sweep,
    "norm-queries": setup_norm_queries,
}
