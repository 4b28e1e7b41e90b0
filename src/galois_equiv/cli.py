"""Batch front end: problem files in, JSON reports and certificates out.

Problem files are JSON with four blocks: "field" (min_poly, sigma_image),
"group" (generators, relations, tau, tau_order, optional order),
"representation" (generator name -> matrix), "options" (seed, witness).
Words are generator names separated by whitespace, with a trailing ' for an
inverse, so a name is non-empty, has no whitespace and does not end in '.
Rationals are integers or "p/q" strings; field elements are coefficient
arrays in the basis 1, t, ..., t^(r-1).

Exit codes: 0 success (trivial invariant, construction done), 1 validation
or construction failure, 2 parse failure or an unwritable --out file, 3
genuine obstruction (the invariant is not a norm), an answer whose report
still goes to stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from importlib.resources import files as resource_files
from math import gcd, lcm
from typing import NamedTuple, Optional

from .errors import GaloisEquivError, ParseError, Singular
from .field import CyclicExtension, FieldElement, _rational_pair, factor, rational_to_string
from .linalg import Mat
from .rep import (
    GroupData,
    Representation,
    burnside_dim,
    check_automorphism,
    check_relations,
)
from .equivariance import (
    EquivarianceCertificate,
    equivariant_form,
    lambda_invariant,
)
from .induced import build_crossed_product, schur_index


def fixture_path(name: str) -> str:
    """Absolute path of a packaged example problem file."""
    return str(resource_files("galois_equiv").joinpath("fixtures", name))


# ---------------------------------------------------------------------------
# problem file parsing


def _as_rational(value, where: str, *index: int) -> tuple[int, int]:
    """An integer or a "p/q" string as (numerator, denominator > 0).  Bad input
    raises ParseError at where[i][j]... for index (i, j, ...), formatted only then."""
    if type(value) is int:
        return value, 1
    if isinstance(value, str):
        try:
            return _rational_pair(value)
        except (ValueError, ZeroDivisionError) as exc:
            message = str(exc)
    elif isinstance(value, bool):
        message = "expected a rational, got a boolean"
    else:
        message = f"expected an integer or 'p/q' string, got {type(value).__name__}"
    raise ParseError(message, where + "".join(f"[{k}]" for k in index))


def _as_coeffs(value, ext: CyclicExtension, where: str, *index: int) -> list[tuple[int, int]]:
    """A rational or an array of at most r of them, as r (numerator, denominator) pairs."""
    if not isinstance(value, list):
        coeffs = [_as_rational(value, where, *index)]
    elif len(value) > ext.degree:
        where += "".join(f"[{k}]" for k in index)
        raise ParseError(f"coefficient array longer than the field degree {ext.degree}", where)
    else:
        coeffs = [_as_rational(v, where, *index, k) for k, v in enumerate(value)]
    return coeffs + [(0, 1)] * (ext.degree - len(coeffs))


def _as_element(value, ext: CyclicExtension, where: str) -> FieldElement:
    coeffs = _as_coeffs(value, ext, where)
    den = lcm(*(q for _, q in coeffs))
    return ext._make([p * (den // q) for p, q in coeffs], den)


def _as_matrix(value, ext: CyclicExtension, where: str) -> Mat:
    if not isinstance(value, list) or not value or not all(isinstance(r, list) for r in value):
        raise ParseError("expected a matrix as a list of rows", where)
    width = len(value[0])
    rows = []
    for i, row in enumerate(value):
        if len(row) != width:
            raise ParseError(f"row {i} has {len(row)} entries, expected {width}", where)
        rows.append([_as_coeffs(v, ext, where, i, j) for j, v in enumerate(row)])
    den = lcm(*(q for row in rows for e in row for _, q in e))
    return Mat._of(ext, [[tuple(p * (den // q) for p, q in e) for e in row] for row in rows], den)


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise ParseError(f"missing required key {key!r}", where)
    return data[key]


def _as_rationals(data: dict, key: str, where: str) -> list[Fraction]:
    value = _require(data, key, where)
    if not isinstance(value, list):
        raise ParseError("expected an array of rationals", f"{where}.{key}")
    return [Fraction(*_as_rational(v, f"{where}.{key}", k)) for k, v in enumerate(value)]


def _reject_unknown_keys(block: dict, generators: list[str], where: str) -> None:
    for key in block:
        if key not in generators:
            raise ParseError(f"{key!r} is not a generator", where)


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError("expected an integer", where)
    return value


class Problem(NamedTuple):
    ext: CyclicExtension
    group: GroupData
    gen_names: list[str]
    matrices: list[Mat]
    options: dict

    def representation(self) -> Representation:
        """The representation, with a singular generator image reported as bad input."""
        try:
            return Representation(self.group, self.ext, self.matrices)
        except Singular as exc:
            raise ParseError(str(exc), "representation")


def _read_json(path: str, prefix: str = ""):
    """The JSON value in the file at path; a syntax error is at prefix + "line L column C",
    and any other unreadable file (not UTF-8, an oversized integer, nesting too deep) at path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, f"{prefix}line {exc.lineno} column {exc.colno}")
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(str(exc), path)


def load_problem(path: str) -> Problem:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ParseError("top level must be a JSON object", "$")

    fld = _require(data, "field", "$")
    if not isinstance(fld, dict):
        raise ParseError("field must be an object", "field")
    try:
        ext = CyclicExtension(_as_rationals(fld, "min_poly", "field"), _as_rationals(fld, "sigma_image", "field"))
    except ValueError as exc:
        raise ParseError(str(exc), "field")

    grp = _require(data, "group", "$")
    if not isinstance(grp, dict):
        raise ParseError("group must be an object", "group")
    generators = _require(grp, "generators", "group")
    if not isinstance(generators, list) or not generators or not all(isinstance(g, str) for g in generators):
        raise ParseError("generators must be a non-empty list of names", "group.generators")
    if len(set(generators)) != len(generators):
        raise ParseError("generator names must be distinct", "group.generators")
    if bad := [k for k, g in enumerate(generators) if g.split() != [g] or g.endswith("'")]:  # no word names it
        raise ParseError("generator name is empty, has whitespace or ends in '", f"group.generators[{bad[0]}]")
    relations = _require(grp, "relations", "group")
    if not isinstance(relations, list) or not all(isinstance(w, str) for w in relations):
        raise ParseError("relations must be a list of words", "group.relations")
    tau = _require(grp, "tau", "group")
    if not isinstance(tau, dict) or not all(isinstance(w, str) for w in tau.values()):
        raise ParseError("tau must be an object mapping generator names to words", "group.tau")
    _reject_unknown_keys(tau, generators, "group.tau")
    if _as_int(_require(grp, "tau_order", "group"), "group.tau_order") != ext.degree:
        raise ParseError(f"tau order must equal the field degree {ext.degree}", "group.tau_order")
    declared = grp.get("order")
    if declared is not None and _as_int(declared, "group.order") < 1:
        raise ParseError("the group order must be a positive integer", "group.order")
    try:
        group = GroupData.from_strings(generators, relations, tau, declared)
    except (GaloisEquivError, ValueError) as exc:
        raise ParseError(str(exc), "group")

    rep_block = _require(data, "representation", "$")
    if not isinstance(rep_block, dict):
        raise ParseError("representation must be an object", "representation")
    _reject_unknown_keys(rep_block, generators, "representation")
    matrices = []
    for name in generators:
        if name not in rep_block:
            raise ParseError(f"missing matrix for generator {name!r}", "representation")
        matrices.append(_as_matrix(rep_block[name], ext, f"representation.{name}"))
    n = matrices[0].nrows
    for name, m in zip(generators, matrices):
        if m.nrows != m.ncols or m.nrows != n:
            raise ParseError("matrices must be square and of equal size", f"representation.{name}")

    options = data.get("options", {})
    if not isinstance(options, dict):
        raise ParseError("options must be an object", "options")
    return Problem(ext, group, list(generators), matrices, options)


# ---------------------------------------------------------------------------
# certificate serialization


def _element_json(num: tuple[int, ...], den: int) -> list[str]:
    """The coefficients num / den, each "n" or "p/q" in lowest terms, by one gcd."""
    return [str(c // g) if (g := gcd(c, den)) == den else f"{c // g}/{den // g}" for c in num]


def _mat_json(m: Mat) -> list[list[list[str]]]:
    return [[_element_json(e, m.den) for e in row] for row in m.num]


def certificate_to_json(cert: EquivarianceCertificate, problem: Problem) -> dict:
    return {
        "kind": "equivariance-certificate",
        "seed": cert.seed,
        "lambda_rep": rational_to_string(cert.lambda_rep),
        "lambda_canonical": rational_to_string(cert.lambda_canonical),
        "is_trivial": cert.is_trivial,
        "x": _mat_json(cert.x),
        "witness": None if cert.witness is None else _element_json(cert.witness.num, cert.witness.den),
        "y": None if cert.y is None else _mat_json(cert.y),
        "rho_prime": None
        if cert.rho_prime is None
        else {name: _mat_json(m) for name, m in zip(problem.gen_names, cert.rho_prime)},
    }


def certificate_from_json(data: dict, problem: Problem) -> EquivarianceCertificate:
    ext = problem.ext
    where = "certificate"
    witness = data.get("witness")
    y = data.get("y")
    rho_prime = data.get("rho_prime")
    return EquivarianceCertificate(
        x=_as_matrix(data["x"], ext, f"{where}.x"),
        lambda_rep=Fraction(*_as_rational(data["lambda_rep"], f"{where}.lambda_rep")),
        lambda_canonical=Fraction(*_as_rational(data["lambda_canonical"], f"{where}.lambda_canonical")),
        is_trivial=bool(data["is_trivial"]),
        witness=None if witness is None else _as_element(witness, ext, f"{where}.witness"),
        y=None if y is None else _as_matrix(y, ext, f"{where}.y"),
        rho_prime=None
        if rho_prime is None
        else tuple(_as_matrix(rho_prime[name], ext, f"{where}.rho_prime.{name}") for name in problem.gen_names),
        seed=_as_int(data.get("seed", 0), f"{where}.seed"),
    )


def load_replay(path: str, problem: Problem) -> Mat:
    data = _read_json(path, f"{path}: ")
    if isinstance(data, dict):
        data = data.get("y")
    if data is None:
        raise ParseError("replay file carries no matrix under 'y'", path)
    y = _as_matrix(data, problem.ext, f"{path}: y")
    n = problem.matrices[0].nrows
    if (y.nrows, y.ncols) != (n, n):
        raise ParseError(f"expected a {n} x {n} matrix, got {y.nrows} x {y.ncols}", f"{path}: y")
    return y


# ---------------------------------------------------------------------------
# subcommands


def _dump(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _note_declared_order(report: dict, problem: Problem, canonical: Optional[Fraction]) -> None:
    """Note whether each prime of a nontrivial canonical lambda divides the declared group order."""
    order = problem.group.declared_order
    if order and canonical is not None:
        _, primes = factor(abs(int(canonical)))
        report["lambda_primes_divide_declared_order"] = all(order % p == 0 for p, _ in primes)


def cmd_validate(problem: Problem, args) -> tuple[int, dict]:
    rep = problem.representation()
    rel = check_relations(rep)
    aut = check_automorphism(rep)
    n = rep.dim
    dim = burnside_dim(rep)
    irreducible = dim == n * n
    ok = rel.ok and aut.ok and irreducible
    report = {
        "relations": [{"word": w, "holds": h} for w, h in rel.entries],
        "automorphism": [{"check": c, "holds": h} for c, h in aut.entries],
        "burnside_dim": dim,
        "absolutely_irreducible": irreducible,
        "ok": ok,
    }
    return (0 if ok else 1), report


def _witness_from(problem: Problem, args) -> Optional[FieldElement]:
    raw = args.witness if args.witness is not None else problem.options.get("witness")
    where = "--witness" if args.witness is not None else "options.witness"
    # "2, -1" splits into coefficients; _as_rational strips the spaces
    return None if raw is None else _as_element(raw.split(",") if isinstance(raw, str) else raw, problem.ext, where)


def cmd_lambda(problem: Problem, args) -> tuple[int, dict]:
    rep = problem.representation()
    inv = lambda_invariant(rep, _witness_from(problem, args))
    report = {
        "lambda_rep": rational_to_string(inv.lambda_rep),
        "lambda_canonical": rational_to_string(inv.lambda_canonical),
        "is_trivial": inv.is_trivial,
    }
    _note_declared_order(report, problem, None if inv.is_trivial else inv.lambda_canonical)
    return (0 if inv.is_trivial else 3), report


def cmd_equivariant(problem: Problem, args) -> tuple[int, dict]:
    rep = problem.representation()
    seed = args.seed if args.seed is not None else problem.options.get("seed", 0)
    replay = load_replay(args.replay_y, problem) if args.replay_y else None
    cert = equivariant_form(
        rep,
        seed=_as_int(seed, "options.seed"),
        witness=_witness_from(problem, args),
        replay_y=replay,
    )
    payload = certificate_to_json(cert, problem)
    if args.out:
        # the file holds only text that parses back to cert, which passed verify_certificate
        text = _dump(payload)
        if certificate_from_json(json.loads(text), problem) != cert:
            raise GaloisEquivError("written certificate does not read back as the verified one")
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ParseError(str(exc), args.out)
    if not cert.is_trivial:
        report = {
            "is_trivial": False,
            "obstruction": "lambda is not a norm from the extension",
            "lambda_rep": payload["lambda_rep"],
            "lambda_canonical": payload["lambda_canonical"],
            "symbol": [payload["lambda_canonical"], str(problem.ext.disc_core)],
            "certificate": payload,
        }
        return 3, report
    # equivariant_form returns only certificates that verify_certificate accepted
    return 0, {"is_trivial": True, "verified": True, "certificate": payload}


def cmd_induce(problem: Problem, args) -> tuple[int, dict]:
    rep = problem.representation()
    cp = build_crossed_product(rep)
    t = problem.ext.gen()
    samples = [(t, problem.ext.one() + t), (problem.ext.element([2] + [0] * (problem.ext.degree - 1)), t * t)]
    relations_ok = all(ok for pair in samples for _, ok in cp.relation_report(*pair))
    result = schur_index(cp, _witness_from(problem, args))
    report = {
        "endo_dim": problem.ext.degree ** 2,  # the commutant of X's crossed product (build_crossed_product)
        "relations_ok": relations_ok,
        "schur_index": result.index,
        "symbol": None if result.symbol is None else [rational_to_string(result.symbol[0]), str(result.symbol[1])],
    }
    _note_declared_order(report, problem, None if result.symbol is None else result.symbol[0])
    return (0 if result.index == 1 else 3), report


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and then reused."""
    parser = argparse.ArgumentParser(
        prog="galois-equiv",
        description="decide and construct Galois-equivariant forms of matrix representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--seed": {"type": int, "help": "seed for the randomized construction"},
        "--witness": {"help": "norm witness as comma-separated coefficients, e.g. '2,-1'"},
        "--replay-Y": {"dest": "replay_y", "help": "file with a matrix to replay instead of searching"},
        "--out": {"help": "write the certificate to this file"},
    }
    # each subcommand takes only the flags it reads
    commands = {
        "validate": (cmd_validate, "check relations, the automorphism, and absolute irreducibility", []),
        "lambda": (cmd_lambda, "compute the norm-class invariant of the intertwiner", ["--witness"]),
        "equivariant": (cmd_equivariant, "construct the equivariant conjugate or report the obstruction", list(flags)),
        "induce": (cmd_induce, "analyze the induced representation and its Schur index", ["--witness"]),
    }
    for name, (run, text, names) in commands.items():
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=run)
        p.add_argument("file", help="problem description file (JSON)")
        for flag in names:
            p.add_argument(flag, **flags[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        problem = load_problem(args.file)
        code, report = args.run(problem, args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (GaloisEquivError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(_dump(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
