"""Spans around the program's layers, recorded from outside the program.

The traced run wraps the public functions of each layer module (listed in
WRAPPED) by rebinding every module attribute that holds them, so that a name
copied by ``from .linalg import inverse`` into rep, equivariance and induced
is wrapped too.  Methods are wrapped on their class.  ``install`` returns the
patches and ``restore`` puts every original back; the untraced run never
installs anything.

Each wrapped call records a span (name, start, end, parent, op id) in flat
in-memory arrays.  Calls-only entries just count.  Extras (sizes, digit
counts, outcomes) are gathered after the span closes; the cost of the costly
ones is recorded as a ``trace.bookkeeping`` child span so it is not charged to
the parent's self time.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import Counter
from time import perf_counter

SPAN = "span"
CALLS = "calls"
BOOKKEEPING = "trace.bookkeeping"

# (layer module, attribute or Class.method, mode, metric name)
WRAPPED = [
    ("cli", "load_problem", SPAN, "cli.load_problem"),
    ("rep", "Representation.__init__", SPAN, "rep.Representation"),
    ("rep", "evaluate_word", SPAN, "rep.evaluate_word"),
    ("rep", "check_relations", SPAN, "rep.check_relations"),
    ("rep", "check_automorphism", SPAN, "rep.check_automorphism"),
    ("rep", "burnside_dim", SPAN, "rep.burnside_dim"),
    ("linalg", "Mat.__mul__", CALLS, "linalg.Mat.__mul__"),
    ("linalg", "inverse", SPAN, "linalg.inverse"),
    ("linalg", "matrix_norm", SPAN, "linalg.matrix_norm"),
    ("linalg", "kernel_of_linear_maps", SPAN, "linalg.kernel_of_linear_maps"),
    ("linalg", "rational_elimination", SPAN, "linalg.rational_elimination"),
    ("linalg", "rational_in_span", SPAN, "linalg.rational_in_span"),
    ("linalg", "solve_sylvester_space", SPAN, "linalg.solve_sylvester_space"),
    ("linalg", "IncrementalSpan.insert", SPAN, "linalg.IncrementalSpan.insert"),
    ("field", "factor", SPAN, "field.factor"),
    ("field", "is_norm", SPAN, "field.is_norm"),
    ("field", "hilbert_symbol", CALLS, "field.hilbert_symbol"),
    ("field", "canonical_lambda", SPAN, "field.canonical_lambda"),
    ("field", "norm_witness", SPAN, "field.norm_witness"),
    ("equivariance", "compute_X", SPAN, "equivariance.compute_X"),
    ("equivariance", "lambda_invariant", SPAN, "equivariance.lambda_invariant"),
    ("equivariance", "hilbert90", SPAN, "equivariance.hilbert90"),
    ("equivariance", "equivariant_form", SPAN, "equivariance.equivariant_form"),
    ("equivariance", "verify_certificate", SPAN, "equivariance.verify_certificate"),
    ("induced", "build_induced", SPAN, "induced.build_induced"),
    ("induced", "build_crossed_product", SPAN, "induced.build_crossed_product"),
    ("induced", "CrossedProduct.relation_report", SPAN, "induced.CrossedProduct.relation_report"),
    ("induced", "endomorphism_dim", SPAN, "induced.endomorphism_dim"),
    ("induced", "schur_index", SPAN, "induced.schur_index"),
    ("induced", "InducedRep.evaluate", CALLS, "induced.InducedRep.evaluate"),
]


def _digits(n: int) -> int:
    return len(str(abs(n)))


def _rational_digits(q) -> int:
    return max(_digits(q.numerator), _digits(q.denominator))


class Recorder:
    """Spans in flat arrays, plus counters and maxima gathered at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.active = False
        self.op_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def bookkeeping(self, began: float):
        """Record [began, now] as a child of the innermost open span."""
        idx = len(self.start)
        self.name.append(self.name_id(BOOKKEEPING))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.start.append(began)
        self.end.append(perf_counter())

    def repair(self, first: int, when: float):
        """Make the arrays consistent after an interrupt that may have hit mid-append.

        Truncates to the shortest array and closes, at ``when``, every span
        from index ``first`` on whose wrapper never got to close it.
        """
        n = min(len(self.name), len(self.parent), len(self.op), len(self.start), len(self.end))
        for arr in (self.name, self.parent, self.op, self.start, self.end):
            del arr[n:]
        for i in range(first, n):
            if self.end[i] == 0.0:
                self.end[i] = when

    def raise_max(self, key: str, value: float):
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    def self_times(self) -> dict[str, list]:
        """name -> [calls, self seconds]; self time is a span's duration minus its children's."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, list] = {}
        for i in range(n):
            entry = out.setdefault(self.names[self.name[i]], [0, 0.0])
            entry[0] += 1
            entry[1] += self.end[i] - self.start[i] - child[i]
        return out

    def child_counts(self, parent_name: str, child_name: str) -> int:
        """How many spans named child_name have a parent named parent_name."""
        pid = self._name_ids.get(parent_name)
        cid = self._name_ids.get(child_name)
        if pid is None or cid is None:
            return 0
        return sum(
            1
            for i in range(len(self.start))
            if self.name[i] == cid and self.parent[i] >= 0 and self.name[self.parent[i]] == pid
        )

    def write(self, path):
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for i in range(len(self.start)):
                handle.write(
                    json.dumps(
                        [self.names[self.name[i]], self.start[i], self.end[i], self.parent[i], self.op[i]]
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------------
# extras, called after the span closes with (recorder, args, result, exc)


def _inverse_extra(rec, args, result, exc):
    if exc is not None and type(exc).__name__ == "Singular":
        rec.counts["linalg.inverse.singular"] += 1


def _elimination_extra(rec, args, result, exc):
    if exc is not None:
        return
    rows, ncols = args[0], args[1]
    nrows = len(rows)
    rec.raise_max("linalg.rational_elimination.rows_max", nrows)
    rec.raise_max("linalg.rational_elimination.cols_max", ncols)
    size = nrows * ncols
    if size and size >= rec.maxima.get("linalg.rational_elimination.size_max", 0):
        rec.maxima["linalg.rational_elimination.size_max"] = size
        nonzero = sum(1 for row in rows for x in row if x)
        rec.maxima["linalg.rational_elimination.density"] = nonzero / size
    mat = result[0]
    bits = max((abs(v).bit_length() for row in mat for v in row), default=0)
    rec.raise_max("linalg.rational_elimination.out_bits_max", bits)


def _insert_extra(rec, args, result, exc):
    if exc is None and result:
        rec.counts["linalg.IncrementalSpan.insert.grew"] += 1


def _factor_extra(rec, args, result, exc):
    rec.raise_max("field.factor.input_digits_max", _digits(args[0]))
    if exc is not None and type(exc).__name__ == "FactorizationIncomplete":
        rec.counts["field.factor.incomplete"] += 1


def _norm_witness_extra(rec, args, result, exc):
    if exc is not None:
        rec.counts["field.norm_witness.failed"] += 1


def _compute_x_extra(rec, args, result, exc):
    if exc is None:
        digits = max(_rational_digits(c) for e in result.flatten() for c in e.coeffs)
        rec.raise_max("equivariance.compute_X.x_digits_max", digits)


def _lambda_extra(rec, args, result, exc):
    if exc is None:
        rec.raise_max("equivariance.lambda_invariant.lambda_digits_max", _rational_digits(result.lambda_rep))


EXTRAS = {
    "linalg.inverse": _inverse_extra,
    "linalg.rational_elimination": _elimination_extra,
    "linalg.IncrementalSpan.insert": _insert_extra,
    "field.factor": _factor_extra,
    "field.norm_witness": _norm_witness_extra,
    "equivariance.compute_X": _compute_x_extra,
    "equivariance.lambda_invariant": _lambda_extra,
}
# extras costly enough that their time is kept out of the parent's self time
HEAVY_EXTRAS = {"linalg.rational_elimination", "equivariance.compute_X"}


def _span_wrapper(fn, rec: Recorder, name: str):
    name_id = rec.name_id(name)
    extra = EXTRAS.get(name)
    heavy = name in HEAVY_EXTRAS

    def after(args, result, exc):
        began = perf_counter()
        extra(rec, args, result, exc)
        if heavy:
            rec.bookkeeping(began)

    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        idx = rec.open(name_id)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close(idx)
            if extra is not None:
                after(args, None, exc)
            raise
        rec.close(idx)
        if extra is not None:
            after(args, result, None)
        return result

    wrapper.__wrapped__ = fn
    wrapper.bench_wrapper = True
    return wrapper


def _calls_wrapper(fn, rec: Recorder, name: str):
    def wrapper(*args, **kwargs):
        if rec.active:
            rec.counts[name + ".calls"] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    wrapper.bench_wrapper = True
    return wrapper


def install(program, rec: Recorder) -> list[tuple]:
    """Wrap every entry of WRAPPED; returns the patches for ``restore``."""
    patches = []
    modules = program.modules()
    for module_name, attr, mode, name in WRAPPED:
        module = getattr(program, module_name)
        make = _span_wrapper if mode == SPAN else _calls_wrapper
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, make(original, rec, name))
            patches.append((cls, method, original))
            continue
        original = getattr(module, attr)
        wrapper = make(original, rec, name)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    patches.append((mod, key, original))
    return patches


def restore(patches: list[tuple]):
    for owner, key, original in reversed(patches):
        setattr(owner, key, original)


def installed_wrappers(program) -> list[str]:
    """Names of module attributes and class methods that currently hold a wrapper."""
    found = []
    for mod in program.modules():
        for key, value in vars(mod).items():
            if getattr(value, "bench_wrapper", False):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for meth, member in vars(value).items():
                    if getattr(member, "bench_wrapper", False):
                        found.append(f"{mod.__name__}.{key}.{meth}")
    return found


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of the traced pass over the workload's op list."""
    times = rec.self_times()
    out: dict[str, float] = {}
    for _, _, mode, name in WRAPPED:
        if mode == CALLS:
            out[name + ".calls"] = rec.counts[name + ".calls"]
            continue
        calls, self_s = times.get(name, (0, 0.0))
        out[name + ".calls"] = calls
        out[name + ".self_s"] = self_s
    out["linalg.inverse.singular"] = rec.counts["linalg.inverse.singular"]
    for key in ("rows_max", "cols_max", "density", "out_bits_max"):
        out[f"linalg.rational_elimination.{key}"] = rec.maxima.get(f"linalg.rational_elimination.{key}", 0)
    inserts = times.get("linalg.IncrementalSpan.insert", (0, 0.0))[0]
    out["linalg.IncrementalSpan.insert.grew_frac"] = (
        rec.counts["linalg.IncrementalSpan.insert.grew"] / inserts if inserts else 0.0
    )
    out["field.factor.input_digits_max"] = rec.maxima.get("field.factor.input_digits_max", 0)
    out["field.factor.incomplete"] = rec.counts["field.factor.incomplete"]
    out["field.norm_witness.failed"] = rec.counts["field.norm_witness.failed"]
    out["equivariance.compute_X.x_digits_max"] = rec.maxima.get("equivariance.compute_X.x_digits_max", 0)
    out["equivariance.lambda_invariant.lambda_digits_max"] = rec.maxima.get(
        "equivariance.lambda_invariant.lambda_digits_max", 0
    )
    out["equivariance.hilbert90.attempts"] = rec.child_counts("equivariance.hilbert90", "linalg.inverse")
    return out
