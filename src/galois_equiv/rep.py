"""Finitely presented groups with a distinguished automorphism, and their matrix
representations over a cyclic extension.

Words are tuples of (generator index, +-1) letters.  The text form is
whitespace separated with a trailing apostrophe marking an inverse letter,
e.g. "a b' a".
"""

from __future__ import annotations

import itertools
import math
from operator import mul
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import ParseError, Singular, UnknownGenerator
from .field import CyclicExtension, _modular_root
from .linalg import IncrementalSpan, Mat, _insert_mod_p, _reduce_mod_p, inverse, require_invertible

Word = tuple[tuple[int, int], ...]


def parse_word(text: str, gen_names: Sequence[str]) -> Word:
    index = {name: k for k, name in enumerate(gen_names)}
    letters = []
    for token in text.split():
        exp = 1
        if token.endswith("'"):
            exp = -1
            token = token[:-1]
        if token not in index:
            raise UnknownGenerator(f"unknown generator {token!r}")
        letters.append((index[token], exp))
    return tuple(letters)


def word_to_string(word: Word, gen_names: Sequence[str]) -> str:
    return " ".join(gen_names[g] + ("'" if e < 0 else "") for g, e in word)


def invert_word(word: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(word))


def free_reduce(word: Word) -> Word:
    out: list[tuple[int, int]] = []
    for letter in word:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


class GroupData:
    """Generators, relations, and an automorphism tau given on generators.

    tau_images[k] is the word tau sends generator k to; tau is extended to
    words by substitution, with only adjacent-inverse cancellation applied.
    tau's order is the degree r = [L:K] of a representation's field.
    """

    def __init__(
        self,
        gen_names: Sequence[str],
        relations: Sequence[Word],
        tau_images: Sequence[Word],
        declared_order: Optional[int] = None,
    ):
        self.gen_names = tuple(gen_names)
        self.relations = tuple(relations)
        self.tau_images = tuple(tau_images)
        self.declared_order = declared_order
        if len(self.tau_images) != len(self.gen_names):
            raise ValueError("tau must be given on every generator")
        ngens = len(self.gen_names)
        for w in self.relations + self.tau_images:
            for g, _ in w:
                if not 0 <= g < ngens:
                    raise UnknownGenerator(f"generator index {g} out of range")

    @classmethod
    def from_strings(
        cls,
        generators: Sequence[str],
        relations: Sequence[str],
        tau: dict[str, str],
        declared_order: Optional[int] = None,
    ) -> "GroupData":
        rel_words = [parse_word(r, generators) for r in relations]
        images = []
        for name in generators:
            if name not in tau:
                raise UnknownGenerator(f"tau image missing for generator {name!r}")
            images.append(parse_word(tau[name], generators))
        return cls(generators, rel_words, images, declared_order)

    def tau_apply(self, word: Word) -> Word:
        letters: list[tuple[int, int]] = []
        for g, e in word:
            image = self.tau_images[g] if e > 0 else invert_word(self.tau_images[g])
            letters.extend(image)
        return free_reduce(tuple(letters))


class Representation:
    """A matrix representation of a GroupData over a CyclicExtension.

    The constructor checks shapes and invertibility (a Singular names the
    generator); whether the relations actually evaluate to the identity is
    checked separately so that invalid data can still be probed.  The
    inverse of image k is computed on first use, by inverse_of(k) when given;
    the images are then trusted to be invertible.
    """

    def __init__(
        self,
        group: GroupData,
        ext: CyclicExtension,
        images: Sequence[Mat],
        inverse_of: Optional[Callable[[int], Mat]] = None,
    ):
        if len(images) != len(group.gen_names):
            raise ValueError("one image per generator required")
        self.group = group
        self.ext = ext
        self.images = tuple(images)
        dims = {(m.nrows, m.ncols) for m in images}
        if len(dims) != 1 or any(a != b for a, b in dims):
            raise ValueError("images must be square matrices of equal size")
        self.dim = images[0].nrows
        self._inverses: list[Optional[Mat]] = [None] * len(images)
        self._inverse_of = inverse_of
        self._twists: dict[int, "Representation"] = {}
        if inverse_of is None:
            for name, m in zip(group.gen_names, images):
                try:
                    require_invertible(m)
                except Singular:
                    raise Singular(f"the image of generator {name!r} is singular") from None

    def letter(self, gen: int, exp: int) -> Mat:
        if exp > 0:
            return self.images[gen]
        if self._inverses[gen] is None:
            self._inverses[gen] = inverse(self.images[gen]) if self._inverse_of is None else self._inverse_of(gen)
        return self._inverses[gen]


def evaluate_word(rep: Representation, word: Word) -> Mat:
    """rho(word).  A power u^k of a shorter word u, such as the relation
    (a b)^5, is u evaluated once and raised to k by squaring."""
    if not word:
        return Mat.identity(rep.ext, rep.dim)
    size = len(word)
    period = next(d for d in range(1, size + 1) if size % d == 0 and word == word[:d] * (size // d))
    acc = rep.letter(*word[0])
    for g, e in word[1:period]:
        acc = acc * rep.letter(g, e)
    k, power = size // period, None
    while True:
        if k & 1:
            power = acc if power is None else power * acc
        k >>= 1
        if not k:
            return power
        acc = acc * acc


def twist(rep: Representation, j: int) -> Representation:
    """rho o tau^j: generator k maps to rho(tau^j(g_k)).  tau acts on words
    as a free-group endomorphism, so for j >= 1 that is rho o tau^(j-1)
    evaluated on the short word tau(g_k), and an inverse is rho o tau^(j-1)
    of the inverted word, evaluated on first use with no elimination.  Each
    twist is built once per rep and j, from the one before it."""
    if j == 0:
        return rep
    if j not in rep._twists:
        prev = twist(rep, j - 1)
        words = [rep.group.tau_apply(((k, 1),)) for k in range(len(rep.images))]
        images = [evaluate_word(prev, w) for w in words]
        rep._twists[j] = Representation(
            rep.group, rep.ext, images, lambda k: evaluate_word(prev, invert_word(words[k]))
        )
    return rep._twists[j]


def require_tau_period(rep: Representation) -> None:
    """A ParseError at group.tau unless rho o tau^r = rho, r the field degree."""
    if twist(rep, rep.ext.degree).images != rep.images:
        raise ParseError(f"rho o tau^{rep.ext.degree} is not rho", "group.tau")


class CheckReport(NamedTuple):
    """Named checks and whether each holds."""

    entries: list[tuple[str, bool]]

    @property
    def ok(self) -> bool:
        return all(h for _, h in self.entries)


def check_relations(rep: Representation) -> CheckReport:
    ident = Mat.identity(rep.ext, rep.dim)
    return CheckReport(
        [(word_to_string(w, rep.group.gen_names), evaluate_word(rep, w) == ident) for w in rep.group.relations]
    )


def check_automorphism(rep: Representation) -> CheckReport:
    """Check that tau respects rho: rho o tau satisfies the relations and
    rho o tau^r = rho on the generators, for r the degree of the field."""
    r = rep.ext.degree
    entries = [("tau order at least 2", r >= 2)]
    for w, holds in check_relations(twist(rep, 1)).entries:
        entries.append((f"tau preserves relation {w}", holds))
    cycled = twist(rep, r)
    for name, image, m in zip(rep.group.gen_names, cycled.images, rep.images):
        entries.append((f"tau^{r} fixes {name}", image == m))
    return CheckReport(entries)


def burnside_dim(rep: Representation) -> int:
    """L-dimension of the span of all word images, grown by word length.

    Each pass extends only the products that enlarged the span, so a pass
    that adds nothing, or a span of dim^2, ends the loop.  The images
    alone suffice: by Cayley-Hamilton each inverse is a polynomial in its
    image.  The loop runs over F_p first (t -> a root of m mod p is a ring
    map, so independence mod p lifts to L); a dim_p below dim^2 is redone
    over L.  rho is absolutely irreducible iff this equals dim^2.
    """
    n = rep.dim
    if n == 1:  # the identity alone spans L^(1x1)
        return 1
    den = math.lcm(*(m.den for m in rep.images))
    if _burnside_dim_mod_p(rep, *_modular_root(rep.ext, den)) == n * n:
        return n * n
    span = IncrementalSpan(rep.ext, n * n)
    _grow_span(Mat.identity(rep.ext, n), rep.images, mul,
               lambda m: span.insert([e for row in m.num for e in row]), n * n)
    return span.dim


def _burnside_dim_mod_p(rep: Representation, p: int, root: int) -> int:
    """burnside_dim over F_p, with each entry num(t)/den sent to num(root)/den."""
    n = rep.dim
    gens = [_reduce_mod_p(m, p, root) for m in rep.images]
    rows: dict[int, list[int]] = {}

    def product(a: list[int], b: list[int]) -> list[int]:
        return [sum(map(mul, a[i:i + n], b[j::n])) % p for i in range(0, n * n, n) for j in range(n)]

    _grow_span([int(i == j) for i in range(n) for j in range(n)], gens, product,
               lambda v: _insert_mod_p(rows, v, p), n * n)
    return len(rows)


def _grow_span(ident, gens, product, insert, full: int) -> None:
    """Insert ident, then m * g for each generator g and each m that grew the span, up to full elements."""
    insert(ident)
    size, frontier = 1, [ident]
    while frontier:
        grown = (c for m in frontier for g in gens if insert(c := product(m, g)))
        frontier = list(itertools.islice(grown, full - size))
        size += len(frontier)
