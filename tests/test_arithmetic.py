"""Integer-numerator field elements, checked against tuple-of-Fraction arithmetic.

FractionField is the element arithmetic the package used before its
elements became integer numerators over one denominator: dense tuples of
Fractions, every coefficient of every sum and product normalized on its
own, sigma applied through tables of Fraction powers, and Mat entries summed
one product at a time.  Every operation of the package must give the same
Fractions, in normal form.
"""

import math
import random
from fractions import Fraction

import pytest

from galois_equiv.field import CyclicExtension, norm, rational_to_string
from galois_equiv.linalg import Mat


class FractionField:
    """Q[t]/(m) with sigma(t) = s(t), on dense tuples of Fractions."""

    def __init__(self, min_poly, sigma_image):
        self.m = tuple(Fraction(c) for c in min_poly)
        self.r = r = len(self.m) - 1
        s = tuple(Fraction(c) for c in sigma_image)
        s += (Fraction(0),) * (r - len(s))
        t = tuple(Fraction(int(k == 1)) for k in range(r))
        iterates = [t]
        for _ in range(1, r):
            iterates.append(self.compose(iterates[-1], s))
        self.tables = []
        for base in iterates:
            powers = [tuple(Fraction(int(k == 0)) for k in range(r))]
            for _ in range(1, r):
                powers.append(self.mul(powers[-1], base))
            self.tables.append(powers)

    def reduce(self, coeffs):
        r = self.r
        work = list(coeffs)
        while len(work) > r:
            top = work.pop()
            if top:
                off = len(work) - r
                for k in range(r):
                    work[off + k] -= top * self.m[k]
        work += [Fraction(0)] * (r - len(work))
        return tuple(work)

    def mul(self, a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
        return self.reduce(out)

    def compose(self, outer, inner):
        # outer(inner(t)) mod m, by Horner
        acc = (Fraction(0),) * self.r
        for c in reversed(outer):
            acc = self.mul(acc, inner)
            acc = tuple(x + (c if k == 0 else 0) for k, x in enumerate(acc))
        return acc

    @staticmethod
    def add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    @staticmethod
    def sub(a, b):
        return tuple(x - y for x, y in zip(a, b))

    def galois(self, a, i=1):
        table = self.tables[i % self.r]
        out = [Fraction(0)] * self.r
        for k, c in enumerate(a):
            if c:
                for j in range(self.r):
                    if table[k][j]:
                        out[j] += c * table[k][j]
        return tuple(out)

    def inverse(self, a):
        conj = self.galois(a, 1)
        for i in range(2, self.r):
            conj = self.mul(conj, self.galois(a, i))
        n = self.mul(a, conj)
        assert n[0] and not any(n[1:])
        return tuple(c / n[0] for c in conj)

    def div(self, a, b):
        return self.mul(a, self.inverse(b))

    def norm(self, a):
        acc = (Fraction(1),) + (Fraction(0),) * (self.r - 1)
        for i in range(self.r):
            acc = self.mul(acc, self.galois(a, i))
        assert not any(acc[1:])
        return acc[0]

    @staticmethod
    def repr(a):
        terms = []
        for k, c in enumerate(a):
            if not c:
                continue
            if k == 0:
                terms.append(rational_to_string(c))
            else:
                var = "t" if k == 1 else f"t^{k}"
                terms.append(var if c == 1 else f"{rational_to_string(c)}*{var}")
        return " + ".join(terms) if terms else "0"

    def dot(self, row, col):
        acc = (Fraction(0),) * self.r
        for a, b in zip(row, col):
            if any(a) and any(b):
                acc = self.add(acc, self.mul(a, b))
        return acc


FIELDS = [
    pytest.param(([-5, 0, 1], [0, -1]), id="q5"),
    pytest.param(([7, 0, 1], [0, -1]), id="qm7"),
    # maximal real subfield of Q(zeta_7): t = 2cos(2pi/7), sigma(t) = t^2 - 2
    pytest.param(([-1, -2, 1, 1], [-2, 0, 1]), id="cubic"),
    # t^3 - 12t + 8 with sigma(t) = t^2/2 - 4: the sigma table has a denominator
    pytest.param(([8, -12, 0, 1], [-4, 0, Fraction(1, 2)]), id="cubic-half"),
]

DENOMINATORS = (1, 1, 2, 3, 4, 6, 9, 35, 128)


def random_coeffs(r, rng, zero_rate=0.2):
    return tuple(
        Fraction(0) if rng.random() < zero_rate else Fraction(rng.randint(-12, 12), rng.choice(DENOMINATORS))
        for _ in range(r)
    )


def assert_normal(x):
    """den > 0 and gcd(den, *num) = 1, and coeffs is num / den."""
    assert isinstance(x.den, int) and x.den > 0
    assert all(isinstance(c, int) for c in x.num) and len(x.num) == x.ext.degree
    assert math.gcd(x.den, *x.num) == 1
    assert x.coeffs == tuple(Fraction(c, x.den) for c in x.num)


@pytest.mark.parametrize("field", FIELDS)
def test_arithmetic_matches_the_fraction_oracle(field):
    ext = CyclicExtension(*field)
    oracle = FractionField(*field)
    r = ext.degree
    rng = random.Random(23)
    for _ in range(60):
        a, b = random_coeffs(r, rng), random_coeffs(r, rng)
        x, y = ext.element(a), ext.element(b)
        assert x.coeffs == a and y.coeffs == b
        assert repr(x) == oracle.repr(a)
        cases = [(x + y, oracle.add(a, b)), (x - y, oracle.sub(a, b)), (x * y, oracle.mul(a, b))]
        cases += [(x.galois(i), oracle.galois(a, i)) for i in range(r + 1)]
        if any(b):
            cases += [(x / y, oracle.div(a, b)), (y.inverse(), oracle.inverse(b))]
            assert norm(y) == oracle.norm(b)
        for got, want in cases:
            assert_normal(got)
            assert got.coeffs == want
            assert repr(got) == oracle.repr(want)
            assert got == ext.element(want) and hash(got) == hash(ext.element(want))
        assert (x == y) == (a == b)


def test_equal_elements_built_differently_hash_equal():
    ext = CyclicExtension([8, -12, 0, 1], [-4, 0, Fraction(1, 2)])
    half = Fraction(1, 2)
    t = ext.gen()
    ways = [
        ext.element([half, 0, Fraction(3, 4)]),
        ext.element(["2/4", "0", "6/8"]),
        ext.element([2, 0, 3]) / 4,
        ext.element([2, 0, 3]) * Fraction(1, 4),
        ext.element([2, 0, 3]) * ext.element(Fraction(1, 4)),
        half + Fraction(3, 4) * t * t,
        (t * t * 3 + 2 + t - t) / ext.element(4),
        # t^3 = 12t - 8, reduced on input
        ext.element([Fraction(17, 2), -12, Fraction(3, 4), 1]),
        ext.element([half, 0, Fraction(3, 4)]).galois(1).galois(2),
        ext.element([half, 0, Fraction(3, 4)]).inverse().inverse(),
    ]
    first = ways[0]
    assert (first.num, first.den) == ((2, 0, 3), 4)
    for x in ways:
        assert_normal(x)
        assert x == first and hash(x) == hash(first)
    assert len(set(ways)) == 1
    assert ext.zero() == ext.element([0, 0, 0]) == t - t
    assert (ext.zero().num, ext.zero().den) == ((0, 0, 0), 1)


@pytest.mark.parametrize("field", FIELDS)
def test_mat_product_matches_the_oracle_dot(field):
    ext = CyclicExtension(*field)
    oracle = FractionField(*field)
    rng = random.Random(29)
    for n, k, m in [(1, 1, 1), (2, 3, 2), (3, 3, 3), (4, 2, 5)]:
        a = [[random_coeffs(ext.degree, rng, 0.3) for _ in range(k)] for _ in range(n)]
        b = [[random_coeffs(ext.degree, rng, 0.3) for _ in range(m)] for _ in range(k)]
        prod = Mat(ext, [[ext.element(e) for e in row] for row in a]) * Mat(
            ext, [[ext.element(e) for e in row] for row in b]
        )
        for i in range(n):
            for j in range(m):
                assert_normal(prod[i, j])
                assert prod[i, j].coeffs == oracle.dot(a[i], [b[l][j] for l in range(k)])
