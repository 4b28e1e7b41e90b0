"""Cyclic extensions L/Q with exact element arithmetic and rational norm tests.

L is presented as Q[t]/(m(t)) for a monic integer polynomial m of degree r,
with a chosen generator sigma of Gal(L/Q) given by its action t -> s(t).
An element is a vector of integer numerators over one positive denominator
(Cohen, A Course in Computational Algebraic Number Theory, 4.2), so every
operation here is exact and takes one gcd per result.  The quadratic
decision machinery (Hilbert symbols, norm tests, witness search) lives at the
bottom of the module.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from fractions import Fraction
from operator import mul
from typing import Iterator, Sequence

from .errors import (
    FactorizationIncomplete,
    InternalInvariantViolation,
    NoWitnessFound,
    Unsupported,
)

INF = math.inf

# Deterministic Miller-Rabin witness set, valid for all n below this limit:
# no composite below psi_13 is a strong pseudoprime to all 13 bases (Sorenson
# and Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _rational_pair(text: str) -> tuple[int, int]:
    """Parse "p/q" or "n" into (p, q) or (n, 1), unreduced; "1.5", "1e-3", "1_000" and "1/0" raise."""
    match = _RATIONAL.fullmatch(text.strip())
    if not match:
        raise ValueError(f"expected an integer or 'p/q', got {text.strip()!r}")
    num, den = int(match[1]), int(match[2] or 1)
    if not den:
        raise ZeroDivisionError(f"zero denominator in {text.strip()!r}")
    return num, den


def rational_from_string(text: str) -> Fraction:
    """Parse "p/q" or "n" into a Fraction; other text raises as in _rational_pair."""
    return Fraction(*_rational_pair(text))


def _exact(x, name: str) -> int | Fraction:
    """x as an int or a Fraction, parsing "p/q"; a float (Fraction(0.1) is a binary expansion) or bool raises."""
    if isinstance(x, str):
        return rational_from_string(x)
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"{name} must be an int, a Fraction or a 'p/q' string, not {type(x).__name__}")
    return x


def rational_to_string(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n below _MR_LIMIT."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n >= _MR_LIMIT:
        raise FactorizationIncomplete(
            f"{n} exceeds the deterministic primality range {_MR_LIMIT}"
        )
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor(n: int, bound: int = 10**6) -> tuple[int, list[tuple[int, int]]]:
    """Factor n by trial division up to bound, certifying any large cofactor prime.

    Returns (sign, [(p, e), ...]) with primes ascending.  Raises
    FactorizationIncomplete when a cofactor survives trial division, exceeds
    bound**2, and is not proven prime.

    The candidates are 2, 3 and 6k +- 1 (d and d + 2 for every d = 6k + 5 <=
    bound), tried a chunk at a time until p^2 exceeds the cofactor m.  Chunk
    0 is tried plainly; a later chunk whose product is coprime to m holds no
    divisor of it and is skipped after one gcd (batched trial division;
    Bernstein, "How to find smooth parts of integers", 2004).  Above bound^2,
    a cofactor that Miller-Rabin proves prime ends the scan.  The result is
    that of plain trial division.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = -1 if n < 0 else 1
    m = abs(n)
    square = bound * bound
    # the last candidate, d + 2 for the last d; 2 and 3 are tried whatever the bound
    last = bound + 2 - (bound - 5) % 6 if bound > 4 else 3
    factors: list[tuple[int, int]] = []
    candidates, c, tested = _CHUNK_0, 0, None
    while True:
        for p in candidates:
            if p * p > m:
                break
            if m % p == 0:
                # a candidate that divides nothing needs no bound check
                if p > last:
                    break
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                factors.append((p, e))
        c += 1
        start = 5 + _SPAN * c
        if start > bound or start * start > m:
            break
        if square < m < _MR_LIMIT and m != tested:
            tested = m
            if is_prime(m):
                factors.append((m, 1))
                return sign, factors
        candidates = [start + o for o in _PRIME_TO_210] if math.gcd(m, _chunk_product(c) % m) != 1 else ()
    if m > 1:
        # with no divisor <= bound, an m <= bound^2 is prime
        if m > square and not is_prime(m):
            raise FactorizationIncomplete(f"composite cofactor {m} has no prime factor <= {bound}")
        factors.append((m, 1))
    return sign, factors


# Chunk c of the candidates covers [5 + _SPAN c, 5 + _SPAN (c + 1)); its
# candidates are the numbers there prime to 210, plus 2, 3, 5 and 7 in chunk
# 0.  Leaving out the other multiples of 5 and 7 changes no result: chunk 0
# divides 5 and 7 out first.  Chunk c starts at 5 mod 210, so the offsets of
# the numbers prime to 210 are the same in every chunk.
_SPAN = 420
_PRIME_TO_210 = tuple(o for o in range(_SPAN) if math.gcd(5 + o, 210) == 1)
_CHUNK_0 = (2, 3, 5, 7) + tuple(5 + o for o in _PRIME_TO_210)
# The product of chunk c's candidates prime to 210 (chunk 0's is never read),
# built when a scan first reaches the chunk and kept for the life of the
# process (about 0.5 MB once the chunks up to 10^6 are built).
_chunk_products: list[int] = []


def _chunk_product(c: int) -> int:
    while len(_chunk_products) <= c:
        start = 5 + _SPAN * len(_chunk_products)
        _chunk_products.append(math.prod(map(start.__add__, _PRIME_TO_210)))
    return _chunk_products[c]


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an integer a and an odd prime p."""
    r = a % p
    if r == 0:
        return 0
    s = pow(r, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def _square_class_int(a, name: str) -> int:
    a = _exact(a, name)
    if a == 0:
        raise ValueError("Hilbert symbols need nonzero arguments")
    return a.numerator * a.denominator


def hilbert_symbol(a, b, place) -> int:
    """Hilbert symbol (a, b) at a finite prime or at the real place (math.inf),
    for nonzero a and b given as ints, Fractions or "p/q" strings."""
    a = _square_class_int(a, "a")
    b = _square_class_int(b, "b")
    # 5.0 names the prime 5, while nan % 1 and -inf % 1 are nan
    if place != INF and not (isinstance(place, (int, float, Fraction)) and place % 1 == 0 and is_prime(int(place))):
        raise ValueError(f"place must be a prime or math.inf, got {place}")
    place = place if place == INF else int(place)
    return _symbol(a, place, _side(b, place))


def _side(b: int, p):
    """b's part of the symbol (a, b)_p, for a nonzero integer b and p = INF or
    a prime, unchecked: whether b < 0 at INF; with b = p^beta v, at p = 2 the
    parities of beta, eps(v) = (v-1)/2 and omega(v) = (v^2-1)/8, and at an odd
    p the parity of beta and the Legendre symbol ((-1)^beta v / p)."""
    if p == INF:
        return b < 0
    beta, v = _split_prime(b, p)
    if p == 2:
        return beta & 1, v % 4 == 3, v % 8 in (3, 5)
    return beta & 1, legendre(-v if beta & 1 else v, p)


def _symbol(a: int, p, side) -> int:
    """(a, b)_p for a nonzero integer a, p = INF or a prime and b's side at p
    (see _side), unchecked; a rational enters as its square-class integer.

    Odd p: with a = p^alpha u, b = p^beta v, the symbol is
    (-1)^(alpha beta (p-1)/2) (u/p)^beta (v/p)^alpha = (u/p)^beta ((-1)^beta v / p)^alpha.
    p = 2: (-1)^(eps(u)eps(v) + alpha omega(v) + beta omega(u)).
    """
    if p == INF:
        return -1 if side and a < 0 else 1
    alpha, u = _split_prime(a, p)
    if p == 2:
        beta, eps_v, omega_v = side
        exponent = ((u % 4 == 3) & eps_v) ^ (alpha & omega_v) ^ (beta & (u % 8 in (3, 5)))
        return -1 if exponent else 1
    beta, c = side
    out = legendre(u, p) if beta else 1
    return -out if alpha & 1 and c == -1 else out


def _split_prime(n: int, p: int) -> tuple[int, int]:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


class CyclicExtension:
    """Q[t]/(m(t)) together with a generator sigma of its Galois group.

    min_poly: coefficients [c0, ..., c_{r-1}, 1] of a monic integer m(t), low
    degree first.  sigma_image: coefficients of s(t) with sigma(t) = s(t),
    which may be rational.  The constructor checks that sigma is a
    well-defined automorphism of exact order r, and that m is irreducible: by
    its discriminant for r = 2, and for r > 2 by finding a prime below 1000
    at which m stays irreducible (a cyclic L has a positive density of such
    primes).  A failed check raises ValueError.  For r = 2 one factorization
    of the discriminant b^2 - 4c, made at the first norm query, gives
    disc_core, the squarefree d with L = Q(sqrt d), disc_primes, the primes
    dividing d, the place table that every norm test reads, and next to it
    canonical_lambda's table of class representatives, filled as queries need.

    Since m is monic with integer coefficients, reducing an integer
    polynomial mod m keeps it integral.  sigma^i is held as a table of
    integer columns over one denominator: entry k of column j is coefficient
    j of the numerator of sigma^i(t^k).
    """

    def __init__(self, min_poly: Sequence, sigma_image: Sequence):
        mp = tuple(Fraction(c) for c in min_poly)
        if len(mp) < 3:
            raise ValueError("degree must be at least 2")
        if mp[-1] != 1:
            raise ValueError("min_poly must be monic")
        if any(c.denominator != 1 for c in mp):
            raise ValueError("min_poly must have integer coefficients")
        self.min_poly = mp
        self.degree = r = len(mp) - 1
        # t^r = -sum c_k t^k: the c_k, and the nonzero (k, c_k), below the leading term
        self._m_coeffs = tuple(c.numerator for c in mp[:r])
        self._m_terms = tuple((k, c) for k, c in enumerate(self._m_coeffs) if c)
        s = tuple(Fraction(c) for c in sigma_image)
        if len(s) > r:
            raise ValueError("sigma_image degree must be below deg m")
        self.sigma_image = s + (Fraction(0),) * (r - len(s))
        if r == 2:
            disc = mp[1].numerator ** 2 - 4 * mp[0].numerator
            if disc >= 0 and math.isqrt(disc) ** 2 == disc:
                raise ValueError("t^2 + bt + c must be irreducible over Q")
        elif not _irreducible_mod_some_prime([c.numerator for c in mp]):
            raise ValueError(
                f"min_poly must be irreducible over Q: it is reducible mod every prime below {_RABIN_BOUND}"
            )
        self._zero_num = (0,) * r
        self._build_sigma_tables()

    @functools.cached_property
    def _disc(self) -> tuple[int | None, frozenset[int]]:
        """(disc_core, disc_primes), from factoring b^2 - 4c at the first read."""
        if self.degree != 2:
            return None, frozenset()
        sign, fs = factor(self._m_coeffs[1] ** 2 - 4 * self._m_coeffs[0])
        primes = frozenset(p for p, e in fs if e % 2)
        return sign * math.prod(primes), primes

    disc_core = functools.cached_property(lambda self: self._disc[0])
    disc_primes = functools.cached_property(lambda self: self._disc[1])

    @functools.cached_property
    def _places(self) -> tuple:
        """The place table: inf, 2 and the odd primes of d ascending, each with
        its bit in a class mask and d's side of the symbol there (see _side)."""
        places = (INF, 2, *sorted(self.disc_primes - {2}))
        return tuple((1 << i, v, _side(self.disc_core, v)) for i, v in enumerate(places))

    @functools.cached_property
    def _representatives(self) -> tuple[dict[int, int], Iterator[int], int]:
        """canonical_lambda's table: a class mask -> the first signed j = 2, -2,
        3, ... squarefree with no inert prime; the next j to scan; mask(-1)."""
        return {}, itertools.count(2), _class_mask(-1, self)

    def _reduce(self, work: list[int]) -> list[int]:
        """An integer polynomial of degree at least r - 1, low degree first,
        reduced mod m in place."""
        r = self.degree
        for top in range(len(work) - 1, r - 1, -1):
            c = work[top]
            if c:
                off = top - r
                for k, m in self._m_terms:
                    work[off + k] -= c * m
        return work[:r]

    def _make(self, num: list[int], den: int) -> "FieldElement":
        """num / den for den > 0, divided through by gcd(den, *num)."""
        if den != 1:
            g = math.gcd(den, *num)
            if g != 1:
                num = [c // g for c in num]
                den //= g
        return FieldElement(self, tuple(num), den)

    def _build_sigma_tables(self):
        """Check sigma and set _sigma_tables[i] = (columns, den), the
        numerators of sigma^i(t^k) over one denominator, for i < r."""
        r = self.degree
        s = self.element(self.sigma_image)
        acc = self.zero()
        for c in reversed(self.min_poly):
            acc = acc * s + c
        if acc:
            raise ValueError("sigma_image is not a root of min_poly mod min_poly")
        powers = [self.one()]
        for _ in range(1, r):
            powers.append(powers[-1] * s)
        ident = tuple(tuple(int(j == k) for j in range(r)) for k in range(r))  # its own columns
        # galois(1) reads tables[1], from which the later tables are built
        tables = self._sigma_tables = [(ident, 1), _common_denominator(powers)]
        images = [s]  # sigma^i(t) for i = 1 .. r
        conj = powers
        for i in range(2, r + 1):
            conj = [p.galois(1) for p in conj]
            images.append(conj[1])
            if i < r:
                tables.append(_common_denominator(conj))
        t = self.gen()
        if images[-1] != t:
            raise ValueError("sigma does not have order dividing the degree")
        if t in images[:-1]:
            raise ValueError("sigma has order smaller than the degree")

    def element(self, coeffs) -> "FieldElement":
        if isinstance(coeffs, FieldElement):
            if coeffs.ext != self:
                raise ValueError("element belongs to a different extension")
            return coeffs
        if type(coeffs) is int:
            return FieldElement(self, (coeffs,) + self._zero_num[1:], 1)
        if isinstance(coeffs, (int, Fraction)):  # _exact refuses a bool
            coeffs = [coeffs]
        vals = [_exact(c, "a coefficient") for c in coeffs]
        den = math.lcm(*(c.denominator for c in vals))
        num = [c.numerator * (den // c.denominator) for c in vals]
        if len(num) > self.degree:
            return self._make(self._reduce(num), den)
        num += [0] * (self.degree - len(num))
        return FieldElement(self, tuple(num), den)

    def zero(self) -> "FieldElement":
        return FieldElement(self, self._zero_num, 1)

    def one(self) -> "FieldElement":
        return self.element(1)

    def gen(self) -> "FieldElement":
        return self.element([0, 1])

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, CyclicExtension)
            and self.min_poly == other.min_poly
            and self.sigma_image == other.sigma_image
        )

    def __hash__(self):
        return hash((self.min_poly, self.sigma_image))

    def __repr__(self):
        return f"CyclicExtension(deg={self.degree}, m={[str(c) for c in self.min_poly]})"


def _common_denominator(elements) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The numerators of elements over their least common denominator, as
    columns: column j holds coefficient j of each element."""
    den = math.lcm(*(e.den for e in elements))
    return tuple(zip(*(tuple(c * (den // e.den) for c in e.num) for e in elements))), den


# m of degree r > 2 is certified irreducible by a prime below this bound
_RABIN_BOUND = 1000


def _irreducible_mod_some_prime(min_poly: Sequence[int]) -> bool:
    """Whether the monic integer min_poly is irreducible mod some prime below
    _RABIN_BOUND.  Such a reduction keeps the degree, and a factorization over
    Q would reduce to one mod p (Gauss), so a True answer proves min_poly
    irreducible over Q."""
    return any(
        is_prime(p) and _rabin_irreducible([c % p for c in min_poly], p) for p in range(2, _RABIN_BOUND)
    )


def _rabin_irreducible(f: list[int], p: int) -> bool:
    """Rabin's test: a monic f of degree n is irreducible over F_p iff
    t^(p^n) = t mod f and gcd(t^(p^(n/q)) - t, f) = 1 for each prime q | n."""
    n = len(f) - 1
    t = [0, 1] + [0] * (n - 2)
    frobenius = [t]  # frobenius[k] = t^(p^k) mod f
    for _ in range(n):
        frobenius.append(_powmod_fp(frobenius[-1], p, f, p))
    if frobenius[n] != t:
        return False
    for q, _ in factor(n)[1]:
        g = list(frobenius[n // q])
        g[1] = (g[1] - 1) % p
        if len(_gcd_fp(g, f, p)) != 1:
            return False
    return True


def _mulmod_fp(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    """a b mod (f, p); a and b hold the n = deg f coefficients of a residue."""
    n = len(f) - 1
    out = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    for k in range(2 * n - 2, n - 1, -1):
        c = out[k] % p
        if c:
            for i in range(n):
                out[k - n + i] -= c * f[i]
    return [x % p for x in out[:n]]


def _powmod_fp(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    out = [1] + [0] * (len(f) - 2)
    while e:
        if e & 1:
            out = _mulmod_fp(out, a, f, p)
        a = _mulmod_fp(a, a, f, p)
        e >>= 1
    return out


def _gcd_fp(a: list[int], b: list[int], p: int) -> list[int]:
    """A gcd of two polynomials over F_p, low degree first, trimmed of
    leading zeros: [] is 0 and a nonzero constant has length 1."""
    a = _trim_fp(a, p)
    b = _trim_fp(b, p)
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            off = len(a) - len(b)
            for i, y in enumerate(b):
                a[off + i] = (a[off + i] - c * y) % p
            a = _trim_fp(a, p)
        a, b = b, a
    return a


def _trim_fp(a: list[int], p: int) -> list[int]:
    a = [x % p for x in a]
    while a and not a[-1]:
        a.pop()
    return a


def _root_fp(f: list[int], p: int) -> int | None:
    """A root in F_p of the monic f (p odd), or None: Cantor-Zassenhaus splits
    gcd(t^p - t, f) by gcd((t + a)^((p-1)/2) - 1, .) for a = 0, 1, ... (Cohen 1.6)."""
    g = _powmod_fp([0, 1] + [0] * (len(f) - 3), p, f, p)
    g[1] -= 1
    g = _gcd_fp(g, f, p)
    for a in itertools.count():
        if len(g) <= 2:
            return -g[0] * pow(g[1], -1, p) % p if len(g) == 2 else None
        g = [c * pow(g[-1], -1, p) % p for c in g]
        h = _powmod_fp([a, 1] + [0] * (len(g) - 3), (p - 1) // 2, g, p)
        h[0] -= 1
        h = _gcd_fp(h, g, p)
        if 1 < len(h) < len(g):
            g = h


def _modular_root(ext: CyclicExtension, den: int) -> tuple[int, int]:
    """The largest split prime p (see _split_primes) not dividing den, and a
    root of m mod p.  For cyclic L about one prime in r splits."""
    return next((p, orbit[0]) for p, orbit in _split_primes(ext) if den % p)


# Per field, keyed by (min_poly, sigma_image): the split primes found so far,
# each with its root orbit.  Nothing read from a representation is kept.
_split_prime_cache: dict[tuple, list[tuple[int, tuple[int, ...]]]] = {}


def _split_primes(ext: CyclicExtension):
    """The primes p below _MR_LIMIT (about 2^81.46), descending, at which m
    has r distinct roots theta_0, theta_i = s(theta_(i-1)) and no coefficient
    of s has p in its denominator, each with the orbit (theta_0, ...,
    theta_(r-1)).  The maps t -> theta_i are then the r ring maps from the
    p-integral elements of L to F_p.  A residue mod p is three 30-bit digits,
    as one mod a 61-bit prime is, so each prime adds a third more modulus.
    Primes are searched for on first use and kept for the process."""
    found = _split_prime_cache.setdefault((ext.min_poly, ext.sigma_image), [])
    for i in itertools.count():
        if i == len(found):
            found.append(_next_split_prime(ext, found[-1][0] - 2 if found else _MR_LIMIT - 2))
        yield found[i]


# The product of the odd primes below 2000 (to 43, product 6541380665835015, then the odd
# numbers prime to those): a split-prime candidate sharing a factor with it is composite.
_SMALL_ODD_PRIMES = math.prod((p for p in range(45, 2000, 2) if math.gcd(p, 6541380665835015) == 1),
                              start=6541380665835015)


def _next_split_prime(ext: CyclicExtension, p: int) -> tuple[int, tuple[int, ...]]:
    """The first split prime at or below the odd p > 2000, and its root orbit.
    One gcd passes over a p with a small factor, and for r = 2 one pow (Euler's
    criterion) a p where b^2 - 4c is no square, so m has no root mod p."""
    r = ext.degree
    s_den = math.lcm(*(c.denominator for c in ext.sigma_image))
    s_num = [c.numerator * (s_den // c.denominator) for c in ext.sigma_image]
    disc = ext._m_coeffs[1] ** 2 - 4 * ext._m_coeffs[0]
    while True:
        candidate = (math.gcd(p, _SMALL_ODD_PRIMES) == 1 and s_den % p
                     and (r > 2 or pow(disc, (p - 1) // 2, p) != p - 1) and is_prime(p))
        root = _root_fp([c.numerator % p for c in ext.min_poly], p) if candidate else None
        if root is not None:
            orbit = [root]
            inv = pow(s_den, -1, p)
            for _ in range(r - 1):
                x = orbit[-1]
                orbit.append(sum(c * pow(x, k, p) for k, c in enumerate(s_num)) * inv % p)
            if len(set(orbit)) == r:
                return p, tuple(orbit)
        p -= 2


class FieldElement:
    """An element of a CyclicExtension: num / den in the basis 1, t, ...,
    t^(r-1), with integer numerators, den > 0 and gcd(den, *num) = 1, so
    equal elements have equal (num, den).  Arithmetic multiplies in Z[t],
    reduces by the monic integer m and divides out the gcd once per result.
    coeffs is the same element as a tuple of Fractions."""

    __slots__ = ("ext", "num", "den")

    def __init__(self, ext: CyclicExtension, num: tuple[int, ...], den: int):
        self.ext = ext
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    def _coerce(self, other) -> "FieldElement | None":
        if isinstance(other, FieldElement):
            return other if other.ext == self.ext else None
        if isinstance(other, (int, Fraction)):
            return self.ext.element(other)
        return None

    def _plus(self, o: "FieldElement", sign: int) -> "FieldElement":
        da, db = self.den, o.den
        if da == db:
            return self.ext._make([a + sign * b for a, b in zip(self.num, o.num)], da)
        g = math.gcd(da, db)
        fa, fb = db // g, sign * (da // g)
        return self.ext._make([a * fa + b * fb for a, b in zip(self.num, o.num)], da * fa)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._plus(self, -1)

    def __neg__(self):
        return FieldElement(self.ext, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.ext._make(_reduce_sum(self.ext, ((self.num, o.num),)), self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.ext.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "FieldElement":
        """x^-1 = sigma(x) sigma^2(x) ... sigma^(r-1)(x) / N(x)."""
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        conj = _conjugate_product(self)
        n = self * conj
        # N(x) is a nonzero rational since min_poly is irreducible
        if not n or not n.is_rational():
            raise InternalInvariantViolation(
                "element has no nonzero rational norm; extension data invalid"
            )
        # conj / (n0 / nd) = (nd conj.num) / (n0 conj.den), with the sign moved up
        n0 = n.num[0]
        scale = n.den if n0 > 0 else -n.den
        return self.ext._make([c * scale for c in conj.num], abs(n0) * conj.den)

    def galois(self, i: int = 1) -> "FieldElement":
        """Apply sigma^i: the numerator times each column of sigma^i's table."""
        ext = self.ext
        cols, tden = ext._sigma_tables[i % ext.degree]
        return ext._make([sum(map(mul, self.num, col)) for col in cols], self.den * tden)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        o = None if isinstance(other, bool) else self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append(rational_to_string(c))
            else:
                var = "t" if k == 1 else f"t^{k}"
                terms.append(var if c == 1 else f"{rational_to_string(c)}*{var}")
        return " + ".join(terms) if terms else "0"


def _reduce_sum(ext: CyclicExtension, pairs) -> tuple[int, ...]:
    """sum x y over pairs of numerator tuples, taken in Z[t] and reduced mod m."""
    acc = [0] * (2 * ext.degree - 1)
    for x, y in pairs:
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    acc[i + j] += a * b
    return tuple(ext._reduce(acc))


def _conjugate_product(x: FieldElement) -> FieldElement:
    """sigma(x) sigma^2(x) ... sigma^(r-1)(x), so that x times it is N(x)."""
    return math.prod((x.galois(i) for i in range(2, x.ext.degree)), start=x.galois(1))


def norm(x: FieldElement) -> Fraction:
    """Product of all sigma-conjugates; must land in Q."""
    acc = x * _conjugate_product(x)
    if not acc.is_rational():
        raise InternalInvariantViolation("norm did not land in Q; extension data invalid")
    return acc.as_rational()


def _square_class(lam, ext: CyclicExtension) -> int:
    """num * den of the nonzero rational lam, with lam's symbols against d."""
    if ext.degree != 2:
        raise Unsupported("norm membership is only decided for quadratic extensions")
    lam = _exact(lam, "lambda")
    if not lam:
        raise ValueError("0 is not in Q*")
    return lam.numerator * lam.denominator


def _class_mask(q: int, ext: CyclicExtension) -> int:
    """The bits of the places of ext's place table (inf, 2 and the odd primes
    of d) where (q, d) = -1: no factoring of q."""
    mask = 0
    for bit, v, side in ext._places:
        if _symbol(q, v, side) == -1:
            mask |= bit
    return mask


def _inert_primes(fs, d: int) -> tuple[int, ...]:
    """The other places where (q, d) = -1, read off q's factorization fs: at an
    odd p not dividing d, (q, d)_p = (d/p)^v_p(q), so the inert p of odd v_p(q)."""
    return tuple(p for p, e in fs if e % 2 and p != 2 and legendre(d, p) == -1)


def is_norm(lam, ext: CyclicExtension) -> bool:
    """Decide lam in N(L*) for quadratic L: no place has Hilbert symbol (lam, d) = -1.
    The class mask of q = num * den (see _class_mask) is read first: a set bit
    decides it with no factor call, and otherwise q is factored once."""
    q = _square_class(lam, ext)
    return not _class_mask(q, ext) and not _inert_primes(factor(q)[1], ext.disc_core)


_WITNESS_BUDGET = 10**4


def norm_witness(lam, ext: CyclicExtension) -> FieldElement:
    """Find mu in L with norm(mu) = lam, assuming is_norm(lam, ext).

    Searches mu = (p + q t)/w over integer p, q with |q| <= _WITNESS_BUDGET
    and small denominators w.  For real quadratic fields a failed direct
    search retries the negated target and corrects by a norm -1 unit found
    from the continued fraction expansion of sqrt(d).  Raises NoWitnessFound
    when the budget is exhausted; that signals a search failure, not
    non-membership.
    """
    lam = Fraction(_exact(lam, "lambda"))
    if not is_norm(lam, ext):
        raise ValueError(f"{lam} is not a norm from this extension")
    mu = _direct_witness_search(lam, ext)
    if mu is not None:
        return mu
    if ext.disc_core > 0:
        unit = _negative_norm_unit(ext)
        if unit is not None:
            mu = _direct_witness_search(-lam, ext)
            if mu is not None:
                out = unit * mu
                if norm(out) != lam:
                    raise InternalInvariantViolation("unit-corrected witness does not have norm lambda")
                return out
    raise NoWitnessFound(f"no witness for {lam} within numerator budget {_WITNESS_BUDGET}")


def _direct_witness_search(lam: Fraction, ext: CyclicExtension):
    # norm form of x + y t for m = t^2 + bt + c is x^2 - bxy + cy^2
    b, c = ext.min_poly[1], ext.min_poly[0]
    disc = b * b - 4 * c
    _, den_fs = factor(lam.denominator)
    w0 = 1
    for p, e in den_fs:
        w0 *= p ** ((e + 1) // 2)
    for j in range(1, 17):
        w = w0 * j
        tgt = lam * w * w
        if tgt.denominator != 1:
            raise InternalInvariantViolation("denominator of lambda w^2 was not cleared")
        tgt = tgt.numerator
        qcap = _WITNESS_BUDGET
        if disc < 0:
            # ellipse bound: -disc q^2 <= 4 target
            bound2 = Fraction(-4 * tgt) / disc
            if bound2 < 0:
                continue
            qcap = min(qcap, math.isqrt(int(bound2)) + 1)
        for q in range(0, qcap + 1):
            dq = disc * q * q + 4 * tgt
            if dq < 0:
                if disc < 0:
                    break
                continue
            s2 = dq.numerator  # an integer: min_poly is integral
            s = math.isqrt(s2)
            if s * s != s2:
                continue
            # s = bq mod 2, as disc = b^2 mod 4, and (bq + s)/2 + qt has norm (s^2 - disc q^2)/4 = tgt
            mu = ext.element([Fraction(b * q + s, 2) / w, Fraction(q, w)])
            if norm(mu) != lam:
                raise InternalInvariantViolation("searched witness does not have norm lambda")
            return mu
    return None


def _negative_norm_unit(ext: CyclicExtension):
    """A unit of norm -1 in Z[sqrt(d)], or None when there is none.  The first
    period a1 ... a_L of the continued fraction of sqrt(d) ends at a_L = 2 a0,
    and the convergent h/k before it has h^2 - d k^2 = (-1)^L: Pell's -1
    equation is solvable iff L is odd.  L is O(sqrt(d) log d) steps, so a
    prime p = 3 mod 4 dividing d answers first: x^2 = -1 has no root mod p."""
    d = ext.disc_core
    if d is None or d <= 0:
        raise ValueError("a unit of norm -1 is only sought in a real quadratic field")
    if any(p % 4 == 3 for p in ext.disc_primes):
        return None
    a0 = math.isqrt(d)
    m, q, a = 0, 1, a0
    h0, h = 1, a0
    k0, k = 0, 1
    while True:
        m = a * q - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        if a == 2 * a0:
            break
        h0, h = h, a * h + h0
        k0, k = k, a * k + k0
    if h * h - d * k * k != -1:
        return None
    # h + k sqrt(d) in the t-basis: sqrt(d) = (2t + b)/f, for b^2 - 4c = f^2 d
    c, b = ext.min_poly[:2]
    f = math.isqrt(int((b * b - 4 * c) / d))
    return ext.element([h + k * b / f, Fraction(2 * k, f)])


def canonical_lambda(lam, ext: CyclicExtension) -> Fraction:
    """A stable squarefree integer representative of lam mod N(L*).

    Trivial classes report 1.  A nontrivial class reports the
    smallest-absolute-value squarefree integer k with |k| >= 2 whose Hilbert
    symbols against d match those of lam at every place (ties broken toward
    positive sign).  The class of q = num * den is its mask (see _class_mask)
    and its inert primes of odd exponent, so unlike is_norm it factors q.

    As (k, d)_p = (d/p)^v_p(k) at an odd p not dividing d, the class holds the
    k = step * j, step the product of those primes and j squarefree with no
    inert prime, with mask(step) ^ mask(j) = mask(q), the symbol being
    multiplicative (Serre, A Course in Arithmetic, III.1).  Past j = +-1 the
    first such j is read from the field's table, which the scan extends only
    until the target mask is in it.  The scan ends: the kernel of q over step
    is such a j, and so is d (-2 if d = -1) when that kernel is -1.
    """
    q = _square_class(lam, ext)
    mask = _class_mask(q, ext)
    inert = _inert_primes(factor(q)[1], ext.disc_core)
    if not mask and not inert:
        return Fraction(1)
    step = math.prod(inert)
    target = mask ^ _class_mask(step, ext)
    table, cursor, minus = ext._representatives
    if step > 1 and target in (0, minus):
        return Fraction(step if target == 0 else -step)
    while target not in table:
        j = next(cursor)
        _, fs = factor(j)
        if all(e == 1 for _, e in fs) and not _inert_primes(fs, ext.disc_core):
            m = _class_mask(j, ext)
            table.setdefault(m, j)
            table.setdefault(m ^ minus, -j)
    return Fraction(step * table[target])
