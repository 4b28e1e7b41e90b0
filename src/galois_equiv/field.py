"""Cyclic extensions L/Q with exact element arithmetic and rational norm tests.

L is presented as Q[t]/(m(t)) for a monic integer polynomial m of degree r,
with a chosen generator sigma of Gal(L/Q) given by its action t -> s(t).
Elements are dense coefficient vectors of Fractions, so every operation here
is exact.  The quadratic decision machinery (Hilbert symbols, norm tests,
witness search) lives at the bottom of the module.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .errors import (
    FactorizationIncomplete,
    InternalInvariantViolation,
    NoWitnessFound,
    Unsupported,
)

Rational = Fraction

INF = math.inf

# Deterministic Miller-Rabin witness set, valid for all n below this limit.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3317044064679887385961981


def rational_from_string(text: str) -> Fraction:
    """Parse "p/q" or "n" into a Fraction. Decimal points are rejected."""
    text = text.strip()
    if "." in text:
        raise ValueError(f"decimal notation not accepted: {text!r}")
    return Fraction(text)


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
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = -1 if n < 0 else 1
    m = abs(n)
    factors: list[tuple[int, int]] = []
    for p in _small_divisor_stream(bound):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    if m > 1:
        if m <= bound * bound:
            # no divisor <= bound, and m <= bound^2, so m is prime
            factors.append((m, 1))
        elif is_prime(m):
            factors.append((m, 1))
        else:
            raise FactorizationIncomplete(
                f"composite cofactor {m} has no prime factor <= {bound}"
            )
    return sign, factors


def _small_divisor_stream(bound: int):
    yield 2
    yield 3
    d = 5
    while d <= bound:
        yield d
        yield d + 2
        d += 6


def squarefree_part(n: int) -> int:
    """The squarefree integer in the same square class as n."""
    sign, factors = factor(n)
    out = sign
    for p, e in factors:
        if e % 2:
            out *= p
    return out


def legendre(a, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p; a must be a unit mod p unless 0."""
    a = Fraction(a)
    num, den = a.numerator, a.denominator
    if den % p == 0:
        raise ValueError(f"{a} is not p-integral at {p}")
    r = num * pow(den, -1, p) % p
    if r == 0:
        return 0
    s = pow(r, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def _square_class_int(a) -> int:
    a = Fraction(a)
    if a == 0:
        raise ValueError("Hilbert symbols need nonzero arguments")
    return a.numerator * a.denominator


def hilbert_symbol(a, b, place) -> int:
    """Hilbert symbol (a, b) at a finite prime or at the real place (math.inf).

    Odd p: with a = p^alpha u, b = p^beta v, the symbol is
    (-1)^(alpha beta (p-1)/2) (u/p)^beta (v/p)^alpha.
    p = 2: (-1)^(eps(u)eps(v) + alpha omega(v) + beta omega(u)) with
    eps(x) = (x-1)/2 and omega(x) = (x^2-1)/8 taken mod 2.
    """
    a = _square_class_int(a)
    b = _square_class_int(b)
    if place == INF or place == "inf":
        return -1 if (a < 0 and b < 0) else 1
    p = int(place)
    if p == 2:
        alpha, u = _split_prime(a, 2)
        beta, v = _split_prime(b, 2)
        eps_u = ((u - 1) // 2) & 1
        eps_v = ((v - 1) // 2) & 1
        omega_u = ((u * u - 1) // 8) & 1
        omega_v = ((v * v - 1) // 8) & 1
        exponent = eps_u * eps_v + alpha * omega_v + beta * omega_u
        return -1 if exponent & 1 else 1
    if p < 3 or not is_prime(p):
        raise ValueError(f"place must be a prime or math.inf, got {place}")
    alpha, u = _split_prime(a, p)
    beta, v = _split_prime(b, p)
    out = 1
    if (alpha * beta * ((p - 1) // 2)) & 1:
        out = -out
    if beta & 1:
        out *= legendre(u, p)
    if alpha & 1:
        out *= legendre(v, p)
    return out


def _split_prime(n: int, p: int) -> tuple[int, int]:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


class CyclicExtension:
    """Q[t]/(m(t)) together with a generator sigma of its Galois group.

    min_poly: coefficients [c0, ..., c_{r-1}, 1] of a monic m(t), low degree
    first.  sigma_image: coefficients of s(t) with sigma(t) = s(t).  The
    constructor checks that sigma is a well-defined automorphism of exact
    order r, and that m is irreducible: by its discriminant for r = 2, and
    for r > 2 by finding a prime below 1000 at which m stays irreducible (a
    cyclic L has a positive density of such primes).  A failed check raises
    ValueError.
    """

    def __init__(self, min_poly: Sequence, sigma_image: Sequence):
        mp = tuple(Fraction(c) for c in min_poly)
        if len(mp) < 3:
            raise ValueError("degree must be at least 2")
        if mp[-1] != 1:
            raise ValueError("min_poly must be monic")
        self.min_poly = mp
        self.degree = len(mp) - 1
        s = tuple(Fraction(c) for c in sigma_image)
        if len(s) > self.degree:
            raise ValueError("sigma_image degree must be below deg m")
        s = s + (Fraction(0),) * (self.degree - len(s))
        self.sigma_image = s
        self.disc_core: int | None = None
        if self.degree == 2:
            b, c = mp[1], mp[0]
            disc = b * b - 4 * c
            if disc == 0 or _is_rational_square(disc):
                raise ValueError("t^2 + bt + c must be irreducible over Q")
            self.disc_core = squarefree_part(disc.numerator * disc.denominator)
        elif not _irreducible_mod_some_prime(mp):
            raise ValueError(
                f"min_poly must be irreducible over Q: it is reducible mod every prime below {_RABIN_BOUND}"
            )
        self._sigma_iterates = self._build_sigma_iterates()
        self._power_tables: dict[int, list[tuple[Fraction, ...]]] = {}

    def _reduce(self, coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
        r = self.degree
        work = list(coeffs)
        while len(work) > r:
            top = work.pop()
            if top:
                off = len(work) - r
                for k in range(r):
                    work[off + k] -= top * self.min_poly[k]
        work += [Fraction(0)] * (r - len(work))
        return tuple(work)

    def _poly_mul(self, a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
        return self._reduce(out)

    def _compose(self, outer: Sequence[Fraction], inner: Sequence[Fraction]) -> tuple[Fraction, ...]:
        # outer(inner(t)) mod m, by Horner
        acc = (Fraction(0),) * self.degree
        for c in reversed(outer):
            acc = self._poly_mul(acc, inner)
            acc = tuple(x + (c if k == 0 else 0) for k, x in enumerate(acc))
        return acc

    def _build_sigma_iterates(self) -> list[tuple[Fraction, ...]]:
        r = self.degree
        t = tuple(Fraction(int(k == 1)) for k in range(r))
        # m(s(t)) must vanish mod m
        if any(self._compose(self.min_poly, self.sigma_image)):
            raise ValueError("sigma_image is not a root of min_poly mod min_poly")
        iterates = [t]
        cur = t
        for _ in range(r):
            cur = self._compose(cur, self.sigma_image)
            iterates.append(cur)
        if iterates[r] != t:
            raise ValueError("sigma does not have order dividing the degree")
        for i in range(1, r):
            if iterates[i] == t:
                raise ValueError("sigma has order smaller than the degree")
        return iterates[:r]

    def _sigma_table(self, i: int) -> list[tuple[Fraction, ...]]:
        # powers s_i(t)^k mod m for k < r, cached
        i %= self.degree
        if i not in self._power_tables:
            base = self._sigma_iterates[i]
            powers = [tuple(Fraction(int(k == 0)) for k in range(self.degree))]
            for _ in range(1, self.degree):
                powers.append(self._poly_mul(powers[-1], base))
            self._power_tables[i] = powers
        return self._power_tables[i]

    def element(self, coeffs) -> "FieldElement":
        if isinstance(coeffs, FieldElement):
            if coeffs.ext != self:
                raise ValueError("element belongs to a different extension")
            return coeffs
        if isinstance(coeffs, (int, Fraction)):
            coeffs = [coeffs]
        vals = []
        for c in coeffs:
            vals.append(rational_from_string(c) if isinstance(c, str) else Fraction(c))
        if len(vals) > self.degree:
            vals = list(self._reduce(vals))
        vals += [Fraction(0)] * (self.degree - len(vals))
        return FieldElement(self, tuple(vals))

    def zero(self) -> "FieldElement":
        return self.element(0)

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


# m of degree r > 2 is certified irreducible by a prime below this bound
_RABIN_BOUND = 1000


def _irreducible_mod_some_prime(min_poly: Sequence[Fraction]) -> bool:
    """Whether the monic min_poly is irreducible mod some prime below
    _RABIN_BOUND that divides none of its denominators.  Such a reduction
    keeps the degree, and a factorization over Q would reduce to one mod p
    (Gauss), so a True answer proves min_poly irreducible over Q."""
    den = math.lcm(*(c.denominator for c in min_poly))
    for p in range(2, _RABIN_BOUND):
        if den % p == 0 or not is_prime(p):
            continue
        f = [c.numerator * pow(c.denominator, -1, p) % p for c in min_poly]
        if _rabin_irreducible(f, p):
            return True
    return False


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


def _is_rational_square(q: Fraction) -> bool:
    if q < 0:
        return False
    n, d = q.numerator, q.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


class FieldElement:
    """An element of a CyclicExtension, as a dense tuple of Fractions."""

    __slots__ = ("ext", "coeffs")

    def __init__(self, ext: CyclicExtension, coeffs: tuple[Fraction, ...]):
        self.ext = ext
        self.coeffs = coeffs

    def _coerce(self, other) -> "FieldElement | None":
        if isinstance(other, FieldElement):
            return other if other.ext == self.ext else None
        if isinstance(other, (int, Fraction)):
            return self.ext.element(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.ext, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.ext, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return FieldElement(self.ext, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.ext, self.ext._poly_mul(self.coeffs, o.coeffs))

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
        conj = self.galois(1)
        for i in range(2, self.ext.degree):
            conj = conj * self.galois(i)
        n = self * conj
        # N(x) is a nonzero rational since min_poly is irreducible
        if not n or not n.is_rational():
            raise InternalInvariantViolation(
                "element has no nonzero rational norm; extension data invalid"
            )
        return FieldElement(self.ext, tuple(c / n.coeffs[0] for c in conj.coeffs))

    def galois(self, i: int = 1) -> "FieldElement":
        """Apply sigma^i."""
        table = self.ext._sigma_table(i)
        r = self.ext.degree
        out = [Fraction(0)] * r
        for k, c in enumerate(self.coeffs):
            if c:
                row = table[k]
                for j in range(r):
                    if row[j]:
                        out[j] += c * row[j]
        return FieldElement(self.ext, tuple(out))

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

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


def norm(x: FieldElement) -> Fraction:
    """Product of all sigma-conjugates; must land in Q."""
    acc = x.ext.one()
    for i in range(x.ext.degree):
        acc = acc * x.galois(i)
    if not acc.is_rational():
        raise InternalInvariantViolation("norm did not land in Q; extension data invalid")
    return acc.as_rational()


def trace(x: FieldElement) -> Fraction:
    acc = x.ext.zero()
    for i in range(x.ext.degree):
        acc = acc + x.galois(i)
    if not acc.is_rational():
        raise InternalInvariantViolation("trace did not land in Q; extension data invalid")
    return acc.as_rational()


def _require_quadratic(ext: CyclicExtension):
    if ext.degree != 2:
        raise Unsupported("norm membership is only decided for quadratic extensions")


def _primes_of(q) -> set[int]:
    """The primes dividing the numerator or the denominator of q, factoring once."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("0 is not in Q*")
    _, fs = factor(abs(q.numerator * q.denominator))
    return {p for p, _ in fs}


def _nonnorm_places(q: Fraction, d: int, primes) -> frozenset:
    """The places v with (q, d)_v = -1.  Apart from inf and 2 the symbol is 1 at
    every prime dividing neither q nor d, so primes must hold all those that do."""
    return frozenset(v for v in {INF, 2, *primes} if hilbert_symbol(q, d, v) == -1)


def is_norm(lam, ext: CyclicExtension) -> bool:
    """Decide lam in N(L*) for quadratic L: no place has Hilbert symbol (lam, d) = -1."""
    _require_quadratic(ext)
    lam = Fraction(lam)
    d = ext.disc_core
    return not _nonnorm_places(lam, d, _primes_of(lam) | _primes_of(d))


def norm_witness(lam, ext: CyclicExtension, budget: int = 10**4) -> FieldElement:
    """Find mu in L with norm(mu) = lam, assuming is_norm(lam, ext).

    Searches mu = (p + q t)/w over integer p, q with |q| <= budget and small
    denominators w.  For real quadratic fields a failed direct search retries
    the negated target and corrects by a norm -1 unit found from the
    continued fraction expansion of sqrt(d).  Raises NoWitnessFound when the
    budget is exhausted; that signals a search failure, not non-membership.
    """
    _require_quadratic(ext)
    lam = Fraction(lam)
    if not is_norm(lam, ext):
        raise ValueError(f"{lam} is not a norm from this extension")
    mu = _direct_witness_search(lam, ext, budget)
    if mu is not None:
        return mu
    d = ext.disc_core
    if d is not None and d > 0:
        unit = _negative_norm_unit(ext)
        if unit is not None:
            mu = _direct_witness_search(-lam, ext, budget)
            if mu is not None:
                out = unit * mu
                if norm(out) != lam:
                    raise InternalInvariantViolation("unit-corrected witness does not have norm lambda")
                return out
    raise NoWitnessFound(f"no witness for {lam} within numerator budget {budget}")


def _direct_witness_search(lam: Fraction, ext: CyclicExtension, budget: int):
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
        qcap = budget
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
            if dq.denominator != 1:
                continue
            s2 = dq.numerator
            s = math.isqrt(s2)
            if s * s != s2:
                continue
            for sgn in (1,) if s == 0 else (1, -1):
                num = b * q + sgn * s
                if num % 2:
                    continue
                mu = ext.element([Fraction(num, 2) / w, Fraction(q, w)])
                if norm(mu) == lam:
                    return mu
    return None


def _negative_norm_unit(ext: CyclicExtension):
    """A unit of norm -1 in Z[sqrt(d)] via the continued fraction of sqrt(d), if one exists."""
    d = ext.disc_core
    if d is None or d <= 0:
        raise ValueError("a unit of norm -1 is only sought in a real quadratic field")
    a0 = math.isqrt(d)
    m, q, a = 0, 1, a0
    h_prev, h_cur = 1, a0
    k_prev, k_cur = 0, 1
    for _ in range(256):
        if h_cur * h_cur - d * k_cur * k_cur == -1:
            # express h + k sqrt(d) in the t-basis: sqrt(d) = (2t + b)/f
            b = ext.min_poly[1]
            disc = b * b - 4 * ext.min_poly[0]
            f2 = disc / d
            f = Fraction(math.isqrt(f2.numerator), math.isqrt(f2.denominator))
            unit = ext.element([h_cur + Fraction(k_cur, 1) * b / f, Fraction(2 * k_cur, 1) / f])
            if norm(unit) == -1:
                return unit
        m = a * q - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        h_prev, h_cur = h_cur, a * h_cur + h_prev
        k_prev, k_cur = k_cur, a * k_cur + k_prev
    return None


def canonical_lambda(lam, ext: CyclicExtension) -> Fraction:
    """A stable squarefree integer representative of lam mod N(L*).

    Trivial classes report 1.  A nontrivial class reports the
    smallest-absolute-value squarefree integer k with |k| >= 2 whose Hilbert
    symbols against d match those of lam at every place (ties broken toward
    positive sign).
    """
    _require_quadratic(ext)
    lam = Fraction(lam)
    d = ext.disc_core
    d_primes = _primes_of(d)
    target = _nonnorm_places(lam, d, _primes_of(lam) | d_primes)
    if not target:
        return Fraction(1)
    # At an odd p not dividing d, (k, d)_p = (d/p)^v_p(k), so every k in the
    # class is a multiple of step.  The squarefree kernel of lam is in the
    # class, and so is d when that kernel is -1, so the scan ends by
    # max(|kernel of lam|, |d|, 2).
    step = math.prod(p for p in target if p not in (INF, 2) and d % p)
    for k in itertools.count(step, step):
        if k < 2:
            continue
        _, fs = factor(k)
        if any(e > 1 for _, e in fs):
            continue
        primes = d_primes | {p for p, _ in fs}
        for cand in (Fraction(k), Fraction(-k)):
            if _nonnorm_places(cand, d, primes) == target:
                return cand
