"""Field arithmetic and rational norm machinery, checked against independent oracles."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from galois_equiv import field
from galois_equiv.errors import (
    FactorizationIncomplete,
    NoWitnessFound,
    Unsupported,
)
from galois_equiv.field import (
    INF,
    _MR_LIMIT,
    CyclicExtension,
    canonical_lambda,
    factor,
    hilbert_symbol,
    is_norm,
    is_prime,
    legendre,
    norm,
    norm_witness,
    rational_from_string,
    rational_to_string,
)


def q5():
    return CyclicExtension([-5, 0, 1], [0, -1])


def qm7():
    return CyclicExtension([7, 0, 1], [0, -1])


def qm3():
    return CyclicExtension([3, 0, 1], [0, -1])


def cyclic_cubic():
    # maximal real subfield of Q(zeta_7): t = 2cos(2pi/7), sigma(t) = t^2 - 2
    return CyclicExtension([-1, -2, 1, 1], [-2, 0, 1])


# ---------------------------------------------------------------------------
# oracles


def trace(x) -> Fraction:
    """Sum of the sigma-conjugates of x, a rational."""
    acc = x.ext.zero()
    for i in range(x.ext.degree):
        acc = acc + x.galois(i)
    return acc.as_rational()


def oracle_symbol_2(a: int, b: int) -> int:
    """Decide (a, b)_2 by exhaustive search for primitive solutions of
    z^2 = a x^2 + b y^2 mod 2^8."""
    mod = 2**8
    sq_any = set()
    sq_odd = set()
    for z in range(mod):
        v = z * z % mod
        sq_any.add(v)
        if z % 2:
            sq_odd.add(v)
    for x in range(mod):
        for y in range(mod):
            v = (a * x * x + b * y * y) % mod
            if x % 2 or y % 2:
                if v in sq_any:
                    return 1
            elif v in sq_odd:
                return 1
    return -1


def oracle_symbol_odd(a: int, b: int, p: int) -> int:
    """Decide (a, b)_p for odd p by exhaustive search mod p^3 (valid since the
    test values have p-valuation at most 1)."""
    mod = p**3
    sq_any = set()
    sq_unit = set()
    for z in range(mod):
        v = z * z % mod
        sq_any.add(v)
        if z % p:
            sq_unit.add(v)
    for x in range(mod):
        for y in range(mod):
            v = (a * x * x + b * y * y) % mod
            if x % p or y % p:
                if v in sq_any:
                    return 1
            elif v in sq_unit:
                return 1
    return -1


def oracle_is_norm(lam: Fraction, b: Fraction, c: Fraction, bound: int = 50) -> bool:
    """Brute-force search for x^2 - bxy + cy^2 = lam (b, c integers) with
    x = p/w, y = q/w over |p| <= bound, 0 <= q <= bound and w <= 12.

    For fixed w and q the equation is a quadratic in p, so p is read off an
    exact integer square root of its discriminant b^2 q^2 - 4(c q^2 - lam w^2).
    """
    for w in range(1, 13):
        t = lam * w * w
        if t.denominator != 1:
            continue  # the form is an integer at integer p, q
        for q in range(0, bound + 1):
            disc = b * b * q * q - 4 * (c * q * q - t)
            if disc < 0 or disc.denominator != 1:
                continue
            s = math.isqrt(disc.numerator)
            if s * s != disc.numerator:
                continue
            for num in (b * q + s, b * q - s):
                if num.denominator != 1 or num.numerator % 2:
                    continue
                p = num.numerator // 2
                if abs(p) <= bound and p * p - b * p * q + c * q * q == t:
                    return True
    return False


def oracle_canonical_lambda(lam: Fraction, ext: CyclicExtension) -> Fraction:
    """The linear scan canonical_lambda once ran: 1 for a norm, else the first
    squarefree k = 2, 3, ... (k before -k) whose Hilbert symbols against d match
    lam's at inf, 2 and every prime of lam, d and k.  The scan stops at
    max(|squarefree kernel of lam|, |d|, 2), by which the class has a member."""
    d = ext.disc_core

    def odd_primes(n):
        return {p for p, _ in factor(abs(n))[1] if p != 2}

    def square_class(n):
        sign, fs = factor(n)
        return sign * math.prod(p for p, e in fs if e % 2)

    base = {INF, 2} | odd_primes(lam.numerator * lam.denominator) | odd_primes(d)
    if all(hilbert_symbol(lam, d, p) == 1 for p in base):
        return Fraction(1)
    limit = max(abs(square_class(lam.numerator * lam.denominator)), abs(d), 2)
    for k in range(2, limit + 1):
        if square_class(k) != k:
            continue
        places = base | odd_primes(k)
        for cand in (k, -k):
            if all(hilbert_symbol(cand, d, p) == hilbert_symbol(lam, d, p) for p in places):
                return Fraction(cand)
    raise AssertionError(f"no representative of {lam} up to {limit}")


# ---------------------------------------------------------------------------
# primality and factorization


def test_factor_small_examples():
    assert factor(40) == (1, [(2, 3), (5, 1)])
    assert factor(-14) == (-1, [(2, 1), (7, 1)])
    assert factor(1) == (1, [])
    assert factor(-1) == (-1, [])


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor(0)


def test_factor_certifies_large_prime_cofactor():
    p = 1000003
    assert factor(2 * p, bound=1000) == (1, [(2, 1), (p, 1)])


def test_factor_reports_incomplete_on_hard_semiprime():
    # two Mersenne primes beyond the deterministic primality range
    n = (2**89 - 1) * (2**107 - 1)
    with pytest.raises(FactorizationIncomplete):
        factor(n)


def test_factor_reports_incomplete_on_semiprime_cofactor():
    with pytest.raises(FactorizationIncomplete):
        factor(1000003 * 1000033, bound=1000)


def oracle_factor(n, bound=10**6):
    """factor by plain trial division over every candidate, the loop factor
    ran before it tested chunks of candidates by one gcd."""
    sign = -1 if n < 0 else 1
    m = abs(n)
    factors = []
    for p in itertools.chain((2, 3), (c for d in range(5, bound + 1, 6) for c in (d, d + 2))):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    if m > 1:
        if m <= bound * bound or is_prime(m):
            factors.append((m, 1))
        else:
            raise FactorizationIncomplete(f"composite cofactor {m} has no prime factor <= {bound}")
    return sign, factors


def outcome(fn, n, bound):
    """fn(n, bound), or the message of the FactorizationIncomplete it raised."""
    try:
        return fn(n, bound)
    except FactorizationIncomplete as exc:
        return f"incomplete: {exc}"


def primes_near(x, count):
    """The count primes below x and the count primes from x on."""
    below, above = [], []
    k = x - 1
    while len(below) < count and k > 1:
        if is_prime(k):
            below.append(k)
        k -= 1
    k = x
    while len(above) < count:
        if is_prime(k):
            above.append(k)
        k += 1
    return below + above


@pytest.mark.parametrize(
    "bound, randoms, near",
    # 2 and 3 are candidates whatever the bound, and 419 to 423 end the first chunk
    [(10**6, 10, 2), (1000, 300, 3), (10, 300, 3)] + [(b, 30, 2) for b in (2, 3, 4, 5, 419, 420, 421, 422, 423)],
)
def test_factor_matches_plain_trial_division(bound, randoms, near):
    # at 10^6 most inputs make the oracle try all 333334 candidates, so fewer are drawn
    rng = random.Random(f"factor/{bound}")
    inputs = [1, -1, 2, -3, bound, bound * bound, bound * bound + 1]
    for _ in range(randoms):
        digits = rng.randint(1, 45)
        inputs.append(rng.choice([1, -1]) * rng.randint(10 ** (digits - 1), 10**digits - 1))
    primes = primes_near(bound, near)
    inputs += [p * q for i, p in enumerate(primes) for q in primes[i:]]  # p^2 and p q around the bound
    inputs += [-6 * primes[0] * primes[-1]]
    # cofactors at and above the deterministic primality range, alone and
    # behind small factors
    inputs += [_MR_LIMIT, -12 * (_MR_LIMIT + 2), 35 * (2**89 - 1), (2**61 - 1) * (2**31 - 1)]
    # cofactors whose least prime lies past the first chunk (from 425 on):
    # 2^3 3^2 8999 214363 214663, then p q
    inputs += [29814928287575832, 431 * 433, 8999 * 214663, -10 * 214363 * 214663]
    for n in inputs:
        assert outcome(factor, n, bound) == outcome(oracle_factor, n, bound), n


def test_miller_rabin_matches_trial_division():
    def slow(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, math.isqrt(n) + 1))

    for n in range(2, 2000):
        assert is_prime(n) == slow(n)


def test_squarefree_part():
    # disc_core is the squarefree part of the discriminant b^2 - 4c, and
    # disc_primes the primes dividing it
    for (c, b), core, primes in (
        ((-10, 0), 10, {2, 5}),  # 40
        ((2, 0), -2, {2}),  # -8
        ((1, 0), -1, set()),  # -4
        ((49, 0), -1, set()),  # -196 = -(14^2)
        ((-31, 1), 5, {5}),  # 125 = 5^3
    ):
        ext = CyclicExtension([c, b, 1], [-b, -1])
        assert (ext.disc_core, ext.disc_primes) == (core, primes)


# ---------------------------------------------------------------------------
# Hilbert symbols


def test_legendre_basics():
    assert legendre(2, 7) == 1
    assert legendre(-2, 7) == -1
    assert legendre(-1, 5) == 1
    assert legendre(7 * 3, 7) == 0


def test_symbol_at_infinity():
    assert hilbert_symbol(-1, -1, INF) == -1
    assert hilbert_symbol(-1, 5, INF) == 1
    assert hilbert_symbol(2, 7, INF) == 1


def test_symbol_against_2adic_oracle():
    pairs = [(-1, -1), (-2, -7), (-1, -7), (2, -7), (-1, 5), (2, 3), (3, 7), (-2, 5), (6, -2)]
    for a, b in pairs:
        assert hilbert_symbol(a, b, 2) == oracle_symbol_2(a, b), (a, b)


def test_symbol_against_odd_oracle():
    cases = [
        (-2, -7, 7),
        (-1, -7, 7),
        (5, -7, 7),
        (-1, 5, 5),
        (2, 5, 5),
        (3, 7, 3),
        (2, 3, 3),
        (-1, 3, 3),
    ]
    for a, b, p in cases:
        assert hilbert_symbol(a, b, p) == oracle_symbol_odd(a, b, p), (a, b, p)


def test_symbol_of_minus2_minus7_ramifies_at_infinity_and_7_only():
    # the quaternion algebra (-2,-7) is division: nonsplit exactly at {inf, 7}
    assert hilbert_symbol(-2, -7, INF) == -1
    assert hilbert_symbol(-2, -7, 7) == -1
    assert hilbert_symbol(-2, -7, 2) == 1
    for p in (3, 5, 11, 13):
        assert hilbert_symbol(-2, -7, p) == 1


def test_symbol_product_formula_on_random_pairs():
    rng = random.Random(11)
    for _ in range(200):
        a = Fraction(rng.choice([n for n in range(-40, 41) if n]), rng.randint(1, 12))
        b = Fraction(rng.choice([n for n in range(-40, 41) if n]), rng.randint(1, 12))
        places = {INF, 2}
        for v in (a, b):
            _, fs = factor(abs(v.numerator * v.denominator))
            places.update(p for p, _ in fs)
        prod = 1
        for p in places:
            prod *= hilbert_symbol(a, b, p)
        assert prod == 1, (a, b)


def test_symbol_bilinearity_in_first_argument():
    rng = random.Random(7)
    for _ in range(60):
        a1 = rng.choice([n for n in range(-30, 31) if n])
        a2 = rng.choice([n for n in range(-30, 31) if n])
        b = rng.choice([n for n in range(-30, 31) if n])
        p = rng.choice([2, 3, 5, 7, INF])
        lhs = hilbert_symbol(a1 * a2, b, p)
        rhs = hilbert_symbol(a1, b, p) * hilbert_symbol(a2, b, p)
        assert lhs == rhs


@pytest.mark.parametrize("place", [0, 1, 4, 9, -3, 2.5, 3.7, -math.inf, math.nan])
def test_a_place_that_is_not_prime_is_refused(place):
    with pytest.raises(ValueError, match=f"^place must be a prime or math.inf, got {place}$"):
        hilbert_symbol(2, 3, place)


def test_an_integral_place_names_its_prime():
    assert hilbert_symbol(3, 5, 5.0) == hilbert_symbol(3, 5, Fraction(5)) == hilbert_symbol(3, 5, 5) == -1


@pytest.mark.parametrize("a, b", [(0, 3), (3, 0), (Fraction(0), "2/3"), ("0/5", -1)])
def test_a_zero_argument_is_refused(a, b):
    with pytest.raises(ValueError, match="^Hilbert symbols need nonzero arguments$"):
        hilbert_symbol(a, b, 3)


def test_the_symbol_of_a_rational_is_that_of_its_square_class_integer():
    for a, b, p in ((Fraction(-2, 7), -7, 7), ("3/4", "-5/9", 2), (Fraction(5, 3), 3, 3), ("-1/2", 6, INF)):
        a, b = Fraction(a), Fraction(b)
        assert hilbert_symbol(a, b, p) == hilbert_symbol(
            a.numerator * a.denominator, b.numerator * b.denominator, p
        ) == hilbert_symbol(str(a), str(b), p), (a, b, p)


# ---------------------------------------------------------------------------
# extension arithmetic


def test_extension_validation():
    with pytest.raises(ValueError):
        CyclicExtension([-5, 0, 2], [0, -1])  # not monic
    with pytest.raises(ValueError):
        CyclicExtension([-4, 0, 1], [0, -1])  # t^2 - 4 reducible
    with pytest.raises(ValueError):
        CyclicExtension([-5, 0, 1], [0, 1])  # sigma = identity
    with pytest.raises(ValueError):
        CyclicExtension([-5, 0, 1], [1, 1])  # t+1 is not a root of t^2-5
    with pytest.raises(ValueError):
        CyclicExtension([-5, 1], [0])  # degree 1
    with pytest.raises(ValueError, match="integer coefficients"):
        CyclicExtension([Fraction(-5, 4), 0, 1], [0, -1])  # t^2 - 5/4 is not integral
    with pytest.raises(ValueError, match="^sigma_image degree must be below deg m$"):
        CyclicExtension([-5, 0, 1], [0, -1, 0])
    # sigma_image may have denominators
    assert CyclicExtension([8, -12, 0, 1], [-4, 0, Fraction(1, 2)]).degree == 3


def test_element_arithmetic_and_inverse():
    rng = random.Random(3)
    for ext in (q5(), qm7(), cyclic_cubic()):
        r = ext.degree
        for _ in range(40):
            x = ext.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(r)])
            y = ext.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(r)])
            assert (x + y) - y == x
            assert x * y == y * x
            if x:
                assert x * x.inverse() == ext.one()
            if y:
                assert (x / y) * y == x


def test_powers_reflected_operators_and_refusals_of_elements():
    ext = q5()
    x = ext.element([1, 1])  # 1 + sqrt5, of norm -4
    assert x**-2 == ext.element([Fraction(3, 8), Fraction(-1, 8)])
    assert 1 - x == -ext.gen()
    assert 1 / x == ext.element([Fraction(-1, 4), Fraction(1, 4)])
    with pytest.raises(ZeroDivisionError, match="^inverse of zero field element$"):
        ext.zero().inverse()
    with pytest.raises(ValueError, match=r"^1 \+ t is not rational$"):
        x.as_rational()
    with pytest.raises(ValueError, match="^element belongs to a different extension$"):
        qm7().element(x)
    with pytest.raises(ValueError, match=r"^0 is not in Q\*$"):
        is_norm(0, ext)


def test_element_takes_only_exact_coefficients():
    # Fraction(0.1) would be the binary expansion 3602879701896397/2^55
    ext = q5()
    for bad in ([0.1, 1], [1, 2.0], [Fraction(1, 3), None], [True, 1]):
        with pytest.raises(TypeError, match="Fraction or a 'p/q' string"):
            ext.element(bad)
    assert ext.element([Fraction(1, 10), 1]) == ext.element(["1/10", "1"])


def test_inverse_in_a_reducible_cubic_rejects_zero_divisors():
    # m = (t-1)(t-2)(t-3) and sigma cycles the roots 1 -> 2 -> 3 -> 1: sigma is
    # a well-defined automorphism of order 3, but Q[t]/(m) has zero divisors
    # such as t - 1.  m splits mod every prime, so the constructor rejects it
    # before any element exists.
    with pytest.raises(ValueError, match="irreducible"):
        CyclicExtension([-6, 11, -6, 1], [-2, Fraction(11, 2), Fraction(-3, 2)])


def test_gen_satisfies_min_poly():
    for ext in (q5(), qm7(), cyclic_cubic()):
        t = ext.gen()
        acc = ext.zero()
        for k, c in enumerate(ext.min_poly):
            acc = acc + ext.element(c) * t**k
        assert not acc


def test_sigma_is_a_field_automorphism():
    for ext in (q5(), qm7(), cyclic_cubic()):
        rng = random.Random(5)
        r = ext.degree
        for _ in range(20):
            x = ext.element([rng.randint(-6, 6) for _ in range(r)])
            y = ext.element([rng.randint(-6, 6) for _ in range(r)])
            assert (x * y).galois() == x.galois() * y.galois()
            assert (x + y).galois() == x.galois() + y.galois()
            assert x.galois(r) == x
            assert x.galois(1).galois(r - 1) == x


def test_sigma_fixes_exactly_the_rationals():
    ext = q5()
    assert ext.element([3, 0]).galois() == ext.element(3)
    t = ext.gen()
    assert t.galois() == -t


def test_norm_and_trace_values():
    ext = qm7()
    half = ext.element(["1/2", "1/2"])  # (1 + sqrt(-7))/2
    assert norm(half) == 2
    assert trace(half) == 1

    ext5 = q5()
    u = ext5.element([2, -1])  # 2 - sqrt(5)
    assert norm(u) == -1
    assert trace(u) == 4

    cub = cyclic_cubic()
    assert norm(cub.gen()) == 1
    assert trace(cub.gen()) == -1


def test_norm_is_multiplicative_and_trace_additive():
    for ext in (q5(), qm7(), cyclic_cubic()):
        rng = random.Random(9)
        r = ext.degree
        for _ in range(15):
            x = ext.element([rng.randint(-5, 5) for _ in range(r)])
            y = ext.element([rng.randint(-5, 5) for _ in range(r)])
            assert norm(x) * norm(y) == norm(x * y)
            assert trace(x) + trace(y) == trace(x + y)
            # x sigma(x) ... sigma^(r-1)(x), written out
            assert x * field._conjugate_product(x) == math.prod(x.galois(i) for i in range(r))
            if x:
                assert norm(x) != 0


# ---------------------------------------------------------------------------
# norm membership, witnesses, canonical representatives


def test_is_norm_known_values():
    assert is_norm(-1, q5()) is True  # -1 = (2-sqrt5)(2+sqrt5)
    assert is_norm(2, qm7()) is True  # 2 = N((1+sqrt-7)/2)
    assert is_norm(-2, qm7()) is False
    assert is_norm(-1, qm7()) is False
    assert is_norm(Fraction(1, 2), qm7()) is True


def test_is_norm_rejects_nonquadratic():
    with pytest.raises(Unsupported):
        is_norm(2, cyclic_cubic())
    with pytest.raises(Unsupported):
        canonical_lambda(2, cyclic_cubic())


def test_is_norm_against_witness_oracle():
    rng = random.Random(17)
    exts = [q5(), qm7(), qm3(), CyclicExtension([-13, 0, 1], [0, -1])]
    checked = 0
    while checked < 50:
        ext = rng.choice(exts)
        b, c = ext.min_poly[1], ext.min_poly[0]
        if rng.random() < 0.5:
            # a constructed norm: the oracle must find it and is_norm must agree
            x = Fraction(rng.randint(-9, 9), rng.choice([1, 2]))
            y = Fraction(rng.randint(-9, 9), rng.choice([1, 2]))
            mu = ext.element([x, y])
            if not mu:
                continue
            lam = norm(mu)
            assert is_norm(lam, ext) is True
            assert oracle_is_norm(lam, b, c) is True
        else:
            lam = Fraction(rng.choice([n for n in range(-20, 21) if n]))
            assert is_norm(lam, ext) == oracle_is_norm(lam, b, c), (lam, ext.disc_core)
        checked += 1


def test_norm_witness_produces_exact_witnesses():
    cases = [
        (Fraction(-1), q5()),
        (Fraction(2), qm7()),
        (Fraction(7), CyclicExtension([-2, 0, 1], [0, -1])),  # 3 + t over t^2 - 2
        (Fraction(1, 2), qm7()),
        (Fraction(11), q5()),
        (Fraction(4), qm7()),
    ]
    for lam, ext in cases:
        mu = norm_witness(lam, ext)
        assert norm(mu) == lam


def test_norm_witness_rejects_nonnorm():
    with pytest.raises(ValueError):
        norm_witness(-2, qm7())


def test_norm_witness_budget_failure_is_distinct(monkeypatch):
    # budget 0 admits only rational witnesses, and 11 is not a rational square;
    # a real input that exhausts 10^4, such as -1000000007 over Q(sqrt3),
    # takes over a second
    monkeypatch.setattr(field, "_WITNESS_BUDGET", 0)
    ext = q5()
    assert is_norm(11, ext)
    with pytest.raises(NoWitnessFound, match="budget 0"):
        norm_witness(11, ext)


def test_the_norm_minus_one_unit_is_read_at_the_end_of_the_first_period(monkeypatch):
    # sqrt(13381) has period 257; budget 0 leaves the direct search only
    # rational witnesses, so -1 needs the unit
    monkeypatch.setattr(field, "_WITNESS_BUDGET", 0)
    ext = CyclicExtension([-13381, 0, 1], [0, -1])
    assert is_norm(-1, ext)
    assert norm(norm_witness(-1, ext)) == -1
    # sqrt(13) has period 5: 18^2 - 13 5^2 = -1, also in the basis of t^2 - t - 3
    q13 = CyclicExtension([-13, 0, 1], [0, -1])
    assert field._negative_norm_unit(q13) == q13.element([18, 5])
    assert norm(field._negative_norm_unit(CyclicExtension([-3, -1, 1], [1, -1]))) == -1
    # sqrt(3) has period 2, and no unit of Q(sqrt 3) has norm -1
    assert field._negative_norm_unit(CyclicExtension([-3, 0, 1], [0, -1])) is None


def test_a_field_without_a_norm_minus_one_unit_can_still_have_norm_minus_one():
    # sqrt(34) has period 4, and 34 = 2 * 17 has no prime 3 mod 4, so the walk
    # runs and ends with no unit of norm -1; yet -1 = N((5 + sqrt 34)/3)
    ext = CyclicExtension([-34, 0, 1], [0, -1])
    assert field._negative_norm_unit(ext) is None
    assert norm_witness(-1, ext) == ext.element([Fraction(5, 3), Fraction(1, 3)])


def test_a_unit_of_norm_minus_one_is_sought_only_in_a_real_field():
    with pytest.raises(ValueError, match="^a unit of norm -1 is only sought in a real quadratic field$"):
        field._negative_norm_unit(qm7())


def test_the_primes_of_d_are_factored_once_with_the_field(monkeypatch):
    # d = 999983 * 999979 takes trial division to 10^6, so the norm tests
    # read its primes off the field instead of factoring d again; building
    # the field factors nothing, and the first norm test factors 4d
    d = 999983 * 999979
    factored = []
    factor = field.factor

    def counting_factor(n, *args, **kwargs):
        factored.append(abs(n))
        return factor(n, *args, **kwargs)

    monkeypatch.setattr(field, "factor", counting_factor)
    ext = CyclicExtension([-d, 0, 1], [0, -1])
    assert factored == []
    is_norm(7, ext)
    canonical_lambda(7, ext)
    assert field._negative_norm_unit(ext) is None  # 999983 = 3 mod 4
    assert ext.disc_primes == {999979, 999983}
    assert factored.count(4 * d) == 1 and d not in factored


def test_a_prime_3_mod_4_in_d_rules_out_the_norm_minus_one_unit():
    # x^2 = -1 has no root mod 3 or mod 7, so 21 = 1 mod 4 has no such unit;
    # the prime 10000000019 = 3 mod 4 needs no walk of its long period
    assert field._negative_norm_unit(CyclicExtension([-21, 0, 1], [0, -1])) is None
    ext = CyclicExtension([-10000000019, 0, 1], [0, -1])
    start = time.perf_counter()
    assert field._negative_norm_unit(ext) is None
    assert time.perf_counter() - start < 0.1


def test_canonical_lambda_examples():
    assert canonical_lambda(-2, qm7()) == -2
    assert canonical_lambda(-8, qm7()) == -2
    assert canonical_lambda(-1, q5()) == 1
    # -1 and -2 lie in the same class mod norms from Q(sqrt(-7)) since
    # 2 = N((1+sqrt(-7))/2); the canonical representative is the prime-bearing -2
    assert canonical_lambda(-1, qm7()) == -2


def test_canonical_lambda_is_idempotent_and_class_invariant():
    rng = random.Random(23)
    for ext in (q5(), qm7(), qm3()):
        for _ in range(12):
            lam = Fraction(rng.choice([n for n in range(-30, 31) if n]), rng.randint(1, 6))
            c = canonical_lambda(lam, ext)
            assert canonical_lambda(c, ext) == c
            mu = ext.element([rng.randint(-5, 5), rng.randint(-5, 5)])
            if mu:
                assert canonical_lambda(lam * norm(mu), ext) == c
            assert (c == 1) == is_norm(lam, ext)


def test_canonical_lambda_matches_the_linear_scan():
    exts = [
        q5(),
        qm7(),
        qm3(),
        CyclicExtension([-13, 0, 1], [0, -1]),
        CyclicExtension([-2, 0, 1], [0, -1]),
        CyclicExtension([1, 0, 1], [0, -1]),
        CyclicExtension([2, -1, 1], [1, -1]),  # t^2 - t + 2, a root of which is (1 + sqrt(-7))/2
        # the class of -1 is first met at -5 and at 6, so a scan letting -4 through would differ
        CyclicExtension([5, 0, 1], [0, -1]),
        CyclicExtension([-15, 0, 1], [0, -1]),
    ]
    for ext in exts:
        for num in range(-30, 31):
            for den in (1, 2, 3, 4, 9, 10):
                if num:
                    lam = Fraction(num, den)
                    assert canonical_lambda(lam, ext) == oracle_canonical_lambda(lam, ext), (lam, ext)


def test_canonical_lambda_of_a_product_of_two_inert_primes_is_fast():
    started = time.monotonic()
    assert canonical_lambda(1019 * 1031, CyclicExtension([1, 0, 1], [0, -1])) == 1050589
    assert time.monotonic() - started < 0.5


# the fields of the benchmark's norm queries, t^2 - d
NORM_QUERY_FIELDS = (-1, -3, -7, 2, 5, 13)


def class_grid(d):
    """Rationals of both signs over Q(sqrt d): 2, the primes of d, and the
    smallest odd inert and split primes, each at valuation 0, 1 or 2 in the
    numerator or the denominator, in every combination; and quotients with
    small odd primes, a larger prime 53 and squares."""
    inert = next(p for p in range(3, 54, 2) if legendre(d, p) == -1)
    split = next(p for p in range(3, 54, 2) if legendre(d, p) == 1)
    parts = (2, abs(d), inert, split)
    nums = {1, 2, 3, 4, 5, 7, 8, 9, 12, 18, 49, 53, 2 * 53, abs(d), 4 * abs(d), 2 * abs(d)}
    lams = {Fraction(num, den) for num in nums for den in (1, 2, 3, 4, 7, 25, abs(d), 9 * abs(d))}
    for exponents in itertools.product(range(-2, 3), repeat=len(parts)):
        lams.add(math.prod((Fraction(p) ** e for p, e in zip(parts, exponents)), start=Fraction(1)))
    return sorted(sign * lam for lam in lams for sign in (1, -1))


def test_the_class_places_are_where_the_public_symbol_is_minus_one():
    # every prime of the grid and of d is at most 53, and the symbol is 1 at
    # any other odd prime; is_norm reads inf, 2 and the primes of d before it
    # factors, and canonical_lambda skips a k whose inert primes differ
    places = [INF] + [p for p in range(2, 54) if all(p % q for q in range(2, p))]
    for d in NORM_QUERY_FIELDS:
        ext = CyclicExtension([-d, 0, 1], [0, -1])
        for lam in class_grid(d):
            expected = {v for v in places if hilbert_symbol(lam, d, v) == -1}
            assert field._class_places(lam, ext) == expected, (lam, d)
            assert is_norm(lam, ext) == (not expected)
            assert canonical_lambda(lam, ext) == oracle_canonical_lambda(lam, ext), (lam, d)


def test_a_norm_test_makes_no_primality_test_and_no_public_symbol_call(monkeypatch):
    # num * den is at most 10^12 after chunk 0 of the trial division, so
    # factor proves no cofactor prime; each place's symbol is taken on
    # integers with no check that the place is prime
    calls = []
    for name in ("is_prime", "hilbert_symbol"):
        def counted(*args, _name=name, _original=getattr(field, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(field, name, counted)
    lams = [7, -1, Fraction(-2, 3), Fraction(999983, 5), Fraction(-9, 999979 * 999961),
            2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23, Fraction(49, 8)]
    for d in NORM_QUERY_FIELDS:
        ext = CyclicExtension([-d, 0, 1], [0, -1])
        for lam in lams:
            assert (canonical_lambda(lam, ext) == 1) == is_norm(lam, ext)
    assert calls == []


@pytest.mark.parametrize("function, args, name, kind", [
    (canonical_lambda, (0.1, q5()), "lambda", "float"),  # once the class of 3602879701896397/2^55
    (is_norm, (True, q5()), "lambda", "bool"),
    (norm_witness, (4.0, q5()), "lambda", "float"),
    (hilbert_symbol, (0.1, 5, 3), "a", "float"),
    (hilbert_symbol, (5, False, 3), "b", "bool"),
])
def test_the_norm_api_takes_only_exact_rationals(function, args, name, kind):
    with pytest.raises(TypeError, match=f"^{name} must be an int, a Fraction or a 'p/q' string, not {kind}$"):
        function(*args)


def test_a_non_norm_decided_with_no_factoring_is_not_factored(monkeypatch):
    # the square class -1000003 * 1000033 is out of factor's reach, yet its sign
    # alone makes it a non-norm from Q(i): (lam, -1) = -1 at inf
    lam = -1000003 * 1000033
    ext = CyclicExtension([1, 0, 1], [0, -1])
    factored = []
    factor = field.factor

    def counting_factor(n, *args, **kwargs):
        factored.append(abs(n))
        return factor(n, *args, **kwargs)

    monkeypatch.setattr(field, "factor", counting_factor)
    assert is_norm(lam, ext) is False
    with pytest.raises(ValueError, match=f"^{lam} is not a norm from this extension$"):
        norm_witness(lam, ext)
    assert -lam not in factored
    # the class needs every place, so canonical_lambda still factors it
    with pytest.raises(FactorizationIncomplete, match=f"^composite cofactor {-lam} "):
        canonical_lambda(lam, ext)


def test_rational_string_round_trip():
    assert rational_from_string("3/4") == Fraction(3, 4)
    assert rational_from_string("-7") == Fraction(-7)
    assert rational_from_string(" -3/6 ") == Fraction(-1, 2)
    assert rational_from_string("+12") == Fraction(12)
    assert rational_to_string(Fraction(-3, 4)) == "-3/4"
    assert rational_to_string(Fraction(5)) == "5"
    with pytest.raises(ValueError):
        rational_from_string("1.5")


@pytest.mark.parametrize("text", ["1e-3", "1E2", "1_000", "1/2/3", "+", "/2", "1/-2", "1 / 2", ""])
def test_only_integers_and_p_over_q_are_rationals(text):
    with pytest.raises(ValueError):
        rational_from_string(text)
