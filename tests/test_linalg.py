"""Exact matrix operations over L, the modular intertwiner solve, and the
rational elimination engine."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from galois_equiv import linalg
from galois_equiv import rep as rep_module
from galois_equiv.equivariance import compute_X, twisted_images
from galois_equiv.errors import Singular
from galois_equiv.field import _MR_LIMIT, CyclicExtension, _modular_root, _split_primes, is_prime, norm
from galois_equiv.linalg import (
    IncrementalSpan,
    Mat,
    inverse,
    kernel_of_linear_maps,
    mat_to_rational_vector,
    matrix_norm,
    rational_in_span,
    rational_kernel,
    rational_rank,
    rational_vector_to_mat,
    solve_sylvester_space,
    twisted_norm_chain,
)
from galois_equiv.rep import GroupData, Representation

from conftest import build_a5, build_a7_double, build_c3, leibniz_determinant


def q5():
    return CyclicExtension([-5, 0, 1], [0, -1])


def qm7():
    return CyclicExtension([7, 0, 1], [0, -1])


def cyclic_cubic():
    # maximal real subfield of Q(zeta_7): t = 2cos(2pi/7), sigma(t) = t^2 - 2
    return CyclicExtension([-1, -2, 1, 1], [-2, 0, 1])


def random_mat(ext, n, m, rng, span=4):
    return Mat(ext, [[ext.element([rng.randint(-span, span) for _ in range(ext.degree)])
                      for _ in range(m)] for _ in range(n)])


def random_invertible(ext, n, rng, span=3):
    while True:
        a = random_mat(ext, n, n, rng, span)
        try:
            inverse(a)
            return a
        except Singular:
            continue


# ---------------------------------------------------------------------------
# oracle: plain Fraction row reduction


def oracle_rank(rows, ncols):
    mat = [list(map(Fraction, r)) for r in rows]
    rank_ = 0
    for col in range(ncols):
        piv = next((r for r in range(rank_, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank_], mat[piv] = mat[piv], mat[rank_]
        pv = mat[rank_][col]
        mat[rank_] = [x / pv for x in mat[rank_]]
        for r in range(len(mat)):
            if r != rank_ and mat[r][col]:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank_])]
        rank_ += 1
    return rank_


def test_rational_elimination_matches_oracle_on_random_systems():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 7)
        m = rng.randint(1, 7)
        k = rng.randint(1, min(n, m))
        left = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(k)] for _ in range(n)]
        right = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(m)] for _ in range(k)]
        rows = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(m)] for i in range(n)]
        assert rational_rank(rows, m) == oracle_rank(rows, m)
        kern = rational_kernel(rows, m)
        assert len(kern) == m - oracle_rank(rows, m)
        for v in kern:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0


def random_sparse_system(rng):
    n = rng.randint(1, 30)
    m = rng.randint(1, 40)
    rows = [
        [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5)) if rng.random() < 0.05 else Fraction(0)
         for _ in range(m)]
        for _ in range(n)
    ]
    # dependent rows, so that elimination cancels and the rank drops
    for _ in range(rng.randint(0, 4)):
        a, b = rng.choice(rows), rng.choice(rows)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        rows.append([x + c * y for x, y in zip(a, b)])
    return rows, m


def test_sparse_rows_match_oracle_on_random_sparse_systems():
    rng = random.Random(37)
    for _ in range(60):
        rows, m = random_sparse_system(rng)
        rank = oracle_rank(rows, m)
        assert rational_rank(rows, m) == rank
        kern = rational_kernel(rows, m)
        assert len(kern) == m - rank
        for v in kern:
            for row in rows:
                assert sum(x * y for x, y in zip(row, v) if x) == 0


def test_elimination_returns_coprime_reduced_echelon_rows():
    rng = random.Random(41)
    for _ in range(60):
        rows, m = random_sparse_system(rng)
        mat, piv_cols, piv_rows = linalg.rational_elimination(rows, m)
        assert len(mat) == len(piv_cols) == oracle_rank(rows, m)
        assert piv_cols == sorted(set(piv_cols)) and piv_rows == list(range(len(mat)))
        for k, (row, pcol) in enumerate(zip(mat, piv_cols)):
            assert all(isinstance(x, int) for x in row) and math.gcd(*row) == 1
            assert row[pcol] > 0 and not any(row[:pcol])
            assert all(other[pcol] == 0 for other in mat[:k] + mat[k + 1:])
        # the rows span the input's row space
        assert oracle_rank(mat + rows, m) == len(mat)


def test_rational_in_span():
    v1 = [Fraction(1), Fraction(0), Fraction(2)]
    v2 = [Fraction(0), Fraction(1), Fraction(-1)]
    assert rational_in_span([v1, v2], [Fraction(2), Fraction(3), Fraction(1)])
    assert not rational_in_span([v1, v2], [Fraction(0), Fraction(0), Fraction(1)])


# ---------------------------------------------------------------------------
# matrices over L


def test_matrix_arithmetic_and_inverse():
    rng = random.Random(41)
    for ext in (q5(), qm7(), cyclic_cubic()):
        for _ in range(10):
            n = rng.randint(1, 4)
            a = random_invertible(ext, n, rng)
            b = random_mat(ext, n, n, rng)
            assert (a + b) - b == a
            ai = inverse(a)
            assert a * ai == Mat.identity(ext, n)
            assert ai * a == Mat.identity(ext, n)
            assert (a * b).galois() == a.galois() * b.galois()


def property_entry(ext, rng):
    """0, or an element with small or up-to-10^6 coefficients over mixed denominators."""
    if rng.random() < 0.2:
        return ext.zero()
    span = 10**6 if rng.random() < 0.3 else 9
    return ext.element([Fraction(rng.randint(-span, span), rng.choice((1, 1, 2, 3, 4, 7, 10, 49)))
                        for _ in range(ext.degree)])


def property_mat(ext, n, m, rng):
    if rng.random() < 0.15:
        return Mat(ext, [[0] * m for _ in range(n)])
    return Mat(ext, [[property_entry(ext, rng) for _ in range(m)] for _ in range(n)])


def assert_entrywise(mat, rows):
    """mat holds the FieldElement rows, in lowest terms over one denominator,
    and equals (with its hash) the matrix built from those rows."""
    assert mat.den > 0 and math.gcd(mat.den, *(c for row in mat.num for e in row for c in e)) == 1
    assert [list(r) for r in mat.rows] == [list(r) for r in rows]
    rebuilt = Mat(mat.ext, rows)
    assert mat == rebuilt and hash(mat) == hash(rebuilt)
    assert (mat.num, mat.den) == (rebuilt.num, rebuilt.den)


@pytest.mark.parametrize("make_ext", [q5, qm7, cyclic_cubic], ids=["q5", "qm7", "cubic"])
def test_mat_operations_match_an_entrywise_reference(make_ext):
    ext = make_ext()
    rng = random.Random(f"mat-{ext.min_poly}")
    zero = ext.zero()
    for _ in range(40):
        n, k, m = (rng.choice((1, 1, 2, 3, 4)) for _ in range(3))
        a, c = property_mat(ext, n, k, rng), property_mat(ext, n, k, rng)
        b = property_mat(ext, k, m, rng)
        ea, eb, ec = a.rows, b.rows, c.rows
        assert_entrywise(a, ea)
        assert_entrywise(a * b, [[sum((ea[i][t] * eb[t][j] for t in range(k)), zero) for j in range(m)]
                                 for i in range(n)])
        assert_entrywise(a + c, [[x + y for x, y in zip(r, s)] for r, s in zip(ea, ec)])
        assert_entrywise(a - c, [[x - y for x, y in zip(r, s)] for r, s in zip(ea, ec)])
        assert_entrywise(-a, [[-x for x in r] for r in ea])
        for s in (property_entry(ext, rng), rng.randint(-9, 9), Fraction(rng.randint(-9, 9), 7)):
            scaled = [[x * s for x in r] for r in ea]
            assert_entrywise(a * s, scaled)
            assert_entrywise(s * a, scaled)
        for i in range(ext.degree + 1):
            assert_entrywise(a.galois(i), [[x.galois(i) for x in r] for r in ea])
        # equal matrices by different routes, and unequal ones
        assert (a + c) - c == a and hash((a + c) - c) == hash(a)
        assert (a * 6) * Fraction(1, 6) == a
        is_zero = not any(x for r in ea for x in r)
        assert all((a * f == a) == is_zero for f in (2, Fraction(1, 2)))
        assert (a == c) == (ea == ec) and (a == a.galois()) == (ea == a.galois().rows)
        ident = Mat.identity(ext, n)
        assert_entrywise(ident, [[ext.one() if i == j else zero for j in range(n)] for i in range(n)])
        assert ident.is_identity() and ident.is_scalar()
        d = property_entry(ext, rng)
        assert_entrywise(d * ident, [[d if i == j else zero for j in range(n)] for i in range(n)])
        assert (d * ident).is_scalar() and (d * ident).is_identity() == (d == ext.one())
        if n == k:
            scalar = all(ea[i][j] == (ea[0][0] if i == j else zero) for i in range(n) for j in range(n))
            assert a.is_scalar() == scalar
            assert a.is_identity() == (scalar and ea[0][0] == ext.one())


def test_inverse_raises_on_singular():
    ext = q5()
    with pytest.raises(Singular):
        inverse(Mat(ext, [[1, 2], [2, 4]]))
    ext = qm7()
    t = ext.gen()
    r1 = [ext.one(), t, ext.element([2, -1])]
    r2 = [t, ext.element(3), ext.element([0, 1])]
    r3 = [t * a - 2 * b for a, b in zip(r1, r2)]  # t * r1 - 2 * r2
    with pytest.raises(Singular):
        inverse(Mat(ext, [r1, r2, r3]))
    with pytest.raises(Singular):
        inverse(Mat(ext, [r1, [0, 0, 0], r2]))


def test_shapes_that_do_not_fit_are_refused():
    ext = q5()
    square, wide = Mat.identity(ext, 2), Mat(ext, [[1, 2, 3]])
    with pytest.raises(ValueError, match="^ragged rows$"):
        Mat(ext, [[1, 2], [3]])
    with pytest.raises(ValueError, match="^shape mismatch$"):
        square + wide
    with pytest.raises(ValueError, match=r"^shape mismatch 1x3 \* 2x2$"):
        wide * square
    with pytest.raises(ValueError, match="^norm of a non-square matrix$"):
        twisted_norm_chain(wide)
    with pytest.raises(ValueError, match="^need at least one pair$"):
        solve_sylvester_space([])


@pytest.mark.parametrize("build", [build_c3, build_a5, build_a7_double], ids=["c3", "a5", "2a7"])
def test_norm_of_det_x_is_lambda_to_the_n(build):
    # N(X) = lambda I, so N(det X) = det N(X) = lambda^n: the identity by
    # which decide_lambda reads odd n off N(X) alone
    rep = build()
    x = compute_X(rep)
    lam = matrix_norm(x)[0, 0].as_rational()
    assert norm(leibniz_determinant(x)) == lam**rep.dim


def test_require_invertible_raises_as_inverse_does(monkeypatch):
    ext = qm7()
    t = ext.gen()
    r1 = [ext.one(), t, ext.element([2, -1])]
    r2 = [t, ext.element(3), ext.element([0, 1])]
    r3 = [t * a - 2 * b for a, b in zip(r1, r2)]
    for a in (Mat(ext, [r1, r2, r3]), Mat(ext, [r1, [0, 0, 0], r2]), Mat(ext, [[0, 0], [0, 0]]), Mat(ext, [r1, r2])):
        with pytest.raises(Singular) as expected:
            inverse(a)
        with pytest.raises(Singular, match=f"^{expected.value}$"):
            linalg.require_invertible(a)
    # an invertible matrix is certified mod p, with no elimination over L
    monkeypatch.setattr(linalg, "inverse", lambda a: pytest.fail("eliminated over L"))
    rng = random.Random(59)
    for ext in (q5(), qm7(), cyclic_cubic()):
        for n in (1, 2, 3):
            a = random_invertible(ext, n, rng)
            linalg.require_invertible(a)
            linalg.require_invertible(Mat(ext, [[e * Fraction(1, 6) for e in row] for row in a.rows]))


def test_require_invertible_falls_back_when_the_prime_divides_the_determinant(monkeypatch):
    # diag(1, p) is singular mod the split prime p that certifies, but not over L
    ext = q5()
    p, _ = _modular_root(ext, 1)
    d = Mat(ext, [[1, 0], [0, p]])
    eliminated = []
    monkeypatch.setattr(linalg, "inverse", lambda a: eliminated.append(a) or inverse(a))
    linalg.require_invertible(d)
    assert eliminated == [d]
    group = GroupData.from_strings(["g"], [], {"g": "g"})
    rep = Representation(group, ext, [d])
    assert len(eliminated) == 2
    assert rep.letter(0, -1) * d == Mat.identity(ext, 2)


def span_kernel(span):
    """L-basis of {v : row . v = 0 for every row of the span}, one vector per
    non-pivot column, in column order: the span's rows are span.pivot at
    their own pivot and 0 at every other pivot column."""
    ext = span.ext
    zero, one, pivot = ext.zero(), ext.one(), ext._make(span.pivot, 1)
    basis = []
    for f in range(span.width):
        if f not in span.pivots:
            v = [zero] * span.width
            v[f] = one
            for row, pcol in zip(span.rows, span.pivots):
                v[pcol] = -ext._make(row[f], 1) / pivot
            basis.append(v)
    return basis


def test_rank_and_kernel_over_l():
    ext = q5()
    t = ext.gen()
    a = Mat(ext, [[1, t, 0], [t, [5, 0], 0]])  # second row = t * first row
    span = IncrementalSpan(ext, a.ncols)
    for row in a.rows:
        span.insert(Mat(ext, [row]).num[0])
    assert span.dim == 1
    kern = span_kernel(span)
    assert len(kern) == 2
    for v in kern:
        col = Mat(ext, [[e] for e in v])
        assert a * col == Mat(ext, [[0], [0]])


def test_sigma_acts_entrywise():
    ext = q5()
    t = ext.gen()
    a = Mat(ext, [[t, 1], [0, t]])
    assert a.galois() == Mat(ext, [[-t, 1], [0, -t]])
    assert a.galois(2) == a


def test_matrix_norm_on_scalars_matches_field_norm():
    rng = random.Random(43)
    for ext in (q5(), qm7()):
        for _ in range(10):
            x = ext.element([rng.randint(-5, 5), rng.randint(-5, 5)])
            if not x:
                continue
            n = matrix_norm(Mat(ext, [[x]]))
            assert n[0, 0] == norm(x)


def test_matrix_norm_twist_identity():
    # N(sigma(A)) = sigma(N(A)) conjugated: for r = 2, sigma(N(A)) = A N(A) A^-1
    rng = random.Random(47)
    ext = q5()
    a = random_invertible(ext, 3, rng)
    n = matrix_norm(a)
    assert a * n == n.galois() * a


def test_matrix_norm_on_the_cyclic_cubic_is_the_written_out_product():
    rng = random.Random(53)
    ext = cyclic_cubic()
    for n in (1, 2, 3):
        a = random_mat(ext, n, n, rng)
        assert matrix_norm(a) == a.galois(2) * a.galois(1) * a


def test_incremental_span():
    ext = q5()
    span = IncrementalSpan(ext, 4)
    t = ext.gen()
    assert span.insert(Mat(ext, [[ext.one(), ext.zero(), ext.zero(), ext.zero()]]).num[0])
    assert span.insert(Mat(ext, [[t, ext.one(), ext.zero(), ext.zero()]]).num[0])
    # dependent over L
    assert not span.insert(Mat(ext, [[t, t, ext.zero(), ext.zero()][:2] + [ext.zero(), ext.zero()]]).num[0])
    assert span.dim == 2


class UnfusedSpan(IncrementalSpan):
    """IncrementalSpan on rows that are lists of FieldElements, each update
    a - f b taken entry by entry as a product and a difference."""

    def insert(self, vec):
        row = list(vec)
        for prow, pcol in zip(self.rows, self.pivots):
            if row[pcol]:
                f = row[pcol]
                row = [a - f * b if b else a for a, b in zip(row, prow)]
        lead = next((j for j in range(self.width) if row[j]), None)
        if lead is None:
            return False
        inv = row[lead].inverse()
        row = [a * inv for a in row]
        for k, prow in enumerate(self.rows):
            if prow[lead]:
                f = prow[lead]
                self.rows[k] = [a - f * b if b else a for a, b in zip(prow, row)]
        self.rows.append(row)
        self.pivots.append(lead)
        return True


@pytest.mark.parametrize("make_ext", [q5, cyclic_cubic], ids=["q5", "cubic"])
def test_mat_row_insert_matches_the_elementwise_reference(make_ext):
    ext = make_ext()
    rng = random.Random(12)

    def element():
        if rng.random() < 0.3:
            return ext.zero()
        return ext.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(ext.degree)])

    for width in (3, 6):
        span, reference = IncrementalSpan(ext, width), UnfusedSpan(ext, width)
        vectors = []
        for _ in range(2 * width):
            if vectors and rng.random() < 0.3:  # a combination of earlier vectors, which adds nothing
                u, v, c = rng.choice(vectors), rng.choice(vectors), element()
                vec = [a + c * b for a, b in zip(u, v)]
            else:
                vec = [element() for _ in range(width)]
            vectors.append(vec)
            assert span.insert(Mat(ext, [vec]).num[0]) == reference.insert(vec)
            pivot = ext._make(span.pivot, 1)
            assert [[ext._make(e, 1) / pivot for e in row] for row in span.rows] == reference.rows
            assert span.pivots == reference.pivots
        assert span.dim == width


@pytest.mark.parametrize("make_ext", [q5, qm7, cyclic_cubic], ids=["q5", "qm7", "cubic"])
def test_every_span_entry_is_a_minor_of_the_inserted_rows(make_ext):
    # pivot is the minor of the independent numerator rows on the pivot
    # columns, and entry j of row k is that minor with pivots[k] replaced by
    # j; all lie in Z[t]/(m), so every division in insert is exact
    ext = make_ext()
    rng = random.Random(f"span-minors-{ext.min_poly}")

    def minor(rows, cols):
        return leibniz_determinant(Mat(ext, [[row[c] for c in cols] for row in rows]))

    for width in (3, 5):
        span, kept = IncrementalSpan(ext, width), []
        for step in range(width + 3):
            if step % 3 == 2:  # a combination of earlier rows, which adds nothing
                coeffs = [property_entry(ext, rng) for _ in kept]
                vec = [sum((c * ext._make(row[j], 1) for c, row in zip(coeffs, kept)), ext.zero())
                       for j in range(width)]
            else:
                vec = [property_entry(ext, rng) for _ in range(width)]
            row = Mat(ext, [vec]).num[0]
            if span.insert(row):
                kept.append(row)
            else:  # dependent: every minor that extends the pivot minor by row vanishes
                assert all(not minor(kept + [row], span.pivots + [j]) for j in range(width) if j not in span.pivots)
            assert ext._make(span.pivot, 1) == minor(kept, span.pivots)
            for k, stored in enumerate(span.rows):
                for j in range(width):
                    cols = span.pivots[:k] + [j] + span.pivots[k + 1:]
                    assert ext._make(stored[j], 1) == minor(kept, cols)
        assert span.dim == len(kept)


def fraction_free_rows(ext, rows):
    """(stored rows, pivot columns, pivot) of IncrementalSpan after inserting
    rows of FieldElements, recomputed from scratch by fraction-free
    Gauss-Jordan that updates every column of every stored row."""
    stored, pivots, pivot = [], [], ext.one()
    for row in rows:
        v = [pivot * x for x in row]
        for u, c in zip(stored, pivots):
            v = [a - row[c] * b for a, b in zip(v, u)]
        lead = next((j for j, e in enumerate(v) if e), None)
        if lead is not None:
            stored = [[(v[lead] * a - u[lead] * b) / pivot for a, b in zip(u, v)] for u in stored] + [v]
            pivots, pivot = pivots + [lead], v[lead]
    return stored, pivots, pivot


@pytest.mark.parametrize("make_ext", [q5, qm7, cyclic_cubic], ids=["q5", "qm7", "cubic"])
def test_the_stored_rows_match_a_from_scratch_fraction_free_recomputation(make_ext):
    # insert computes only the non-pivot columns; the recomputation computes all
    ext = make_ext()
    rng = random.Random(f"span-from-scratch-{ext.min_poly}")
    for width in (2, 4, 6):
        span, inserted = IncrementalSpan(ext, width), []
        for step in range(width + 4):
            if step % 4 == 3:  # a combination of earlier rows, or 0: rank-deficient
                coeffs = [property_entry(ext, rng) for _ in inserted]
                vec = [sum((c * row[j] for c, row in zip(coeffs, inserted)), ext.zero()) for j in range(width)]
            else:  # zero entries move the pivot columns off the diagonal
                vec = [property_entry(ext, rng) for _ in range(width)]
            row = Mat(ext, [vec]).num[0]
            inserted.append([ext._make(e, 1) for e in row])
            span.insert(row)
            stored, pivots, pivot = fraction_free_rows(ext, inserted)
            assert span.pivots == pivots and ext._make(span.pivot, 1) == pivot
            assert [[ext._make(e, 1) for e in u] for u in span.rows] == stored
        assert span.dim < len(inserted)


# ---------------------------------------------------------------------------
# restriction of scalars


def test_rational_vector_round_trip():
    ext = qm7()
    rng = random.Random(53)
    a = random_mat(ext, 2, 3, rng)
    v = mat_to_rational_vector(a)
    assert rational_vector_to_mat(ext, v, 2, 3) == a


def test_sylvester_space_contains_constructed_conjugator():
    rng = random.Random(59)
    ext = q5()
    for _ in range(6):
        n = rng.randint(2, 3)
        x0 = random_invertible(ext, n, rng)
        x0_inv = inverse(x0)
        pairs = []
        for _ in range(2):
            a = random_mat(ext, n, n, rng)
            pairs.append((a, x0 * a * x0_inv))
        basis = kernel_of_linear_maps(
            [(lambda X, A=A, B=B: X * A - B * X) for A, B in pairs], ext, n, n
        )
        for m in basis:
            for a, b in pairs:
                assert m * a == b * m
        vecs = [mat_to_rational_vector(m) for m in basis]
        assert rational_in_span(vecs, mat_to_rational_vector(x0))


def exact_sylvester_space(pairs):
    """The L-basis of {X : X A_k = B_k X} by exact elimination over L, as
    solve_sylvester_space computed it before the modular lift: row (i, j) of
    the system is entry (i, j) of X A - B X, and the basis is the span's
    kernel, one matrix per free column."""
    a0, _ = pairs[0]
    ext, n = a0.ext, a0.nrows
    span = IncrementalSpan(ext, n * n)
    for a, b in pairs:
        for i in range(n):
            for j in range(n):
                row = [ext.zero()] * (n * n)
                for m in range(n):
                    row[i * n + m] += a.rows[m][j]
                    row[m * n + j] -= b.rows[i][m]
                span.insert(Mat(ext, [row]).num[0])
    return [Mat(ext, [v[i * n:(i + 1) * n] for i in range(n)]) for v in span_kernel(span)]


def take_primes(monkeypatch, insert=(), at=0):
    """Make solve_sylvester_space take the field's own stream of (prime,
    root orbit) entries with those in insert put in at position at, and
    record every prime it takes.  No lift here needs 40 primes, so the 41st
    fails the test instead of letting a broken lift run on."""
    taken = []
    stream = linalg._split_primes

    def recorded(ext):
        own = stream(ext)
        for entry in itertools.chain(itertools.islice(own, at), insert, own):
            if len(taken) == 40:
                raise AssertionError("the lift took 40 primes")
            taken.append(entry[0])
            yield entry

    monkeypatch.setattr(linalg, "_split_primes", recorded)
    return taken


def conjugate(rep, y):
    y_inv = inverse(y)
    return Representation(rep.group, rep.ext, [y * m * y_inv for m in rep.images])


def test_sylvester_space_is_an_l_basis_of_the_commutant():
    rng = random.Random(61)
    for ext in (qm7(), cyclic_cubic()):
        n = 3
        a = random_mat(ext, n, n, rng)
        basis = solve_sylvester_space([(a, a)])
        # the commutant of a generic matrix is L[a], of L-dimension n; a Q-basis
        # would have n * deg L elements
        assert len(basis) == n
        assert basis == exact_sylvester_space([(a, a)])
        span = IncrementalSpan(ext, n * n)
        for m in basis:
            assert m * a == a * m
            assert span.insert([e for row in m.num for e in row])


def cubic_cycle():
    """An absolutely irreducible rho over the cyclic cubic field, tau = 1:
    g -> diag(t, sigma(t), sigma^2(t)) and h -> the 3-cycle (1 2 3)."""
    ext = cyclic_cubic()
    t = ext.element([0, 1])
    group = GroupData.from_strings(["g", "h"], [], {"g": "g", "h": "h"})
    diag = Mat(ext, [[t, 0, 0], [0, t.galois(1), 0], [0, 0, t.galois(2)]])
    return Representation(group, ext, [diag, Mat(ext, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])])


def count_kernels(monkeypatch):
    """Record every modular kernel that solve_sylvester_space eliminates."""
    calls, solve = [], linalg._sylvester_kernel_mod_p
    monkeypatch.setattr(linalg, "_sylvester_kernel_mod_p", lambda *args: calls.append(args) or solve(*args))
    return calls


# per height, the number of split primes the lift takes, read off a run with
# primes of about 2^81.46
@pytest.mark.parametrize("build, height, primes", [
    pytest.param(build, height, primes, id=f"{name}-{height}")
    for name, build, heights in [("a5", build_a5, {3: 1, 30: 1, 100: 2, 1000: 2}),
                                 ("2a7", build_a7_double, {3: 1, 30: 2, 100: 2, 1000: 3}),
                                 ("cubic", cubic_cycle, {0: 1, 3: 1, 100: 2})]
    for height, primes in heights.items()
])
def test_modular_solve_matches_the_exact_solve_on_conjugates(build, height, primes, monkeypatch):
    rep = build()
    if height:
        rep = conjugate(rep, random_mat(rep.ext, rep.dim, rep.dim, random.Random(f"{height}"), span=height))
    pairs = twisted_images(rep)
    r = rep.ext.degree
    taken, kernels = take_primes(monkeypatch), count_kernels(monkeypatch)
    basis = solve_sylvester_space(pairs)
    assert basis == exact_sylvester_space(pairs)
    assert len(basis) == 1
    # the generic solve eliminates at every root of every prime it takes
    assert len(kernels) == r * len(taken)
    # from H = 100 on, X's coefficients outgrow one prime, so the
    # CRT path is taken
    assert len(taken) == primes and (primes > 1 or height < 100)
    # compute_X reads the last root's kernel off N(X) = lambda I
    taken.clear()
    kernels.clear()
    x, = basis
    lead = next(e for e in x.flatten() if e)
    assert compute_X(rep) == x * lead.inverse()
    assert len(kernels) == (r - 1) * len(taken) == (r - 1) * primes


def test_a_first_prime_with_a_larger_kernel_restarts_the_lift(monkeypatch):
    # 11 splits Q(sqrt5) (4^2 = 5 mod 11).  Mod 11, diag(1, 12) is the
    # identity, whose commutant is all of M_2; over L it is the diagonal
    # matrices.  The four matrices lifted from 11 are small, so they are
    # rebuilt at once, and only the exact check rejects them.
    ext = q5()
    a = Mat(ext, [[1, 0], [0, 12]])
    taken = take_primes(monkeypatch, [(11, (4, 7))])
    basis = solve_sylvester_space([(a, a)])
    assert basis == exact_sylvester_space([(a, a)]) == [Mat(ext, [[1, 0], [0, 0]]), Mat(ext, [[0, 0], [0, 1]])]
    assert taken[0] == 11 and len(taken) == 2


def test_a_first_prime_with_later_pivots_restarts_the_lift(monkeypatch):
    # X A = 0 is 11 X_i0 + X_i1 = 0 for each row i.  Over L the pivots are
    # X_00 and X_10; mod 11 the rows read X_i1 = 0, so the kernel has the
    # same size but the pivots X_01 and X_11.  The lift from 11 is rebuilt
    # at once, fails the exact check, and the next prime restarts the lift.
    ext = q5()
    a, zero = Mat(ext, [[11, 11], [1, 1]]), Mat(ext, [[0, 0], [0, 0]])
    taken = take_primes(monkeypatch, [(11, (4, 7))])
    basis = solve_sylvester_space([(a, zero)])
    assert basis == exact_sylvester_space([(a, zero)]) == [
        Mat(ext, [[Fraction(-1, 11), 1], [0, 0]]), Mat(ext, [[0, 0], [Fraction(-1, 11), 1]])]
    assert taken[0] == 11 and len(taken) == 2


def test_a_later_prime_with_a_larger_kernel_is_dropped(monkeypatch):
    # A = Y diag(1, 12) Y^-1 is the identity mod 11 too, and its commutant
    # Y diag(*, *) Y^-1 needs two primes (its 44-bit coefficients need a
    # modulus of 88 bits, one prime gives 82), between which 11 comes
    ext = q5()
    y = Mat(ext, [[[977, -640], [-512, 301]], [[13, 859], [-998, -701]]])
    a = y * Mat(ext, [[1, 0], [0, 12]]) * inverse(y)
    assert all(e.den % 11 for e in a.flatten())
    taken = take_primes(monkeypatch, [(11, (4, 7))], at=1)
    basis = solve_sylvester_space([(a, a)])
    assert basis == exact_sylvester_space([(a, a)])
    assert len(basis) == 2
    assert taken[1] == 11 and len(taken) == 3


def test_a_prime_in_an_entry_denominator_is_skipped(monkeypatch):
    rep = build_a5()
    p, _ = next(_split_primes(rep.ext))
    d = Mat(rep.ext, [[p, 0, 0], [0, 1, 0], [0, 0, 1]])
    pairs = twisted_images(conjugate(rep, d))
    assert any(e.den % p == 0 for a, b in pairs for e in a.flatten() + b.flatten())
    taken = take_primes(monkeypatch)
    assert solve_sylvester_space(pairs) == exact_sylvester_space(pairs)
    assert taken[0] == p and len(taken) > 1


@pytest.mark.parametrize("build", [build_c3, build_a5, build_a7_double], ids=["c3", "a5", "2a7"])
def test_the_split_primes_start_at_the_top_of_the_primality_range(build):
    # the stream starts just below _MR_LIMIT (about 2^81.46), the top of the
    # range is_prime certifies, so each prime is still three 30-bit digits
    (p, _), = itertools.islice(_split_primes(build().ext), 1)
    assert 2**80 < p < _MR_LIMIT and is_prime(p)


# ---------------------------------------------------------------------------
# the sparse echelon mod p and the shared-denominator reconstruction


def dense_insert_mod_p(echelon, v, p):
    """_insert_mod_p as it was with dense rows: pivot column -> the whole
    row, every entry reduced mod p at each pivot cleared."""
    for pcol, row in echelon.items():
        if f := v[pcol] % p:
            v = [(a - f * b) % p for a, b in zip(v, row)]
    lead = next((j for j, a in enumerate(v) if a % p), None)
    if lead is None:
        return False
    inv = pow(v[lead], -1, p)
    echelon[lead] = [a * inv % p for a in v]
    return True


def dense_sylvester_kernel_mod_p(reduced, n, p):
    """_sylvester_kernel_mod_p as it was with dense rows."""
    echelon = {}
    for a, b in zip(reduced[::2], reduced[1::2]):
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                for m in range(n):
                    row[i * n + m] += a[m * n + j]
                    row[m * n + j] -= b[i * n + m]
                dense_insert_mod_p(echelon, row, p)
    order = sorted(echelon, reverse=True)
    kernel = []
    for f in range(n * n):
        if f not in echelon:
            v = [0] * (n * n)
            v[f] = 1
            for pcol in order:
                v[pcol] = -sum(a * b for a, b in zip(echelon[pcol], v)) % p
            kernel.append(v)
    return tuple(order[::-1]), kernel


def random_monomial(ext, n, rng):
    """A permutation matrix with a random nonzero element in each of its 1s."""
    perm = rng.sample(range(n), n)
    return Mat(ext, [[ext.element([rng.choice([-2, -1, 1, 3])] + [rng.randint(-2, 2) for _ in range(ext.degree - 1)])
                      if j == perm[i] else 0 for j in range(n)] for i in range(n)])


def random_sylvester_pairs(ext, n, rng):
    """1 to 3 pairs (A, B), monomial or dense, with B = A (a commutant),
    B = Y A Y^-1 (a kernel of dimension at least 1) or B unrelated to A (in
    general an empty kernel)."""
    make = rng.choice([random_monomial, lambda ext, n, rng: random_mat(ext, n, n, rng)])
    kind = rng.choice(["commutant", "conjugate", "unrelated"])
    y = random_invertible(ext, n, rng)
    pairs = []
    for _ in range(rng.randint(1, 3)):
        a = make(ext, n, rng)
        if kind == "conjugate":
            pairs.append((a, y * a * inverse(y)))
        else:
            pairs.append((a, a if kind == "commutant" else make(ext, n, rng)))
    return pairs


@pytest.mark.parametrize("make_ext", [q5, cyclic_cubic], ids=["q5", "cubic"])
def test_sparse_echelon_matches_the_dense_reference(make_ext):
    ext = make_ext()
    rng = random.Random(71)
    (p, orbit), = itertools.islice(_split_primes(ext), 1)
    sizes = set()
    for n in (1, 2, 3, 4):
        for _ in range(8):
            mats = [m for pair in random_sylvester_pairs(ext, n, rng) for m in pair]
            for theta in orbit:
                reduced = [linalg._reduce_mod_p(m, p, theta) for m in mats]
                got = linalg._sylvester_kernel_mod_p(reduced, n, p)
                assert got == dense_sylvester_kernel_mod_p(reduced, n, p)
                sizes.add(len(got[1]))
            # row by row: the same answers and the same rows, and the
            # argument is left as it was
            sparse, dense = {}, {}
            for a, b in zip(reduced[::2], reduced[1::2]):
                for v in (a, b, [x - y for x, y in zip(a, b)], [x + 3 * y for x, y in zip(a, b)]):
                    before = list(v)
                    assert linalg._insert_mod_p(sparse, v, p) == dense_insert_mod_p(dense, v, p)
                    assert v == before
            assert sorted(sparse) == sorted(dense)
            for pcol, row in sparse.items():
                assert row[0] == (pcol, 1)
                assert row == [(j, x) for j, x in enumerate(dense[pcol]) if x]
    # an empty kernel and a kernel of dimension at least 2 were both met
    assert 0 in sizes and max(sizes) >= 2


@pytest.mark.parametrize("build, inserted", [(build_c3, 0), (build_a5, 13), (build_a7_double, 23)],
                         ids=["c3", "a5", "2a7"])
def test_modular_ranks_match_the_dense_echelon(build, inserted, monkeypatch):
    rep = build()
    p, root = _modular_root(rep.ext, 1)
    burnside = rep_module._burnside_dim_mod_p(rep, p, root)
    sparse, added = linalg._insert_mod_p, []
    monkeypatch.setattr(linalg, "_insert_mod_p", lambda *args: added.append(sparse(*args)) or added[-1])
    ident = Mat.identity(rep.ext, rep.dim)
    for m in [*rep.images, *(m - ident for m in rep.images)]:
        p_m, root_m = _modular_root(rep.ext, m.den)
        flat, echelon = linalg._reduce_mod_p(m, p_m, root_m), {}
        rank = sum(dense_insert_mod_p(echelon, flat[i:i + m.ncols], p_m) for i in range(0, len(flat), m.ncols))
        added.clear()
        try:
            linalg.require_invertible(m)
        except Singular:
            assert rank < m.nrows
        assert sum(added) == rank
    # the intertwiner's system at the first prime: once its rank is n^2 - 1,
    # the rows left (1 of c3's 1, 5 of A5's 18, 9 of 2.A7's 32) are only
    # tested against its one kernel vector
    reduced = [linalg._reduce_mod_p(m, p, root) for pair in twisted_images(rep) for m in pair]
    added.clear()
    got = linalg._sylvester_kernel_mod_p(reduced, rep.dim, p)
    assert got == dense_sylvester_kernel_mod_p(reduced, rep.dim, p)
    assert len(got[1]) == 1 and len(added) == inserted
    monkeypatch.setattr(rep_module, "_insert_mod_p", dense_insert_mod_p)
    assert rep_module._burnside_dim_mod_p(rep, p, root) == burnside


def wang_reference(u, modulus):
    """The rational a/b = u mod modulus with |a|, b <= sqrt(modulus / 2), by
    the extended Euclidean algorithm, or None."""
    bound = math.isqrt(modulus // 2)
    (r0, s0), (r1, s1) = (modulus, 0), (u % modulus, 1)
    while r1 > bound:
        q = r0 // r1
        (r0, s0), (r1, s1) = (r1, s1), (r0 - q * r1, s0 - q * s1)
    if not 0 < abs(s1) <= bound or math.gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def reconstruct_by_reference(ext, n, modulus, residues):
    """_reconstruct_matrices with Wang's reconstruction on every coefficient."""
    coeffs = [wang_reference(u, modulus) for u in residues]
    if None in coeffs:
        return None
    r = ext.degree
    entries = [ext.element(coeffs[k:k + r]) for k in range(0, len(coeffs), r)]
    return [Mat(ext, [entries[k + i:k + i + n] for i in range(0, n * n, n)]) for k in range(0, len(entries), n * n)]


def residues_of(values, modulus):
    return [q.numerator * pow(q.denominator, -1, modulus) % modulus for q in values]


@pytest.mark.parametrize("make_ext", [q5, cyclic_cubic], ids=["q5", "cubic"])
def test_shared_denominator_reconstruction_matches_wang(make_ext, monkeypatch):
    ext = make_ext()
    rng = random.Random(73)
    primes = [p for p, _ in itertools.islice(_split_primes(ext), 3)]
    for count in (1, 3):
        modulus = math.prod(primes[:count])
        for n in (1, 2, 3):
            for den_span in (1, 12, 10**6):
                size = n * n * ext.degree
                values = [Fraction(rng.randint(-50, 50), rng.randint(1, den_span)) if rng.random() < 0.7 else Fraction(0)
                          for _ in range(2 * size)]
                residues = residues_of(values, modulus)
                got = linalg._reconstruct_matrices(ext, n, modulus, residues)
                assert got == reconstruct_by_reference(ext, n, modulus, residues)
                assert [c for m in got for row in m.rows for e in row for c in e.coeffs] == values

    modulus = primes[0]
    bound = math.isqrt(modulus // 2)
    n = 2
    # coefficients over the denominator found so far, negative ones too,
    # need no Euclid
    wang, calls = linalg._rational_reconstruction, []
    monkeypatch.setattr(linalg, "_rational_reconstruction", lambda *args: calls.append(args) or wang(*args))
    values = [Fraction(-3), Fraction(5, 6), Fraction(-1, 3)] + [Fraction(k, 6) for k in range(n * n * ext.degree - 3)]
    got = linalg._reconstruct_matrices(ext, n, modulus, residues_of(values, modulus))
    assert got == reconstruct_by_reference(ext, n, modulus, residues_of(values, modulus))
    assert len(calls) == 1  # 5/6, which sets the denominator 6
    zeros = [Fraction(0)] * (n * n * ext.degree - 3)
    # d1, d2 <= bound with d1 d2 > bound: after 1/d1 and -1/d2 the running
    # denominator d1 d2 exceeds bound, and u d1 d2 = 1 for the residue u of
    # 1/(d1 d2), which is out of bounds, so Wang gives something else; d1
    # and d2 are consecutive odd numbers just above sqrt(bound), so coprime
    d1 = math.isqrt(bound) + 1 | 1
    d2 = d1 + 2
    values = [Fraction(1, d1), Fraction(-1, d2), Fraction(1, d1 * d2)] + zeros
    residues = residues_of(values, modulus)
    assert max(d1, d2) <= bound < d1 * d2 and wang_reference(residues[2], modulus) != values[2]
    assert linalg._reconstruct_matrices(ext, n, modulus, residues) == reconstruct_by_reference(ext, n, modulus, residues)
    # the integer bound + 1 has no reconstruction yet
    residues = residues_of([Fraction(0), Fraction(bound + 1), Fraction(0)] + zeros, modulus)
    assert reconstruct_by_reference(ext, n, modulus, residues) is None
    assert linalg._reconstruct_matrices(ext, n, modulus, residues) is None
