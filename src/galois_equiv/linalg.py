"""Exact matrices over a cyclic extension, plus a dense rational reference.

A matrix is integer numerator polynomials over one denominator for all its
entries (Cohen's element form, 4.2, lifted to matrices).  A product sums the
unreduced Z[t] products over den_A den_B, reduces each entry mod m and takes
one gcd for the whole matrix; for r = 2 the entry loop is fused.  The one
elimination over L (inverse, hilbert90, burnside_dim) is IncrementalSpan:
fraction-free Gauss-Jordan (Bareiss) on integer numerators.  The intertwiner
space X A = B X in its n^2 unknowns is instead solved over F_p at the
field's split primes, lifted by CRT and rational reconstruction, and
certified exactly.  The echelon form mod p is sparse, each row the list of
its nonzero (column, value) pairs, since a condition row has at most 2n - 1
nonzeros; the same routine grows rep.burnside_dim's modular span and
certifies require_invertible.  Reconstruction writes each matrix's integer
numerators over one denominator, running Euclid only for the coefficients
that the denominator found so far does not explain.  The rational section,
a dense reduced echelon form over Q and a restriction-of-scalars kernel on
it, has no caller in the package: the tests keep the kernel as a dense
oracle for the induced commutant.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm
from operator import mul
from typing import Callable, Sequence

from .errors import Singular
from .field import CyclicExtension, FieldElement, _conjugate_product, _modular_root, _reduce_sum, _split_primes


class Mat:
    """A dense matrix over L: the numerators num[i][j] (tuples of r integers
    in the basis 1, t, ..., t^(r-1)) of its entries over one denominator
    den > 0, with gcd(den, every numerator) = 1.  So equal matrices have
    equal (num, den): a prime dividing den and every numerator would divide
    the entry whose denominator set den.  rows, [i, j] and flatten() build
    the entries as FieldElements on each call."""

    __slots__ = ("ext", "nrows", "ncols", "num", "den")

    def __init__(self, ext: CyclicExtension, rows: Sequence[Sequence]):
        elements = tuple(
            tuple(e if isinstance(e, FieldElement) and e.ext is ext else ext.element(e) for e in row)
            for row in rows
        )
        if any(len(r) != len(elements[0]) for r in elements):
            raise ValueError("ragged rows")
        den = lcm(*(e.den for row in elements for e in row))
        num = tuple(tuple(tuple(c * (den // e.den) for c in e.num) for e in row) for row in elements)
        self._set(ext, num, den)

    def _set(self, ext: CyclicExtension, num: tuple, den: int):
        self.ext, self.num, self.den = ext, num, den
        self.nrows = len(num)
        self.ncols = len(num[0]) if num else 0

    @staticmethod
    def _of(ext: CyclicExtension, num, den: int) -> "Mat":
        """num / den, with the gcd of den and every numerator divided out."""
        if den != 1:
            g = gcd(den, *chain.from_iterable(chain.from_iterable(num)))
            if g != 1:
                num = [[tuple(c // g for c in e) for e in row] for row in num]
                den //= g
        out = Mat.__new__(Mat)
        out._set(ext, tuple(map(tuple, num)), den)
        return out

    @property
    def rows(self) -> tuple[tuple[FieldElement, ...], ...]:
        make, den = self.ext._make, self.den
        return tuple(tuple(make(e, den) for e in row) for row in self.num)

    @staticmethod
    def identity(ext: CyclicExtension, n: int) -> "Mat":
        zero = ext._zero_num
        one = (1,) + zero[1:]
        return Mat._of(ext, [[one if i == j else zero for j in range(n)] for i in range(n)], 1)

    def _plus(self, other: "Mat", sign: int) -> "Mat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        g = gcd(self.den, other.den)
        fa, fb = other.den // g, sign * (self.den // g)
        num = [
            [tuple(x * fa + y * fb for x, y in zip(a, b)) for a, b in zip(ra, rb)]
            for ra, rb in zip(self.num, other.num)
        ]
        return Mat._of(self.ext, num, self.den * fa)

    def __add__(self, other: "Mat") -> "Mat":
        return self._plus(other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._plus(other, -1)

    def __neg__(self) -> "Mat":
        return Mat._of(self.ext, [[tuple(-c for c in e) for e in row] for row in self.num], self.den)

    def __mul__(self, other):
        """A B sums the unreduced Z[t] products over den_A den_B, reduces each
        entry mod m and takes one gcd; a scalar multiplies every entry."""
        ext = self.ext
        if not isinstance(other, Mat):
            scalar = ext.element(other)
            num = [[_reduce_sum(ext, ((e, scalar.num),)) if any(e) else e for e in row] for row in self.num]
            return Mat._of(ext, num, self.den * scalar.den)
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        cols = list(zip(*other.num))
        if ext.degree == 2:
            # t^2 = -m1 t - m0
            m0, m1 = ext._m_coeffs
            num = []
            for row in self.num:
                out = []
                for col in cols:
                    c0 = c1 = c2 = 0
                    for (a0, a1), (b0, b1) in zip(row, col):
                        c0 += a0 * b0
                        c1 += a0 * b1 + a1 * b0
                        c2 += a1 * b1
                    out.append((c0 - m0 * c2, c1 - m1 * c2))
                num.append(out)
        else:
            num = [[_reduce_sum(ext, zip(row, col)) for col in cols] for row in self.num]
        return Mat._of(ext, num, self.den * other.den)

    __rmul__ = __mul__  # scalars commute with L-matrices

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.ext == other.ext
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __getitem__(self, ij):
        i, j = ij
        return self.ext._make(self.num[i][j], self.den)

    def galois(self, i: int = 1) -> "Mat":
        """Apply sigma^i: each numerator times each column of sigma^i's table."""
        cols, tden = self.ext._sigma_tables[i % self.ext.degree]
        num = [[tuple(sum(map(mul, e, col)) for col in cols) for e in row] for row in self.num]
        return Mat._of(self.ext, num, self.den * tden)

    def is_identity(self) -> bool:
        return self == Mat.identity(self.ext, self.nrows)

    def is_scalar(self) -> bool:
        d, zero = self.num[0][0], self.ext._zero_num
        return all(e == (d if i == j else zero) for i, row in enumerate(self.num) for j, e in enumerate(row))

    def flatten(self) -> list[FieldElement]:
        return [e for row in self.rows for e in row]

    def __repr__(self):
        body = "; ".join(", ".join(repr(e) for e in row) for row in self.rows)
        return f"Mat[{body}]"


def twisted_norm_chain(a: Mat) -> list[Mat]:
    """B_0 = I and B_(i+1) = sigma(B_i) A up to B_r, for a square matrix A:
    B_i is sigma^(i-1)(A) ... sigma(A) A, so B_r is the twisted norm of A."""
    if a.nrows != a.ncols:
        raise ValueError("norm of a non-square matrix")
    bs = [Mat.identity(a.ext, a.nrows), a]
    while len(bs) <= a.ext.degree:
        bs.append(bs[-1].galois() * a)
    return bs


def matrix_norm(a: Mat) -> Mat:
    """sigma^(r-1)(A) ... sigma(A) A, the twisted norm of a square matrix."""
    return twisted_norm_chain(a)[-1]


class IncrementalSpan:
    """An L-subspace of L^width in fraction-free Gauss-Jordan form (Bareiss,
    Math. Comp. 22, 1968) over Z[t]/(m): each row is 0 at the other rows'
    pivot columns and pivot at its own, and pivot, like every entry, is a
    minor of the inserted rows (on the pivot columns, in insertion order)."""

    def __init__(self, ext: CyclicExtension, width: int):
        self.ext, self.width = ext, width
        self.rows: list[list[tuple[int, ...]]] = []
        self.pivots: list[int] = []
        self.pivot = (1,) + ext._zero_num[1:]

    def insert(self, row: Sequence[tuple[int, ...]]) -> bool:
        """Add a row of numerators over one denominator, as in Mat.num, and
        return whether the dimension grew: v = pivot * row - sum row[c] u, and
        for p' at v's first nonzero column c, each u := (p' u - u[c] v) / pivot.
        v is 0 at the old pivot columns, and u is p' at its own and 0 at the others and at c."""
        ext, p, zero, done = self.ext, self.pivot, self.ext._zero_num, set(self.pivots)
        terms = [(p, row)] + [(tuple(-x for x in row[c]), u) for u, c in zip(self.rows, self.pivots) if any(row[c])]
        v = [zero if j in done else _reduce_sum(ext, ((f, u[j]) for f, u in terms)) for j in range(self.width)]
        lead = next((j for j, e in enumerate(v) if any(e)), None)
        if lead is None:
            return False
        # a minor e over p is e c / d, for c the numerator of sigma(p) ... sigma^(r-1)(p) and d = p c in Z
        c = _conjugate_product(ext._make(p, 1)).num
        d, scale = _reduce_sum(ext, ((p, c),))[0], _reduce_sum(ext, ((v[lead], c),))
        rest = [j for j in range(self.width) if j not in done and j != lead]
        for k, (u, own) in enumerate(zip(self.rows, self.pivots)):
            f = _reduce_sum(ext, ((tuple(-x for x in u[lead]), c),))
            new = [zero] * self.width
            new[own] = v[lead]
            for j in rest:
                new[j] = tuple(x // d for x in _reduce_sum(ext, ((scale, u[j]), (f, v[j]))))
            self.rows[k] = new
        self.rows.append(v)
        self.pivots.append(lead)
        self.pivot = v[lead]
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)


def inverse(a: Mat) -> Mat:
    """A^-1 from the span of the rows of [num A | I]; raises Singular when A
    is not square or its rank is deficient.  The rows are independent, so
    their pivots are n distinct columns, the first n exactly when A is
    invertible; sorted by pivot, the rows are then pivot [I | num(A)^-1], so
    A^-1 is the right half times den / pivot, one field inverse."""
    if a.nrows != a.ncols:
        raise Singular("only square matrices are invertible")
    ext, n = a.ext, a.nrows
    span = IncrementalSpan(ext, 2 * n)
    for row, e in zip(a.num, Mat.identity(ext, n).num):
        span.insert(row + e)
    if sorted(span.pivots) != list(range(n)):
        raise Singular("matrix is singular")
    by_pivot = dict(zip(span.pivots, span.rows))
    return Mat._of(ext, [by_pivot[i][n:] for i in range(n)], 1) * ext._make(span.pivot, a.den).inverse()


def require_invertible(a: Mat) -> None:
    """Raise Singular, as inverse(A) does, unless A is invertible.  t -> a
    root of m mod a split prime p is a ring map, so it only lowers the rank:
    rank n mod p certifies det A != 0 with no elimination over L.  Otherwise
    inverse(A)'s span decides, since p may merely divide det A."""
    echelon: dict[int, list[int]] = {}
    p, root = _modular_root(a.ext, a.den)
    flat, n = _reduce_mod_p(a, p, root), a.ncols
    rank = sum(_insert_mod_p(echelon, flat[i:i + n], p) for i in range(0, a.nrows * n, n))
    if rank < a.nrows or a.nrows != a.ncols:
        inverse(a)


# ---------------------------------------------------------------------------
# rational engine


def rational_elimination(rows: Sequence[Sequence], ncols: int):
    """Reduced echelon form over Q of dense rows of ncols rationals.

    Rows are inserted one at a time, each kept as coprime integers, positive
    at its pivot: clearing column c of a by the row b takes b[c] a - a[c] b,
    divided by its content.
    Returns (mat, pivot_cols, pivot_rows): the reduced rows in pivot order,
    each 0 at the other pivot columns, pivot_cols ascending, pivot_rows[k] = k.
    """
    reduced: list[list[int]] = []
    pivots: list[int] = []
    for vec in rows:
        den = lcm(*(x.denominator for x in vec))
        row = [x.numerator * (den // x.denominator) for x in vec]
        for prow, pcol in zip(reduced, pivots):
            if f := row[pcol]:
                row = _primitive([prow[pcol] * a - f * b for a, b in zip(row, prow)])
        lead = next((j for j in range(ncols) if row[j]), None)
        if lead is None:
            continue
        row = _primitive(row if row[lead] > 0 else [-a for a in row])
        for k, prow in enumerate(reduced):
            if f := prow[lead]:
                reduced[k] = _primitive([row[lead] * a - f * b for a, b in zip(prow, row)])
        reduced.append(row)
        pivots.append(lead)
    mat = [row for _, row in sorted(zip(pivots, reduced))]
    return mat, sorted(pivots), list(range(len(mat)))


def _primitive(row: list[int]) -> list[int]:
    """row divided by its content."""
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def rational_rank(rows: Sequence[Sequence[Fraction]], ncols: int) -> int:
    _, piv_cols, _ = rational_elimination(rows, ncols)
    return len(piv_cols)


def rational_kernel(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of {v : R v = 0}: for each free column f, in order, the vector
    that is 1 at f and 0 at the other free columns, read off the reduced rows."""
    mat, piv_cols, _ = rational_elimination(rows, ncols)
    basis = []
    for f in range(ncols):
        if f not in piv_cols:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for row, pcol in zip(mat, piv_cols):
                v[pcol] = Fraction(-row[f], row[pcol])
            basis.append(v)
    return basis


def rational_in_span(vectors: Sequence[Sequence[Fraction]], target: Sequence[Fraction]) -> bool:
    vectors = list(vectors)
    return rational_rank(vectors + [list(target)], len(target)) == rational_rank(vectors, len(target))


# ---------------------------------------------------------------------------
# restriction of scalars


def mat_to_rational_vector(a: Mat) -> list[Fraction]:
    """Row-major rational coordinates: entry (i,j) contributes its r coefficients."""
    return [c for row in a.rows for e in row for c in e.coeffs]


def rational_vector_to_mat(ext: CyclicExtension, vec: Sequence[Fraction], nrows: int, ncols: int) -> Mat:
    r = ext.degree
    return Mat(ext, [[vec[(i * ncols + j) * r:(i * ncols + j + 1) * r] for j in range(ncols)] for i in range(nrows)])


def kernel_of_linear_maps(maps: Sequence[Callable[[Mat], Mat]], ext: CyclicExtension, nrows: int, ncols: int) -> list[Mat]:
    """Q-basis of the joint kernel of Q-linear maps on nrows x ncols matrices over L.

    The maps are evaluated on the t^k E_ij basis, in (i, j, k) order, and
    the stacked rational system is solved by rational_kernel.
    """
    nunk = nrows * ncols * ext.degree
    columns = []
    for u in range(nunk):
        basis_mat = rational_vector_to_mat(ext, [int(u == v) for v in range(nunk)], nrows, ncols)
        columns.append([c for f in maps for c in mat_to_rational_vector(f(basis_mat))])
    kern = rational_kernel(list(zip(*columns)), nunk)
    return [rational_vector_to_mat(ext, v, nrows, ncols) for v in kern]


def solve_sylvester_space(pairs: Sequence[tuple[Mat, Mat]]) -> list[Mat]:
    """L-basis of {X : X A_k = B_k X for all k}: the kernel of the
    conditions' reduced echelon form, one matrix per free column f, with 1 at
    f and 0 at the other free columns.

    The conditions are L-linear in the n^2 entries of X: entry (i, j) of
    X A - B X is sum_m X_im A_mj - sum_m B_im X_mj.  They are solved over F_p
    and lifted, with no budget:

    - Each split prime p of L (field._split_primes) that divides no entry
      denominator gives r ring maps t -> theta_i to F_p.  Under each, the
      system's kernel is taken in reduced echelon form mod p; a prime whose
      maps disagree on the pivot columns is skipped.  A ring map only lowers
      the rank, so each kernel is at least as large as over L, and an empty
      one proves the space is 0.
    - The r images of each kernel entry are interpolated to its coefficients
      in 1, t, ..., t^(r-1) (inverse Vandermonde mod p) and combined by CRT
      with the earlier primes that had the same pivots.  A prime with fewer
      free columns, or as many with earlier pivots (those over L are the
      earliest possible), restarts the lift; any other prime is dropped.
    - Each coefficient is rebuilt by rational reconstruction (Wang, Guy and
      Davenport, "p-adic reconstruction of rational numbers", 1982), which
      succeeds once the modulus exceeds twice the square of its height.  The
      matrices are accepted only when each satisfies X A_k = B_k X exactly.
      They are then independent solutions, at least dim_L of them, so an
      L-basis.  Only finitely many primes are bad, so the loop ends.
    - The accepted basis is the reduced-echelon one over L even when its
      prime's pivots were later than those over L: the matrix for free
      column f is 0 at the pivots right of f, so each matrix's last nonzero
      entry is at its own free column.  The set of last nonzero positions of
      the space's nonzero vectors is fixed by the space, so these free
      columns are those over L, and a solution is fixed by its values there.
    """
    if not pairs:
        raise ValueError("need at least one pair")
    ext = pairs[0][0].ext
    n = pairs[0][0].nrows
    mats = [m for pair in pairs for m in pair]
    den = lcm(*(m.den for m in mats))
    lift = None  # (kernel size, pivots), modulus, coefficient residues
    for p, orbit in _split_primes(ext):
        if den % p == 0:
            continue
        images = []
        for theta in orbit:
            pivots, kernel = _sylvester_kernel_mod_p([_reduce_mod_p(m, p, theta) for m in mats], n, p)
            if not kernel:
                return []
            images.append((pivots, kernel))
        key = (len(images[0][1]), images[0][0])
        if any(pivots != key[1] for pivots, _ in images):
            continue
        # coefficient k of an entry is sum_i V^-1[k][i] (its image under t -> theta_i)
        vinv = _interpolation_mod_p(orbit, p)
        residues = [
            sum(map(mul, row, column)) % p
            for vectors in zip(*(kernel for _, kernel in images))
            for column in zip(*vectors)
            for row in vinv
        ]
        if lift is None or key < lift[0]:
            lift = (key, p, residues)
        elif key == lift[0]:
            _, modulus, old = lift
            scale = pow(modulus, -1, p)
            lift = (key, modulus * p, [u + modulus * ((x - u) * scale % p) for u, x in zip(old, residues)])
        else:
            continue
        basis = _reconstruct_matrices(ext, n, *lift[1:])
        if basis is not None and all(x * a == b * x for x in basis for a, b in pairs):
            return basis


def _sylvester_kernel_mod_p(reduced: list[list[int]], n: int, p: int) -> tuple[tuple[int, ...], list[list[int]]]:
    """(pivot columns, kernel basis) mod p of the conditions X A = B X, for
    the flattened images of A_1, B_1, A_2, B_2, ... mod p.  The basis has one
    vector per free column f, in column order, 1 at f and 0 at the other free
    columns."""
    echelon: dict[int, list[tuple[int, int]]] = {}
    for a, b in zip(reduced[::2], reduced[1::2]):
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                for m in range(n):
                    row[i * n + m] += a[m * n + j]
                    row[m * n + j] -= b[i * n + m]
                _insert_mod_p(echelon, row, p)
    # each row is 1 at its pivot and 0 left of it, so the pivot entries follow
    # by back-substitution from the right
    order = sorted(echelon, reverse=True)
    kernel = []
    for f in range(n * n):
        if f not in echelon:
            v = [0] * (n * n)
            v[f] = 1
            for pcol in order:
                v[pcol] = -sum(v[j] * x for j, x in echelon[pcol]) % p
            kernel.append(v)
    return tuple(order[::-1]), kernel


def _reduce_mod_p(a: Mat, p: int, root: int) -> list[int]:
    """The entries of A, row-major, each num(t)/den sent to num(root)/den in
    F_p, for p not dividing den."""
    powers = [pow(root, k, p) for k in range(a.ext.degree)]
    inv = pow(a.den, -1, p)
    return [sum(map(mul, e, powers)) * inv % p for row in a.num for e in row]


def _insert_mod_p(echelon: dict[int, list[tuple[int, int]]], v: Sequence[int], p: int) -> bool:
    """Reduce a copy of v mod p against an echelon form (pivot column -> the
    row's nonzero (column, value) pairs, the first (pivot, 1)) and add it as
    a row if it is not 0 then; returns whether it was added.  The rows are
    taken in increasing pivot order: a row is 0 left of its pivot, so clearing
    column c touches only columns >= c.  The pivots are those of the reduced
    echelon form of the rows inserted, as any echelon form of a row space has
    the same leading columns."""
    v = list(v)
    for pcol in sorted(echelon):
        if f := v[pcol] % p:
            for j, x in echelon[pcol]:
                v[j] -= f * x
    lead = next((j for j, a in enumerate(v) if a % p), None)
    if lead is None:
        return False
    inv = pow(v[lead], -1, p)
    echelon[lead] = [(j, x) for j, a in enumerate(v[lead:], lead) if (x := a * inv % p)]
    return True


def _interpolation_mod_p(orbit: Sequence[int], p: int) -> list[list[int]]:
    """The inverse mod p of the Vandermonde matrix V[i][k] = theta_i^k: its
    column i holds the coefficients of the Lagrange polynomial that is 1 at
    theta_i and 0 at the other roots."""
    columns = []
    for i, ti in enumerate(orbit):
        poly, scale = [1], 1
        for j, tj in enumerate(orbit):
            if j != i:
                poly = [(a - tj * b) % p for a, b in zip([0] + poly, poly + [0])]
                scale = scale * (ti - tj) % p
        inv = pow(scale, -1, p)
        columns.append([c * inv % p for c in poly])
    return [list(row) for row in zip(*columns)]


def _reconstruct_matrices(ext: CyclicExtension, n: int, modulus: int, residues: list[int]) -> list[Mat] | None:
    """The n x n matrices whose entries' coefficients are the rational
    reconstructions of residues (matrix by matrix, row-major, r coefficients
    per entry), or None when a residue has no reconstruction yet.

    den is the lcm of the denominators found so far in a matrix.  When
    den <= bound and the symmetric residue w of u den has |w| <= bound, w/den
    is the coefficient with no Euclid: it is the unique reconstruction, as
    2 bound^2 < modulus."""
    r = ext.degree
    bound, half = isqrt(modulus // 2), modulus // 2
    size = n * n * r
    basis = []
    for k in range(0, len(residues), size):
        den, coeffs = 1, []
        for u in residues[k:k + size]:
            w = (u * den + half) % modulus - half
            if den <= bound and -bound <= w <= bound:
                coeffs.append((w, den))
                continue
            q = _rational_reconstruction(u, modulus, bound)
            if q is None:
                return None
            coeffs.append(q)
            den = lcm(den, q[1])
        num = [tuple(a * (den // b) for a, b in coeffs[e:e + r]) for e in range(0, size, r)]
        basis.append(Mat._of(ext, [num[i:i + n] for i in range(0, n * n, n)], den))
    return basis


def _rational_reconstruction(u: int, modulus: int, bound: int) -> tuple[int, int] | None:
    """(a, b) with a = b u mod modulus, |a| <= bound, 0 < b <= bound and
    gcd(a, b) = 1, or None; unique when 2 bound^2 < modulus.  The extended
    Euclidean algorithm on (modulus, u) stops at the first remainder at most
    bound."""
    r0, r1, t0, t1 = modulus, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if not 0 < abs(t1) <= bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)
