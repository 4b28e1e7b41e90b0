"""Generate the 2.A7 fixture: a degree-4 representation over Q[sqrt(-7)].

Construction.  A7 permutes the coordinates of Q^7 and preserves the sum-zero
subspace V (dimension 6) with the standard quadratic form.  The even Clifford
algebra C0(V) has dimension 32 over Q and center Q[z] with z^2 = -7 (z is the
volume element of an orthogonal basis).  Each even isometry factors into an
even number of reflections (Cartan-Dieudonne), and the product of the
reflecting vectors, scaled by the square root of its spinor norm, is a spin
lift; A7 is perfect, so the spinor norm is always a rational square and the
lift is exact.  The lifts of (123) and (1234567) generate the double cover
2.A7 of order 5040 inside C0(V).

Averaging the powers of the order-7 lift gives a rank-one idempotent e, and
the left ideal C0(V) e is a 4-dimensional module over L = Q[z]; left
multiplication by the generators gives the matrices.  Conjugation by
e1 - e2 (a vector of the odd part, normalizing the even part) realizes the
outer automorphism of A7 swapping the two classes of 7-cycles; its images
are located as words in the generators by breadth-first search through all
5040 matrices.

Running this script regenerates src/galois_equiv/fixtures/2a7_4dim.json and
re-checks every claim with the library (relations, automorphism, Burnside
span, the norm-class invariant, and the Schur index).
"""

from __future__ import annotations

import json
import os
import sys
import time
from fractions import Fraction
from math import isqrt

from galois_equiv.field import CyclicExtension
from galois_equiv.linalg import Mat
from galois_equiv.rep import (
    GroupData,
    Representation,
    burnside_dim,
    check_automorphism,
    check_relations,
)
from galois_equiv.equivariance import lambda_invariant
from galois_equiv.induced import build_crossed_product, endomorphism_dim, schur_index

DIM = 6  # dimension of the sum-zero subspace of Q^7

# ---------------------------------------------------------------------------
# exact linear algebra over Q (small helpers local to this script)


def frac_solve(matrix, rhs):
    """Solve matrix * c = rhs exactly; matrix is square and invertible."""
    n = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


class SpanBasis:
    """Incremental row-reduced basis of a rational subspace."""

    def __init__(self, width):
        self.width = width
        self.rows = []  # (pivot index, reduced row)

    def _reduce(self, vec):
        vec = list(vec)
        for piv, row in self.rows:
            if vec[piv] != 0:
                f = vec[piv]
                vec = [a - f * b for a, b in zip(vec, row)]
        return vec

    def insert(self, vec):
        vec = self._reduce(vec)
        pivot = next((i for i, v in enumerate(vec) if v != 0), None)
        if pivot is None:
            return False
        inv = Fraction(1) / vec[pivot]
        vec = [v * inv for v in vec]
        self.rows.append((pivot, vec))
        return True

    @property
    def dim(self):
        return len(self.rows)


def sqrt_fraction(q):
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise AssertionError(f"{q} is not a rational square")
    return Fraction(rn, rd)


# ---------------------------------------------------------------------------
# the quadratic space: sum-zero vectors in Q^7, orthogonalized

E_BASIS = [[Fraction(int(i == j) - int(i + 1 == j)) for j in range(7)] for i in range(DIM)]


def dot7(x, y):
    return sum(a * b for a, b in zip(x, y))


def gram_schmidt():
    ws, norms = [], []
    for v in E_BASIS:
        w = list(v)
        for u, c in zip(ws, norms):
            f = dot7(w, u) / c
            w = [a - f * b for a, b in zip(w, u)]
        ws.append(w)
        norms.append(dot7(w, w))
    return ws, norms


W_BASIS, CVALS = gram_schmidt()
assert Fraction(7) == CVALS[0] * CVALS[1] * CVALS[2] * CVALS[3] * CVALS[4] * CVALS[5]


def coords_w(x7):
    """Coordinates of a sum-zero vector in the orthogonal basis."""
    return [dot7(x7, w) / c for w, c in zip(W_BASIS, CVALS)]


def form(x, y):
    """The bilinear form in orthogonal coordinates."""
    return sum(c * a * b for c, a, b in zip(CVALS, x, y))


# ---------------------------------------------------------------------------
# Clifford algebra of the orthogonal basis: sparse {bitmask: coefficient}

ONE = {0: Fraction(1)}


def cmul(a, b):
    out = {}
    for sa, ca in a.items():
        for sb, cb in b.items():
            mask, coeff = sa, ca * cb
            for i in range(DIM):
                if not (sb >> i) & 1:
                    continue
                if bin(mask >> (i + 1)).count("1") & 1:
                    coeff = -coeff
                if (mask >> i) & 1:
                    coeff *= CVALS[i]
                    mask &= ~(1 << i)
                else:
                    mask |= 1 << i
            acc = out.get(mask, Fraction(0)) + coeff
            if acc:
                out[mask] = acc
            elif mask in out:
                del out[mask]
    return out


def cadd(a, b):
    out = dict(a)
    for k, v in b.items():
        acc = out.get(k, Fraction(0)) + v
        if acc:
            out[k] = acc
        elif k in out:
            del out[k]
    return out


def cscale(a, f):
    f = Fraction(f)
    return {k: v * f for k, v in a.items()} if f else {}


def crev(a):
    out = {}
    for mask, c in a.items():
        k = bin(mask).count("1")
        out[mask] = -c if (k * (k - 1) // 2) & 1 else c
    return out


def cpow(a, e):
    out = ONE
    for _ in range(e):
        out = cmul(out, a)
    return out


def vec_cl(x):
    """A vector in orthogonal coordinates as a degree-one Clifford element."""
    return {1 << i: c for i, c in enumerate(x) if c}


def to_vec64(a):
    return [a.get(mask, Fraction(0)) for mask in range(64)]


# ---------------------------------------------------------------------------
# spin lifts of even permutation isometries


def perm_apply(p, x7):
    out = [Fraction(0)] * 7
    for i, c in enumerate(x7):
        out[p[i]] = c
    return out


def rotation_of_perm(p):
    """6x6 matrix of the permutation action in orthogonal coordinates."""
    return [coords_w(perm_apply(p, w)) for w in W_BASIS]  # columns


def reflect(u, x):
    f = 2 * form(x, u) / form(u, u)
    return [a - f * b for a, b in zip(x, u)]


def factor_into_reflections(columns):
    """Cartan-Dieudonne: the isometry sending basis vector i to columns[i]."""
    cols = [list(c) for c in columns]
    vectors = []
    for i in range(DIM):
        target = [Fraction(int(j == i)) for j in range(DIM)]
        if cols[i] != target:
            u = [a - b for a, b in zip(cols[i], target)]
            vectors.append(u)
            cols = [reflect(u, c) for c in cols]
    assert all(cols[i][j] == (i == j) for i in range(DIM) for j in range(DIM))
    return vectors


def spin_lift(p):
    cols = rotation_of_perm(p)
    vectors = factor_into_reflections(cols)
    assert len(vectors) % 2 == 0, "odd isometry has no spin lift"
    g = ONE
    norm = Fraction(1)
    for u in vectors:
        g = cmul(g, vec_cl(u))
        norm *= form(u, u)
    g = cscale(g, 1 / sqrt_fraction(norm))
    assert cmul(g, crev(g)) == ONE
    for i in range(DIM):
        fi = {1 << i: Fraction(1)}
        assert cmul(cmul(g, fi), crev(g)) == vec_cl(cols[i])
    return g


def normalize_torsion(g, order):
    p = cpow(g, order)
    if p == {0: Fraction(-1)}:
        g = cscale(g, -1)
        p = cpow(g, order)
    assert p == ONE, f"lift does not have order {order}"
    return g


# ---------------------------------------------------------------------------
# build the group, the module, and the matrices


def main():
    t0 = time.time()
    x_perm = [1, 2, 0, 3, 4, 5, 6]  # (123)
    y_perm = [1, 2, 3, 4, 5, 6, 0]  # (1234567)

    xhat = normalize_torsion(spin_lift(x_perm), 3)
    yhat = normalize_torsion(spin_lift(y_perm), 7)
    print(f"[{time.time()-t0:6.1f}s] spin lifts built and normalized")

    z = {63: Fraction(1)}
    assert cmul(z, z) == {0: Fraction(-7)}
    for i in range(DIM):  # z is central in the even part
        fij = {(1 << i) | (1 << ((i + 1) % DIM)): Fraction(1)}
        assert cmul(z, fij) == cmul(fij, z)

    e = {}
    power = ONE
    for _ in range(7):
        e = cadd(e, power)
        power = cmul(power, yhat)
    e = cscale(e, Fraction(1, 7))
    assert cmul(e, e) == e

    # Q-basis of the left ideal C0 e
    span = SpanBasis(64)
    module = []
    for mask in range(64):
        if bin(mask).count("1") % 2 == 0:
            m = cmul({mask: Fraction(1)}, e)
            if span.insert(to_vec64(m)):
                module.append(m)
    assert span.dim == 8, f"left ideal has Q-dimension {span.dim}, expected 8"

    # pair the basis through z into an L-structure
    lspan = SpanBasis(64)
    ubasis = []
    for m in module:
        if lspan.insert(to_vec64(m)):
            ubasis.append(m)
            zm = cmul(z, m)
            assert lspan.insert(to_vec64(zm))
            ubasis.append(zm)
    assert len(ubasis) == 8
    print(f"[{time.time()-t0:6.1f}s] module basis chosen")

    columns = [to_vec64(u) for u in ubasis]
    pick = SpanBasis(64)
    for c in columns:
        pick.insert(c)
    pivots = sorted(piv for piv, _ in pick.rows)
    square = [[columns[j][i] for j in range(8)] for i in pivots]

    def coords(m):
        v = to_vec64(m)
        c = frac_solve(square, [v[i] for i in pivots])
        assert all(
            sum(columns[j][i] * c[j] for j in range(8)) == v[i] for i in range(64)
        ), "element is outside the module"
        return c

    ext = CyclicExtension([7, 0, 1], [0, -1])

    def rho_of(celt):
        entries = [[None] * 4 for _ in range(4)]
        for j in range(4):
            c = coords(cmul(celt, ubasis[2 * j]))
            for i in range(4):
                entries[i][j] = ext.element([c[2 * i], c[2 * i + 1]])
        return Mat(ext, entries)

    mx, my = rho_of(xhat), rho_of(yhat)
    assert rho_of(cmul(xhat, yhat)) == mx * my, "module action is not multiplicative"
    print(f"[{time.time()-t0:6.1f}s] generator matrices computed")

    ident = Mat.identity(ext, 4)

    def matrix_order(m, cap=30):
        acc = m
        for k in range(1, cap + 1):
            if acc == ident:
                return k
            acc = acc * m
        raise AssertionError("order above cap")

    assert matrix_order(mx) == 3 and matrix_order(my) == 7

    # the outer automorphism: conjugation by e1 - e2 in the odd part
    u_cl = vec_cl(coords_w([Fraction(1), Fraction(-1), 0, 0, 0, 0, 0]))
    u_inv = cscale(u_cl, Fraction(1, 2))
    assert cmul(u_cl, u_inv) == ONE
    tau_x = rho_of(cmul(cmul(u_cl, xhat), u_inv))
    tau_y = rho_of(cmul(cmul(u_cl, yhat), u_inv))

    # breadth-first search for tau images as words in the generators
    words = {ident: ()}
    frontier = [ident]
    gens = [("x", mx), ("y", my)]
    while frontier:
        nxt = []
        for m in frontier:
            for name, g in gens:
                prod = m * g
                if prod not in words:
                    words[prod] = words[m] + (name,)
                    nxt.append(prod)
        frontier = nxt
    assert len(words) == 5040, f"group order {len(words)}, expected 5040"
    print(f"[{time.time()-t0:6.1f}s] group enumerated ({len(words)} elements)")
    tau_x_word = " ".join(words[tau_x])
    tau_y_word = " ".join(words[tau_y])
    print(f"    tau(x) = {tau_x_word}")
    print(f"    tau(y) = {tau_y_word}")

    ord_xy = matrix_order(mx * my)
    ord_xyy = matrix_order(mx * my * my)
    relations = [
        "x x x",
        " ".join(["y"] * 7),
        " ".join(["x y"] * ord_xy),
        " ".join(["x y y"] * ord_xyy),
    ]

    group = GroupData.from_strings(
        ["x", "y"], relations, {"x": tau_x_word, "y": tau_y_word}, 5040
    )
    rep = Representation(group, ext, [mx, my])
    assert check_relations(rep).ok
    assert check_automorphism(rep).ok
    assert burnside_dim(rep) == 16
    trace = sum((my[i, i] for i in range(my.nrows)), ext.zero())
    assert not trace.is_rational(), "7-element trace should generate L"
    print(f"[{time.time()-t0:6.1f}s] relations, automorphism, and Burnside span verified")

    inv = lambda_invariant(rep)
    print(f"    lambda_rep = {inv.lambda_rep}, canonical = {inv.lambda_canonical}")
    assert inv.lambda_canonical == Fraction(-2) and not inv.is_trivial

    cp = build_crossed_product(rep)
    report = schur_index(cp)
    assert report.index == 2 and report.symbol == (Fraction(-2), -7)
    dim = endomorphism_dim(cp.induced)
    assert dim == 4, f"endomorphism dimension {dim}, expected 4"
    print(f"[{time.time()-t0:6.1f}s] invariant, Schur index, endomorphism dimension verified")

    def entry_json(x):
        c0, c1 = x.coeffs

        def fmt(q):
            return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

        if c1 == 0:
            return fmt(c0)
        return [fmt(c0), fmt(c1)]

    def mat_json(m):
        return [[entry_json(v) for v in row] for row in m.rows]

    fixture = {
        "field": {"min_poly": [7, 0, 1], "sigma_image": [0, -1]},
        "group": {
            "generators": ["x", "y"],
            "relations": relations,
            "tau": {"x": tau_x_word, "y": tau_y_word},
            "tau_order": 2,
            "order": 5040,
        },
        "representation": {"x": mat_json(mx), "y": mat_json(my)},
        "options": {"seed": 0},
    }
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(here, "..", "src", "galois_equiv", "fixtures", "2a7_4dim.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(fixture, handle, indent=2)
        handle.write("\n")
    print(f"[{time.time()-t0:6.1f}s] wrote {os.path.normpath(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
