"""Shared constructions: the bundled example representations in object form,
the crossed product's endomorphisms as dense rn x rn matrices, and the
Leibniz determinant."""

import itertools

import pytest

from galois_equiv.field import CyclicExtension
from galois_equiv.linalg import Mat
from galois_equiv.rep import GroupData, Representation

ALPHA = ["1/2", "1/2"]  # (1 + sqrt5)/2
NEG_ALPHA = ["-1/2", "-1/2"]


def build_a5():
    """Degree 3 representation of A5 over Q[sqrt5], tau = conjugation by (1 2)."""
    ext = CyclicExtension([-5, 0, 1], [0, -1])
    group = GroupData.from_strings(
        ["a", "b"],
        ["a a", "b b b", "a b a b a b a b a b"],
        {"a": "a", "b": "a b b a b a b b"},
        declared_order=60,
    )
    a = Mat(ext, [[-1, 0, 0], [0, 0, 1], [0, 1, 0]])
    b = Mat(ext, [[-1, 1, ALPHA], [ALPHA, 0, NEG_ALPHA], [NEG_ALPHA, 0, 1]])
    return Representation(group, ext, [a, b])


def build_c3():
    """Degree 1 representation of C3 over Q[sqrt-3], tau = inversion."""
    ext = CyclicExtension([3, 0, 1], [0, -1])
    group = GroupData.from_strings(
        ["g"],
        ["g g g"],
        {"g": "g'"},
        declared_order=3,
    )
    omega = Mat(ext, [[["-1/2", "1/2"]]])
    return Representation(group, ext, [omega])


def build_a7_double():
    """Degree 4 representation of 2.A7 over Q[sqrt-7], from the shipped file."""
    from galois_equiv.cli import fixture_path, load_problem

    return load_problem(fixture_path("2a7_4dim.json")).representation()


def dense_m(cp, lam):
    """m(lam) = diag(sigma^i(lam) I), the rn x rn block-scalar matrix."""
    lam = cp.ext.element(lam)
    n = cp.induced.rep.dim
    size = n * cp.ext.degree
    return Mat(cp.ext, [[lam.galois(i // n) if i == j else 0 for j in range(size)] for i in range(size)])


def dense_xi(cp):
    """xi as an rn x rn matrix: sigma^(i-1)(X) at block (i, i-1 mod r).
    Takes a CrossedProduct, or anything with its induced, x and ext."""
    r = cp.ext.degree
    n = cp.induced.rep.dim
    rows = [[cp.ext.zero()] * (r * n) for _ in range(r * n)]
    for i in range(r):
        j = (i - 1) % r
        blk = cp.x.galois(j)
        for a in range(n):
            for b in range(n):
                rows[i * n + a][j * n + b] = blk[a, b]
    return Mat(cp.ext, rows)


def leibniz_determinant(a):
    """sum over permutations p of sign(p) prod_i a[i, p(i)], over FieldElements."""
    ext, n = a.ext, a.nrows
    total = ext.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = ext.element(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * a[i, j]
        total = total + term
    return total


@pytest.fixture
def a5():
    return build_a5()


@pytest.fixture
def c3():
    return build_c3()


@pytest.fixture
def a7d():
    return build_a7_double()
