"""Block model of the induced representation and its crossed-product endomorphisms."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from galois_equiv.errors import (
    EndomorphismCheckFailed,
    InternalInvariantViolation,
    Unsupported,
)
from galois_equiv.field import CyclicExtension, canonical_lambda
from galois_equiv.linalg import Mat, inverse, kernel_of_linear_maps, matrix_norm, solve_sylvester_space
from galois_equiv.rep import GroupData, Representation, parse_word
from galois_equiv.equivariance import compute_X, twisted_images
from galois_equiv.induced import (
    CrossedProduct,
    build_crossed_product,
    build_induced,
    endomorphism_dim,
    schur_index,
)

from conftest import build_a5, build_a7_double, build_c3, dense_m, dense_xi
from test_acceptance import random_invertible
from test_linalg import exact_sylvester_space, take_primes


def random_element(ext, rng, span=6):
    return ext.element([Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(ext.degree)])


def dense_blocks(ind):
    """The rn x rn generator images diag(sigma^i twists[i](g)) and the block
    shift P, with identity blocks at (i, i-1 mod r), built from ind.twists."""
    ext, n, size = ind.rep.ext, ind.rep.dim, ind.dim
    images = [
        Mat(ext, [
            [ind.twists[a // n].images[k][a % n, b % n].galois(a // n) if a // n == b // n else 0 for b in range(size)]
            for a in range(size)
        ])
        for k in range(len(ind.rep.images))
    ]
    shift = Mat(ext, [
        [1 if a % n == b % n and b // n == (a // n - 1) % ext.degree else 0 for b in range(size)]
        for a in range(size)
    ])
    return images, shift


def test_c3_blocks_are_computable_by_hand(c3):
    ind = build_induced(c3)
    assert ind.dim == 2
    omega = c3.ext.element(["-1/2", "1/2"])
    blocks, p = dense_blocks(ind)
    # tau inverts g and sigma conjugates, so both diagonal blocks equal omega
    assert blocks[0] == Mat(c3.ext, [[omega, 0], [0, omega]])
    assert ind.evaluate(((0, 1),)) == blocks[0]
    assert p == Mat(c3.ext, [[0, 1], [1, 0]])


def test_tau_pair_squares_to_identity(a5):
    ind = build_induced(a5)
    assert ind.dim == 6
    # (P sigma)^2 = P sigma(P) sigma^2, with sigma^2 = 1
    _, p = dense_blocks(ind)
    assert p * p.galois() == Mat.identity(a5.ext, 6)


def test_tau_conjugation_matches_tau_images_explicitly(a5):
    ind = build_induced(a5)
    tau_b = a5.group.tau_apply(parse_word("b", a5.group.gen_names))
    blocks, p = dense_blocks(ind)
    # (P sigma) D (P sigma)^-1 = P sigma(D) P^-1
    assert p * blocks[1].galois() * inverse(p) == ind.evaluate(tau_b)


def golden_ratio_rotation():
    """g -> an order 5 matrix over Q(sqrt5), with tau(g) = g^2, so tau^2(g) = g^4 != g."""
    ext = CyclicExtension([-5, 0, 1], [0, -1])
    group = GroupData.from_strings(["g"], ["g g g g g"], {"g": "g g"})
    return Representation(group, ext, [Mat(ext, [[0, -1], [1, ["-1/2", "1/2"]]])])


def with_group(rep, relations, tau):
    group = GroupData.from_strings(list(rep.group.gen_names), relations, tau)
    return Representation(group, rep.ext, list(rep.images))


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(
            lambda: with_group(build_a5(), ["b b"], {"a": "a", "b": "a b b a b a b b"}),
            "a relation fails in the induced blocks",
            id="relation-fails",
        ),
        pytest.param(
            # sends the involution a to the order 3 element b
            lambda: with_group(build_a5(), ["a a", "b b b", "a b a b a b a b a b"], {"a": "b", "b": "a"}),
            "a relation fails in the induced blocks",
            id="swapped-tau",
        ),
        pytest.param(golden_ratio_rotation, "tau conjugation disagrees with tau images", id="tau-squared-moves-g"),
    ],
)
def test_build_induced_rejects_each_broken_hypothesis(build, message):
    with pytest.raises(InternalInvariantViolation, match=message):
        build_induced(build())


def test_crossed_product_relations_hold(a5):
    cp = build_crossed_product(a5)
    assert cp.lambda_rep == Fraction(-1)
    rng = random.Random(5)
    for _ in range(6):
        lam1 = random_element(a5.ext, rng)
        lam2 = random_element(a5.ext, rng)
        assert all(ok for _, ok in cp.relation_report(lam1, lam2))


def test_crossed_product_on_c3(c3):
    cp = build_crossed_product(c3)
    assert cp.lambda_rep == Fraction(1)
    xi = dense_xi(cp)
    assert xi == Mat(c3.ext, [[0, 1], [1, 0]])
    assert xi * xi == Mat.identity(c3.ext, 2)


def test_wrong_intertwiner_fails_the_endomorphism_check(a5):
    with pytest.raises(EndomorphismCheckFailed):
        CrossedProduct(build_induced(a5), Mat.identity(a5.ext, 3))


def test_rescaled_intertwiner_is_still_an_endomorphism(a5):
    x = compute_X(a5)
    mu = a5.ext.element(["2", "-1"])  # 2 - sqrt5, of norm -1
    cp = CrossedProduct(build_induced(a5), mu * x)
    assert cp.lambda_rep == Fraction(1)


def test_endomorphism_dimension_is_r_squared(a5, c3):
    assert endomorphism_dim(build_induced(a5)) == 4
    assert endomorphism_dim(build_induced(c3)) == 4


def dense_endomorphism_dim(ind):
    """The commutant dimension with each condition written as a Q-linear map
    on matrices over L, evaluated on the basis t^k E_ij by Mat products and
    eliminated densely."""
    blocks, p = dense_blocks(ind)
    maps = [(lambda E, D=D: E * D - D * E) for D in blocks]
    maps.append(lambda E: E * p - p * E.galois())
    return len(kernel_of_linear_maps(maps, ind.rep.ext, ind.dim, ind.dim))


def conjugated(rep, seed):
    t = random_invertible(rep.ext, rep.dim, random.Random(seed), spread=2)
    return Representation(rep.group, rep.ext, [t * m * inverse(t) for m in rep.images])


def doubled_c3():
    """C3 + C3: the isotypic sum, whose induced commutant is M_2 of the simple one."""
    c3 = build_c3()
    (omega,) = c3.images
    image = Mat(c3.ext, [[omega[0, 0], 0], [0, omega[0, 0]]])
    return Representation(c3.group, c3.ext, [image])


def c3_with_trivial_tau():
    """C3 over Q(sqrt-3) with tau = 1, so that rho o tau = rho but sigma o rho is not rho."""
    return with_group(build_c3(), ["g g g"], {"g": "g"})


def cubic_involution():
    """g -> a conjugate of diag(1, -1) over the cyclic cubic field, tau = 1."""
    ext = CyclicExtension([-1, -2, 1, 1], [-2, 0, 1])
    group = GroupData.from_strings(["g"], ["g g"], {"g": "g"})
    diag = Mat(ext, [[1, 0], [0, -1]])
    return conjugated(Representation(group, ext, [diag]), 5)


def dense_evaluate(blocks, word):
    """A word's induced image as a product of the rn x rn blocks and their inverses."""
    inverses = [inverse(b) for b in blocks]
    acc = Mat.identity(blocks[0].ext, blocks[0].nrows)
    for g, e in word:
        acc = acc * (blocks[g] if e > 0 else inverses[g])
    return acc


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(build_c3, id="c3"),
        pytest.param(build_a5, id="a5"),
        pytest.param(build_a7_double, id="2a7"),
        pytest.param(lambda: conjugated(build_a5(), 1), id="a5-conjugate-1"),
        pytest.param(lambda: conjugated(build_c3(), 2), id="c3-conjugate-2"),
        pytest.param(cubic_involution, id="cubic-involution"),
    ],
)
def test_block_model_matches_the_dense_products(build):
    ind = build_induced(build())
    group = ind.rep.group
    blocks, p = dense_blocks(ind)
    for w in group.relations:
        assert ind.evaluate(w) == dense_evaluate(blocks, w) == Mat.identity(ind.rep.ext, ind.dim)
    for k, d in enumerate(blocks):
        tau_g = group.tau_apply(((k, 1),))
        assert ind.evaluate(tau_g) == dense_evaluate(blocks, tau_g)
        assert p * d.galois() * inverse(p) == ind.evaluate(tau_g)


def scalar_norm_intertwiner(rep):
    """An intertwiner X rho(g) = sigma(rho(tau^-1(g))) X whose twisted norm is
    scalar; the cubic involution is reducible and has two independent ones."""
    return next(x for x in solve_sylvester_space(twisted_images(rep)) if matrix_norm(x).is_scalar())


def dense_relations(cp, lam1, lam2):
    """The four crossed-product relations as products of rn x rn matrices."""
    xi = dense_xi(cp)
    xi_r = Mat.identity(cp.ext, cp.induced.dim)
    for _ in range(cp.ext.degree):
        xi_r = xi_r * xi
    m1, m2 = dense_m(cp, lam1), dense_m(cp, lam2)
    return [
        ("m is additive", m1 + m2 == dense_m(cp, lam1 + lam2)),
        ("m is multiplicative", m1 * m2 == dense_m(cp, lam1 * lam2)),
        ("m twists past xi", m1 * xi == xi * dense_m(cp, lam1.galois())),
        ("xi^r recovers lambda", xi_r == dense_m(cp, cp.lambda_rep)),
    ]


@pytest.mark.parametrize(
    "build, rejected",
    [
        # X is 1 x 1 on C3, so sigma(X) and I are multiples of it
        pytest.param(build_c3, 0, id="c3"),
        pytest.param(build_a5, 2, id="a5"),
        pytest.param(build_a7_double, 2, id="2a7"),
        pytest.param(cubic_involution, 2, id="cubic-involution"),
    ],
)
def test_crossed_product_checks_match_the_dense_relations(build, rejected):
    rep = build()
    ext = rep.ext
    ind = build_induced(rep)
    blocks, p = dense_blocks(ind)
    x = scalar_norm_intertwiner(rep)
    # the dense checks the n x n one replaced hold for every X
    m_t = dense_m(SimpleNamespace(induced=ind, ext=ext), ext.gen())
    assert m_t * p == p * m_t.galois()
    assert all(m_t * d == d * m_t for d in blocks)
    rng = random.Random(17)
    raised = 0
    for cand in (x, x.galois(), Mat.identity(ext, rep.dim), ext.gen() * x):
        xi = dense_xi(SimpleNamespace(induced=ind, x=cand, ext=ext))
        assert xi * p == p * xi.galois()
        if not all(xi * d == d * xi for d in blocks):
            raised += 1
            with pytest.raises(EndomorphismCheckFailed, match="xi does not commute with a generator block"):
                CrossedProduct(ind, cand)
            continue
        cp, wrong = CrossedProduct(ind, cand), CrossedProduct(ind, cand)
        wrong.lambda_rep += 1
        # a wrong lambda makes the last relation fail in both
        for c in (cp, wrong):
            lam1, lam2 = random_element(ext, rng), random_element(ext, rng)
            assert c.relation_report(lam1, lam2) == dense_relations(c, lam1, lam2)
    # of X, sigma(X), I and tX, the intertwiners are accepted and the rest rejected
    assert raised == rejected


ENDOMORPHISM_CASES = [
    pytest.param(build_c3, 4, id="c3"),
    pytest.param(build_a5, 4, id="a5"),
    pytest.param(build_a7_double, 4, id="2a7"),
    pytest.param(lambda: conjugated(build_a5(), 1), 4, id="a5-conjugate-1"),
    pytest.param(lambda: conjugated(build_a5(), 2), 4, id="a5-conjugate-2"),
    pytest.param(lambda: conjugated(build_c3(), 1), 4, id="c3-conjugate-1"),
    pytest.param(lambda: conjugated(build_c3(), 2), 4, id="c3-conjugate-2"),
    pytest.param(lambda: conjugated(build_a7_double(), 1), 4, id="2a7-conjugate-1"),
    # sigma o rho is not rho, so only the j = 0 Hom term is nonzero
    pytest.param(c3_with_trivial_tau, 2, id="c3-tau-identity"),
    pytest.param(doubled_c3, 16, id="c3-plus-c3"),
    # two distinct characters, r^2 = 9 each; unlike the quadratic fields
    # above, sigma's matrix here is not symmetric, so a transposed one shows
    pytest.param(cubic_involution, 18, id="cubic-involution"),
]


@pytest.mark.parametrize("build, expected", ENDOMORPHISM_CASES)
def test_endomorphism_dim_matches_the_dense_construction(build, expected):
    ind = build_induced(build())
    dim = endomorphism_dim(ind)
    assert dim == dense_endomorphism_dim(ind)
    assert dim == expected


@pytest.mark.parametrize("build, expected", ENDOMORPHISM_CASES)
def test_modular_solve_matches_the_exact_solve(build, expected, monkeypatch):
    # every intertwiner space endomorphism_dim and compute_X solve for
    take_primes(monkeypatch)
    rep = build()
    ind = build_induced(rep)
    base = ind.twists[0].images
    systems = [[(a.galois(j), b) for a, b in zip(ind.twists[j].images, base)] for j in range(rep.ext.degree)]
    for pairs in systems + [twisted_images(rep)]:
        assert solve_sylvester_space(pairs) == exact_sylvester_space(pairs)


def test_schur_index_trivial_cases(a5, c3):
    report = schur_index(build_crossed_product(a5))
    assert report.index == 1
    assert report.symbol is None
    assert report.invariant.lambda_rep == Fraction(-1)
    assert report.invariant.is_trivial
    assert schur_index(build_crossed_product(c3)).index == 1


def test_schur_index_of_the_double_cover(a7d):
    report = schur_index(build_crossed_product(a7d))
    assert report.index == 2
    assert report.symbol == (Fraction(-2), -7)
    assert not report.invariant.is_trivial
    assert report.invariant.lambda_canonical == Fraction(-2)


def test_a_lambda_that_is_not_the_twisted_norm_of_x_is_decided_by_symbols(a5):
    # 3 lambda fails N(w) = lambda for w = det X lambda^-1, so Hilbert
    # symbols decide it: -3 is not a norm from Q(sqrt5), since (-3, 5)_3 = -1
    x = compute_X(a5)
    lam = matrix_norm(x)[0, 0].as_rational()
    cp = CrossedProduct(build_induced(a5), x)
    cp.lambda_rep = 3 * lam
    report = schur_index(cp)
    assert report.invariant.lambda_rep == -3
    assert report.index == 2 and not report.invariant.is_trivial
    assert report.symbol == (canonical_lambda(Fraction(-3), a5.ext), 5) and report.symbol[0] != 1


def test_double_cover_crossed_product(a7d):
    cp = build_crossed_product(a7d)
    rng = random.Random(3)
    lam1, lam2 = random_element(a7d.ext, rng), random_element(a7d.ext, rng)
    assert all(ok for _, ok in cp.relation_report(lam1, lam2))


def test_schur_index_beyond_quadratic_needs_witness():
    ext = CyclicExtension([-1, -2, 1, 1], [-2, 0, 1])
    group = GroupData.from_strings(["g"], ["g"], {"g": "g"})
    rep = Representation(group, ext, [Mat(ext, [[1]])])
    cp = build_crossed_product(rep)
    with pytest.raises(Unsupported):
        schur_index(cp)
    report = schur_index(cp, witness=ext.one())
    assert report.index == 1
