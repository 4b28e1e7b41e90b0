"""End-to-end acceptance checks for the whole pipeline.

Each test pins an externally checkable fact with exact arithmetic:

  * the worked 3-dimensional A5 example over Q[sqrt5], including the known
    closed-form conjugated matrices reproduced entrywise under replay;
  * the group relations holding exactly on the conjugated representation;
  * the obstructed 4-dimensional double cover of A7 over Q[sqrt-7];
  * the crossed-product relations at random scalars;
  * the endomorphism algebra of the induced representation having
    Q-dimension 4 on every bundled example;
  * agreement between the norm-class invariant and the Schur index on the
    bundled examples and on randomly conjugated and rescaled copies;
  * odd-dimensional examples decided trivial from det X at every height,
    with no factoring of lambda;
  * the constructive Hilbert 90 solver on seeded random cocycles;
  * the Hilbert symbol product formula and the norm decision against
    brute-force oracles.

Timing bounds are generous for exact rational arithmetic but tight enough
to catch accidental blowup in intermediate sizes.
"""

import random
import time
from fractions import Fraction

from galois_equiv import field
from galois_equiv.field import (
    INF,
    CyclicExtension,
    canonical_lambda,
    factor,
    hilbert_symbol,
    is_norm,
    norm,
)
from galois_equiv.linalg import Mat, inverse, matrix_norm
from galois_equiv.rep import Representation, evaluate_word, parse_word
from galois_equiv.equivariance import (
    compute_X,
    equivariant_form,
    hilbert90,
    lambda_invariant,
    verify_certificate,
)
from galois_equiv.induced import (
    build_crossed_product,
    build_induced,
    endomorphism_dim,
    schur_index,
)
from galois_equiv.errors import FactorizationIncomplete, NoWitnessFound, Singular

from conftest import build_a5, build_a7_double, build_c3, dense_m, dense_xi
from test_field import oracle_is_norm


# ---------------------------------------------------------------------------
# the worked A5 example: known intertwiner, invariant, and conjugated form


def known_intertwiner(ext):
    abar = ["1/2", "-1/2"]  # (1 - sqrt5)/2
    neg_abar = ["-1/2", "1/2"]
    return Mat(ext, [[1, neg_abar, abar], [neg_abar, 1, neg_abar], [abar, neg_abar, 1]])


def known_y(ext):
    # solves sigma(Y)^-1 Y = (2 - sqrt5) X for the intertwiner above
    return Mat(
        ext,
        [
            [[1, -2], [3, -2], [-3, 2]],
            [[3, -2], [1, -2], [3, -2]],
            [[-3, 2], [3, -2], [1, -2]],
        ],
    )


def known_conjugated_images(ext):
    a_prime = Mat(ext, [[-1, 0, 0], [0, 0, 1], [0, 1, 0]])
    b_prime = Mat(
        ext,
        [
            [["1/4", "-1/10"], ["-1/8", "19/40"], ["5/8", "-9/40"]],
            [["-1/4", "-1/10"], ["5/8", "9/40"], ["-1/8", "-19/40"]],
            [["-5/4"], ["7/8", "-1/8"], ["-7/8", "-1/8"]],
        ],
    )
    c_prime = Mat(
        ext,
        [
            [["1/4", "1/10"], ["-1/8", "-19/40"], ["5/8", "9/40"]],
            [["-1/4", "1/10"], ["5/8", "-9/40"], ["-1/8", "19/40"]],
            [["-5/4"], ["7/8", "1/8"], ["-7/8", "1/8"]],
        ],
    )
    return a_prime, b_prime, c_prime


C_WORD = "a b b a b a b b"  # the sigma-conjugate of b inside the group


def test_a5_pipeline_and_replayed_conjugation():
    started = time.monotonic()
    rep = build_a5()
    ext = rep.ext
    ident = Mat.identity(ext, 3)

    # the computed intertwiner is a scalar multiple of the known one
    x = compute_X(rep)
    known = known_intertwiner(ext)
    scale = None
    for xe, ke in zip(x.flatten(), known.flatten()):
        if ke:
            scale = xe * ke.inverse()
            break
    assert scale is not None and scale != ext.element(0)
    assert x == scale * known

    # its twisted norm is -I, and the class of -1 is trivial mod norms
    assert matrix_norm(x) == -1 * ident
    lam, canonical, trivial = lambda_invariant(rep)
    assert lam == Fraction(-1)
    assert canonical == Fraction(1)
    assert trivial is True

    # the constructed Y solves the twisted equation for the rescaled X
    cert = equivariant_form(rep, seed=0)
    assert cert.is_trivial is True
    assert inverse(cert.y.galois()) * cert.y == cert.witness * cert.x

    # replaying the known Y reproduces the three reference matrices entrywise
    replay = equivariant_form(rep, replay_y=known_y(ext))
    a_prime, b_prime, c_prime = known_conjugated_images(ext)
    assert replay.rho_prime[0] == a_prime
    assert replay.rho_prime[1] == b_prime
    conjugated = Representation(rep.group, ext, replay.rho_prime)
    word = parse_word(C_WORD, rep.group.gen_names)
    assert evaluate_word(conjugated, word) == c_prime

    assert time.monotonic() - started < 1.0


def test_a5_relations_hold_on_conjugated_representation():
    started = time.monotonic()
    rep = build_a5()
    ext = rep.ext
    ident = Mat.identity(ext, 3)

    cert = equivariant_form(rep, seed=0)
    a_p, b_p = cert.rho_prime
    assert a_p * a_p == ident
    assert b_p * b_p * b_p == ident
    ab = a_p * b_p
    assert ab * ab * ab * ab * ab == ident

    # c = sigma(b) lies in the image and satisfies the same relations as b
    conjugated = Representation(rep.group, ext, cert.rho_prime)
    c_p = evaluate_word(conjugated, parse_word(C_WORD, rep.group.gen_names))
    assert b_p.galois() == c_p
    assert c_p * c_p * c_p == ident
    ac = a_p * c_p
    assert ac * ac * ac * ac * ac == ident

    assert time.monotonic() - started < 1.0


# ---------------------------------------------------------------------------
# the obstructed double cover of A7


def test_double_cover_of_a7_is_obstructed():
    started = time.monotonic()
    rep = build_a7_double()

    # the character is genuinely quadratic: the order-7 generator has an
    # irrational trace in Q[sqrt-7]
    y = rep.images[1]
    assert not sum((y[i, i] for i in range(y.nrows)), rep.ext.zero()).is_rational()

    lam, canonical, trivial = lambda_invariant(rep)
    assert canonical == Fraction(-2)
    assert trivial is False
    assert is_norm(Fraction(-2), rep.ext) is False

    report = schur_index(build_crossed_product(rep))
    assert report.index == 2
    assert report.symbol == (Fraction(-2), -7)

    assert time.monotonic() - started < 1.0


# ---------------------------------------------------------------------------
# crossed-product structure of the induced representation


def test_crossed_product_relations_at_random_scalars():
    started = time.monotonic()
    rng = random.Random(1234)
    for build in (build_a5, build_c3):
        rep = build()
        ext = rep.ext
        cp = build_crossed_product(rep)
        for _ in range(20):
            lam1 = ext.element(0)
            lam2 = ext.element(0)
            while not lam1:
                lam1 = ext.element([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2)])
            while not lam2:
                lam2 = ext.element([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2)])
            report = cp.relation_report(lam1, lam2)
            assert all(ok for _, ok in report), report
        xi = dense_xi(cp)
        assert xi * xi == dense_m(cp, cp.lambda_rep)
    assert time.monotonic() - started < 1.0


def test_endomorphism_algebra_has_dimension_four_on_all_examples():
    started = time.monotonic()
    for build in (build_a5, build_c3, build_a7_double):
        assert endomorphism_dim(build_induced(build())) == 4
    assert time.monotonic() - started < 1.0


# ---------------------------------------------------------------------------
# the invariant is conjugation-invariant and matches the Schur index


def random_invertible(ext, n, rng, spread=2):
    while True:
        m = Mat(
            ext,
            [
                [
                    ext.element([rng.randint(-spread, spread) for _ in range(ext.degree)])
                    for _ in range(n)
                ]
                for _ in range(n)
            ],
        )
        try:
            inverse(m)
        except Singular:
            continue
        return m


def random_nonzero_scalar(ext, rng):
    while True:
        mu = ext.element([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(ext.degree)])
        if mu:
            return mu


def test_invariant_agrees_with_schur_index_under_conjugation():
    rng = random.Random(99)
    plan = [(build_a5, 9), (build_c3, 8), (build_a7_double, 8)]
    for build, count in plan:
        rep = build()
        ext = rep.ext
        base = lambda_invariant(rep)
        base_report = schur_index(build_crossed_product(rep))
        assert base.is_trivial == (base_report.index == 1)

        for _ in range(count):
            t = random_invertible(ext, rep.dim, rng)
            images = [t * m * inverse(t) for m in rep.images]
            conjugated = Representation(rep.group, ext, images)

            inv = lambda_invariant(conjugated)
            report = schur_index(build_crossed_product(conjugated))
            assert inv.is_trivial == (report.index == 1)
            assert inv.is_trivial == base.is_trivial
            # the canonical representative does not see the conjugation
            assert inv.lambda_canonical == base.lambda_canonical

            # rescaling X by mu multiplies lambda by the norm of mu and
            # leaves its class unchanged
            x = compute_X(conjugated)
            mu = random_nonzero_scalar(ext, rng)
            twisted = matrix_norm(mu * x)
            assert twisted == (norm(mu) * inv.lambda_rep) * Mat.identity(ext, rep.dim)
            assert canonical_lambda(norm(mu) * inv.lambda_rep, ext) == inv.lambda_canonical


def test_odd_n_is_decided_from_det_x_at_every_height(monkeypatch):
    # N(det X) = lambda^n and N(lambda) = lambda^2, so for odd n the class is
    # trivial whatever the size of lambda, and nothing factors lambda; the
    # witness search for equivariant may still run out, and is not pinned
    seen = []
    real_factor = field.factor

    def recording_factor(n, *args, **kwargs):
        seen.append(abs(n))
        return real_factor(n, *args, **kwargs)

    monkeypatch.setattr(field, "factor", recording_factor)
    for build in (build_c3, build_a5):
        rep = build()
        for height in (3, 10, 30, 100, 300, 1000):
            t = random_invertible(rep.ext, rep.dim, random.Random(f"odd-n/{height}"), spread=height)
            conjugated = Representation(rep.group, rep.ext, [t * m * inverse(t) for m in rep.images])
            seen.clear()
            started = time.monotonic()
            inv = lambda_invariant(conjugated)
            if build is build_a5 and height == 1000:
                assert time.monotonic() - started < 1.0
            assert inv.is_trivial and inv.lambda_canonical == 1, height
            assert schur_index(build_crossed_product(conjugated)).index == 1, height
            assert abs(inv.lambda_rep.numerator * inv.lambda_rep.denominator) not in seen, height
            try:
                cert = equivariant_form(conjugated)
            except (FactorizationIncomplete, NoWitnessFound):
                continue
            assert verify_certificate(cert, conjugated).ok, height


# ---------------------------------------------------------------------------
# constructive Hilbert 90 on seeded random cocycles


def test_hilbert90_solves_seeded_random_cocycles():
    fields = [
        CyclicExtension([-5, 0, 1], [0, -1]),
        CyclicExtension([7, 0, 1], [0, -1]),
    ]
    rng = random.Random(2024)
    done = 0
    while done < 50:
        ext = fields[done % 2]
        n = 1 + done % 4
        z = random_invertible(ext, n, rng, spread=3)
        x = inverse(z.galois()) * z
        y = hilbert90(x, seed=done)
        assert inverse(y.galois()) * y == x
        done += 1


# ---------------------------------------------------------------------------
# symbols and the norm decision against brute force


def test_symbol_product_formula_on_many_random_pairs():
    rng = random.Random(31)
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


def test_norm_decision_matches_witness_search():
    rng = random.Random(53)
    exts = [
        CyclicExtension([-5, 0, 1], [0, -1]),
        CyclicExtension([7, 0, 1], [0, -1]),
        CyclicExtension([3, 0, 1], [0, -1]),
    ]
    checked = 0
    while checked < 50:
        ext = exts[checked % 3]
        b, c = ext.min_poly[1], ext.min_poly[0]
        if rng.random() < 0.5:
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
