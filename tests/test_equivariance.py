"""Intertwiner computation, the norm invariant, and the Hilbert 90 construction."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from galois_equiv.errors import (
    BadWitness,
    InternalInvariantViolation,
    NotEquivalent,
    NotIrreducible,
    Singular,
    Unsupported,
)
from galois_equiv import equivariance, induced, linalg
from galois_equiv.field import CyclicExtension, canonical_lambda, norm
from galois_equiv.linalg import IncrementalSpan, Mat, inverse, matrix_norm
from galois_equiv.rep import GroupData, Representation, evaluate_word
from galois_equiv.equivariance import (
    compute_X,
    equivariant_form,
    hilbert90,
    lambda_invariant,
    verify_certificate,
)
from galois_equiv.induced import build_crossed_product, schur_index

from conftest import ALPHA, NEG_ALPHA, build_a5, build_c3, leibniz_determinant
from test_acceptance import random_invertible
from test_cli import count_calls


def reference_intertwiner(ext):
    abar = ["1/2", "-1/2"]  # (1 - sqrt5)/2
    neg_abar = ["-1/2", "1/2"]
    return Mat(ext, [[1, neg_abar, abar], [neg_abar, 1, neg_abar], [abar, neg_abar, 1]])


def test_compute_x_matches_hand_computed_intertwiner(a5):
    x = compute_X(a5)
    assert x == reference_intertwiner(a5.ext)


def test_intertwiner_twisted_norm_is_minus_identity(a5):
    x = compute_X(a5)
    assert x.galois() * x == -1 * Mat.identity(a5.ext, 3)
    assert matrix_norm(x) == -1 * Mat.identity(a5.ext, 3)


def test_lambda_invariant_on_a5(a5):
    lam, canonical, trivial = lambda_invariant(a5)
    assert lam == Fraction(-1)
    assert canonical == Fraction(1)
    assert trivial is True


def test_lambda_invariant_on_c3(c3):
    lam, canonical, trivial = lambda_invariant(c3)
    assert lam == Fraction(1)
    assert canonical == Fraction(1)
    assert trivial is True
    assert compute_X(c3) == Mat.identity(c3.ext, 1)


def test_scalar_ambiguity_multiplies_lambda_by_a_norm(a5):
    rng = random.Random(67)
    x = compute_X(a5)
    lam = Fraction(-1)
    for _ in range(10):
        mu = a5.ext.element([rng.randint(-4, 4), rng.randint(-4, 4)])
        if not mu:
            continue
        scaled = mu * x
        n = matrix_norm(scaled)
        assert n == (norm(mu) * lam) * Mat.identity(a5.ext, 3)


def test_rescale_x_gives_norm_one(a5):
    x = compute_X(a5)
    mu = a5.ext.element([2, -1])  # norm -1 = lambda^-1
    assert matrix_norm(mu * x).is_identity()


def random_cocycle(ext, n, rng):
    """sigma(Z)^-1 Z for a random invertible Z, so its twisted norm is I."""
    while True:
        z = Mat(ext, [[ext.element([rng.randint(-3, 3) for _ in range(ext.degree)])
                       for _ in range(n)] for _ in range(n)])
        try:
            inverse(z)
        except Singular:
            continue
        return inverse(z.galois()) * z


def test_hilbert90_solves_random_cocycles():
    rng = random.Random(71)
    for min_poly in ([-5, 0, 1], [7, 0, 1]):
        ext = CyclicExtension(min_poly, [0, -1])
        for n in (1, 2, 3):
            for trial in range(3):
                x = random_cocycle(ext, n, rng)
                assert matrix_norm(x).is_identity()
                y = hilbert90(x, seed=trial)
                assert inverse(y.galois()) * y == x


def test_hilbert90_rejects_bad_norm(a5):
    x = compute_X(a5)  # norm is -I, not I
    with pytest.raises(ValueError):
        hilbert90(x)


def test_hilbert90_needs_no_random_row(monkeypatch):
    # every seeded row is zero, so each row of Y comes from the basis rows
    monkeypatch.setattr(equivariance._LinearGenerator, "small", lambda self: 0)
    rng = random.Random(73)
    fields = [
        CyclicExtension([-5, 0, 1], [0, -1]),
        CyclicExtension([7, 0, 1], [0, -1]),
        CyclicExtension([1, -3, 0, 1], [-2, 0, 1]),  # t^3 - 3t + 1, sigma: t -> t^2 - 2
    ]
    for ext in fields:
        for n in (1, 2, 3):
            for _ in range(2):
                x = random_cocycle(ext, n, rng)
                y = hilbert90(x, seed=0)
                assert inverse(y.galois()) * y == x


def test_hilbert90_reads_the_norm_off_its_own_chain(monkeypatch, a5):
    # mu X has twisted norm N(2 - t) (-1) = 1; hilbert90 checks that on B_r
    def no_norm(x):
        raise AssertionError("hilbert90 took a separate twisted norm")

    mu_x = a5.ext.element([2, -1]) * compute_X(a5)
    for module in (equivariance, linalg):
        monkeypatch.setattr(module, "matrix_norm", no_norm)
    y = hilbert90(mu_x)
    assert y.galois() * mu_x == y


def test_equivariant_form_end_to_end_on_a5(a5):
    cert = equivariant_form(a5, seed=0)
    assert cert.is_trivial
    assert cert.lambda_rep == -1
    assert cert.lambda_canonical == 1
    assert cert.y is not None
    report = verify_certificate(cert, a5)
    assert report.ok, report.entries
    # rho' genuinely commutes with the twist on every generator
    rp = Representation(a5.group, a5.ext, list(cert.rho_prime))
    for k in range(2):
        tau_word = a5.group.tau_apply(((k, 1),))
        assert evaluate_word(rp, tau_word) == rp.images[k].galois()


def test_equivariant_form_is_deterministic(a5):
    c1 = equivariant_form(a5, seed=5)
    c2 = equivariant_form(a5, seed=5)
    assert c1.y == c2.y
    assert c1.rho_prime == c2.rho_prime


def test_equivariant_form_different_seeds_both_verify(a5):
    for seed in (1, 2, 3):
        cert = equivariant_form(a5, seed=seed)
        assert verify_certificate(cert, a5).ok


def test_equivariant_form_accepts_replayed_solution(a5):
    cert0 = equivariant_form(a5, seed=9)
    cert = equivariant_form(a5, replay_y=cert0.y)
    assert cert.y == cert0.y
    assert verify_certificate(cert, a5).ok


def test_equivariant_form_rejects_replay_that_solves_nothing(a5):
    with pytest.raises(BadWitness):
        equivariant_form(a5, replay_y=Mat.identity(a5.ext, 3))


def test_a_witness_of_norm_lambda_is_inverted(a5):
    # on a conjugate with lambda != +-1, w = det X / lambda has N(w) =
    # lambda^3 / lambda^2 = lambda, so the rescaler is w^-1, not w
    rng = random.Random(83)
    while True:
        t = random_invertible(a5.ext, 3, rng)
        rep = Representation(a5.group, a5.ext, [t * m * inverse(t) for m in a5.images])
        lam = lambda_invariant(rep).lambda_rep
        if lam not in (1, -1):
            break
    w = leibniz_determinant(compute_X(rep)) * (1 / lam)
    assert norm(w) == lam
    cert = equivariant_form(rep, witness=w)
    assert cert.is_trivial and cert.witness == w.inverse()
    assert verify_certificate(cert, rep).ok


class _Decided(Exception):
    """Raised in place of the witness search, which follows a trivial decision."""


@pytest.mark.parametrize(
    "build, height",
    [(build_c3, None), (build_a5, None), (build_a5, 10), (build_a5, 100), (build_a5, 1000)],
    ids=["c3", "a5", "a5-H10", "a5-H100", "a5-H1000"],
)
def test_the_odd_n_decision_eliminates_nothing_over_l(monkeypatch, build, height):
    # N(X) = lambda I decides odd n, so the decision inserts no row into a
    # span over L; only what follows a trivial one (mu, Hilbert 90, Y^-1) does
    rep = build()
    if height is not None:
        t = random_invertible(rep.ext, rep.dim, random.Random(f"no-insert/{height}"), spread=height)
        rep = Representation(rep.group, rep.ext, [t * m * inverse(t) for m in rep.images])
    inserts, per_decision = [], []
    insert, decide = IncrementalSpan.insert, equivariance.decide_lambda

    def counted_decide(*args):
        before = len(inserts)
        inv = decide(*args)
        per_decision.append(len(inserts) - before)
        return inv

    def decided(*args):
        raise _Decided

    monkeypatch.setattr(IncrementalSpan, "insert", lambda span, row: inserts.append(row) or insert(span, row))
    for module in (equivariance, induced):
        monkeypatch.setattr(module, "decide_lambda", counted_decide)
    monkeypatch.setattr(equivariance, "norm_witness", decided)
    assert lambda_invariant(rep).is_trivial
    assert schur_index(build_crossed_product(rep)).index == 1
    with pytest.raises(_Decided):
        equivariant_form(rep)
    assert per_decision == [0, 0, 0]


def test_verify_certificate_reports_a_y_without_witness(a5):
    cert = replace(equivariant_form(a5, seed=0), witness=None)
    entries = verify_certificate(cert, a5).entries
    assert [e for e, holds in entries if not holds] == ["Y solves sigma(Y)^-1 Y = mu X"]


def test_equivariant_form_rejects_bad_witness(a5):
    with pytest.raises(BadWitness):
        equivariant_form(a5, witness=a5.ext.element([5, 1]))


def test_relations_transport_to_rho_prime(a5):
    from galois_equiv.rep import check_relations

    cert = equivariant_form(a5, seed=0)
    rp = Representation(a5.group, a5.ext, list(cert.rho_prime))
    assert check_relations(rp).ok


def test_not_equivalent_when_twist_changes_the_character():
    ext = CyclicExtension([3, 0, 1], [0, -1])
    group = GroupData.from_strings(["g"], ["g g g"], {"g": "g"})
    rep = Representation(group, ext, [Mat(ext, [[["-1/2", "1/2"]]])])
    with pytest.raises(NotEquivalent):
        compute_X(rep)


def test_not_irreducible_on_isotypic_double():
    ext = CyclicExtension([3, 0, 1], [0, -1])
    group = GroupData.from_strings(["g"], ["g g g"], {"g": "g'"})
    omega = ["-1/2", "1/2"]
    rep = Representation(group, ext, [Mat(ext, [[omega, 0], [0, omega]])])
    with pytest.raises(NotIrreducible):
        compute_X(rep)


def test_a_singular_twisted_norm_is_not_irreducible():
    # det N(X) = N(det X): a singular twisted norm means a singular X, whose
    # kernel is a proper rho-stable subspace
    ext = CyclicExtension([-5, 0, 1], [0, -1])
    for n in (Mat(ext, [[0, 0], [0, 0]]), Mat(ext, [[1, 0], [0, 0]]), Mat(ext, [[1, 2], [2, 4]])):
        with pytest.raises(NotIrreducible, match="X is singular"):
            equivariance._scalar_of(n)
    with pytest.raises(InternalInvariantViolation, match="not scalar"):
        equivariance._scalar_of(Mat(ext, [[1, 0], [0, 2]]))
    assert equivariance._scalar_of(Mat(ext, [[-2, 0], [0, -2]])) == -2


def test_unsupported_without_witness_beyond_quadratic():
    # cyclic cubic: t = 2cos(2pi/7), sigma(t) = t^2 - 2; C2 acting trivially
    # has no equivalence, so use the regular-ish C7 character instead: skip to
    # the direct lambda path with a trivial 1-dim rep of C3 with tau = identity
    ext = CyclicExtension([-1, -2, 1, 1], [-2, 0, 1])
    group = GroupData.from_strings(["g"], ["g"], {"g": "g"})
    rep = Representation(group, ext, [Mat(ext, [[1]])])
    with pytest.raises(Unsupported):
        lambda_invariant(rep)
    cert = equivariant_form(rep, witness=ext.one())
    assert cert.is_trivial and cert.y is not None
    # the witness decides the class, so the certificate carries the decision
    assert dict(verify_certificate(cert, rep).entries)["lambda_canonical matches"] is True


def test_a_witnessed_certificate_is_decided_by_its_witness(monkeypatch, a5):
    cert = equivariant_form(a5, seed=0)
    counts = count_calls(monkeypatch, [canonical_lambda])
    assert verify_certificate(cert, a5).ok
    assert counts == {}


def test_an_obstruction_certificate_is_decided_once(monkeypatch, a7d):
    cert = equivariant_form(a7d)
    assert not cert.is_trivial and cert.witness is None
    counts = count_calls(monkeypatch, [canonical_lambda])
    assert verify_certificate(cert, a7d).ok
    assert counts == {"canonical_lambda": 1}


def tampered_certificates(cert, rep):
    """(name, certificate) with one entry changed in each."""
    a_prime, b_prime = cert.rho_prime
    bumped = Mat(rep.ext, [[e + int(i == j == 0) for j, e in enumerate(row)] for i, row in enumerate(b_prime.rows)])
    return [
        ("2Y", replace(cert, y=2 * cert.y)),
        ("sigma(Y)", replace(cert, y=cert.y.galois())),
        ("random Y", replace(cert, y=random_invertible(rep.ext, 3, random.Random(79)))),
        ("rho' perturbed", replace(cert, rho_prime=(a_prime, bumped))),
        ("2 witness", replace(cert, witness=2 * cert.witness)),
        ("2X", replace(cert, x=2 * cert.x)),
        ("3 lambda", replace(cert, lambda_rep=3 * cert.lambda_rep)),
    ]


# the entries each tampering falsifies; a rational multiple of Y is another solution
FALSIFIED = {
    "2Y": set(),
    "sigma(Y)": {"Y solves sigma(Y)^-1 Y = mu X", "rho' is Y rho Y^-1"},
    "random Y": {"Y solves sigma(Y)^-1 Y = mu X", "rho' is Y rho Y^-1"},
    "rho' perturbed": {"rho' is Y rho Y^-1", "rho' commutes with the sigma/tau twist"},
    "2 witness": {"witness norm is lambda^-1", "Y solves sigma(Y)^-1 Y = mu X"},
    "2X": {"twisted norm of X is lambda_rep I", "Y solves sigma(Y)^-1 Y = mu X"},
    "3 lambda": {
        "twisted norm of X is lambda_rep I",
        "is_trivial matches the norm test",
        "lambda_canonical matches",
        "witness norm is lambda^-1",
    },
}


def test_verify_certificate_rejects_tampered_certificates(a5):
    cert = equivariant_form(a5, seed=0)
    assert verify_certificate(cert, a5).ok
    for name, bad in tampered_certificates(cert, a5):
        entries = dict(verify_certificate(bad, a5).entries)
        assert {e for e, holds in entries.items() if not holds} == FALSIFIED[name], name
        # the two identities with an inverse agree with their inverse-based forms
        y_inv = inverse(bad.y)
        assert entries["Y solves sigma(Y)^-1 Y = mu X"] == (inverse(bad.y.galois()) * bad.y == bad.witness * bad.x)
        assert entries["rho' is Y rho Y^-1"] == (bad.rho_prime == tuple(bad.y * m * y_inv for m in a5.images))
