"""Deciding whether a representation admits a Galois-equivariant form.

The pipeline: compute the intertwiner X between rho and its sigma/tau twist,
read off the norm invariant lambda from sigma^(r-1)(X)...sigma(X)X = lambda I,
decide lambda mod norms, and when trivial rescale X and solve the matrix
Hilbert 90 equation sigma(Y)^-1 Y = X by telescoping, giving the conjugated
representation rho' = Y rho Y^-1 which commutes with the twist.

For quadratic L and odd n, N(X) = lambda I gives N(det X) = lambda^n, so
w = det X lambda^-(n-1)/2 has N(w) = lambda: N(X) alone decides lambda.
equivariant_form still rescales by norm_witness(lambda), keeping Y and rho'.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import (
    BadWitness,
    InternalInvariantViolation,
    NotEquivalent,
    NotIrreducible,
    Singular,
    Unsupported,
)
from .field import FieldElement, canonical_lambda, norm, norm_witness
from .linalg import IncrementalSpan, Mat, inverse, matrix_norm, require_invertible
from .linalg import solve_sylvester_space, twisted_norm_chain
from .rep import CheckReport, Representation, require_tau_period, twist

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


class _LinearGenerator:
    """64-bit linear congruential generator drawing small integers."""

    def __init__(self, seed: int):
        self.state = (seed ^ 0x9E3779B97F4A7C15) & _LCG_MASK
        self.draw()

    def draw(self) -> int:
        self.state = (_LCG_MULT * self.state + _LCG_INC) & _LCG_MASK
        return self.state

    def small(self) -> int:
        """Uniform-ish in [-3, 3]."""
        return (self.draw() >> 33) % 7 - 3


def twisted_images(rep: Representation) -> list[tuple[Mat, Mat]]:
    """Pairs (rho(g), sigma(rho(tau^-1(g)))) for each generator g, read from
    the twist rho o tau^(r-1) that build_induced shares."""
    back = twist(rep, rep.ext.degree - 1)
    return [(image, twisted.galois()) for image, twisted in zip(rep.images, back.images)]


def compute_X(rep: Representation) -> Mat:
    """The intertwiner X with X rho(g) = sigma(rho(tau^-1(g))) X, exactly on
    each generator g, normalized so its first nonzero entry (row-major) is 1.

    Raises a ParseError at group.tau unless rho o tau^r = rho, NotEquivalent
    when no nonzero intertwiner exists and NotIrreducible when the
    intertwiner space has L-dimension above 1.

    By rho o tau^r = rho, N(X) = sigma^(r-1)(X) ... sigma(X) X commutes with
    rho: it is lambda I if X is invertible and its space a line.  t -> theta_0
    sends sigma^i(X) to K_i, X's image at theta_i, so the last root's kernel
    K_(r-1) is M^-1, M = K_(r-2) ... K_0, scaled to 1 at its last nonzero
    entry, with no elimination.  A prime in a denominator of X puts that
    entry left of X's free column and is skipped, as elimination would skip
    it.  If a K_i is not single or M is singular mod p, K_(r-1) is eliminated.
    """
    require_tau_period(rep)
    basis = solve_sylvester_space(twisted_images(rep), twisted=True)
    if not basis:
        raise NotEquivalent("rho is not equivalent to its sigma/tau twist")
    if len(basis) > 1:
        raise NotIrreducible(
            f"intertwiner space has L-dimension {len(basis)}; rho is not absolutely irreducible"
        )
    x = basis[0]
    lead = next((i, j) for i, row in enumerate(x.num) for j, e in enumerate(row) if any(e))
    return x * x[lead].inverse()


class LambdaInvariant(NamedTuple):
    lambda_rep: Fraction
    lambda_canonical: Fraction
    is_trivial: bool


def _scalar_of(n: Mat) -> Fraction:
    """lambda, for a twisted norm n = lambda I.  det N(X) = N(det X), so a
    singular n comes from a singular X != 0, whose kernel is a proper nonzero
    rho-stable subspace: rho is then not absolutely irreducible."""
    lam = n[0, 0]
    if not (lam and n.is_scalar()):
        try:
            require_invertible(n)
        except Singular:
            raise NotIrreducible("the intertwiner X is singular; rho is not absolutely irreducible") from None
        raise InternalInvariantViolation("twisted norm of X is not scalar")
    if not lam.is_rational():
        raise InternalInvariantViolation("twisted norm of X is not rational")
    return lam.as_rational()


def _witness_to_rescaler(witness: FieldElement, lam: Fraction) -> FieldElement:
    """Accept a witness with norm lambda^-1 (used directly) or norm lambda
    (inverted); anything else is a BadWitness."""
    nw = norm(witness)
    if nw == 1 / lam:
        return witness
    if nw == lam:
        return witness.inverse()
    raise BadWitness(f"witness norm {nw} matches neither lambda nor its inverse")


def lambda_invariant(rep: Representation, witness: Optional[FieldElement] = None) -> LambdaInvariant:
    """(lambda_rep, lambda_canonical, is_trivial) for the intertwiner of rep."""
    norm_x = matrix_norm(compute_X(rep))
    return decide_lambda(_scalar_of(norm_x), norm_x, witness)


def decide_lambda(lam: Fraction, norm_x: Mat, witness: Optional[FieldElement]) -> LambdaInvariant:
    """The class of lambda mod norms, given the twisted norm N(X) of X.

    A supplied witness is checked first at every degree: one of norm lambda
    or 1/lambda decides the class trivial, any other is a BadWitness.  Without
    one, r > 2 is Unsupported.  For quadratic L and odd n, N(X) = lambda I
    decides it trivial (see the module docstring); Hilbert symbols decide
    even n and any lambda that X does not give.
    """
    if witness is not None:
        _witness_to_rescaler(witness, lam)
        return LambdaInvariant(lam, Fraction(1), True)
    if norm_x.ext.degree != 2:
        raise Unsupported("deciding lambda mod norms needs a witness when r > 2")
    if norm_x.nrows % 2 and lam and norm_x.is_scalar() and norm_x[0, 0] == lam:
        return LambdaInvariant(lam, Fraction(1), True)
    canonical = canonical_lambda(lam, norm_x.ext)
    return LambdaInvariant(lam, canonical, canonical == 1)


def hilbert90(x: Mat, seed: int = 0) -> Mat:
    """Solve sigma(Y)^-1 Y = X for invertible Y, given matrix_norm(X) = I.

    Telescoping: in twisted_norm_chain(X), B_0 = I and B_(i+1) = sigma(B_i) X,
    B_r is N(X), which must be I, and v = sum_(i<r) sigma^i(c) B_i has
    sigma(v) X = v for any rows c.  Row k of Y is row k of V, for C the
    seeded random n x n matrix, unless it lies in the span of the rows
    before it; then it is the first basis row t^j e_l, telescoped when
    reached, outside that span.
    Those images span L^n (Speiser's lemma), so Y is always invertible.
    """
    ext, r, n = x.ext, x.ext.degree, x.nrows
    bs = twisted_norm_chain(x)
    if not bs.pop().is_identity():
        raise ValueError("hilbert90 needs matrix_norm(X) = I")

    def telescope(c: Mat) -> Mat:
        return sum((c.galois(i) * bs[i] for i in range(1, r)), c)

    gen = _LinearGenerator(seed)
    v = telescope(Mat(ext, [[ext.element([gen.small() for _ in range(r)]) for _ in range(n)] for _ in range(n)]))
    t = ext.gen()
    speiser = (telescope(Mat(ext, [[t**j if m == k else 0 for m in range(n)]])) for k in range(n) for j in range(r))
    span = IncrementalSpan(ext, n)
    rows = []
    for num, row in zip(v.num, v.rows):
        if not span.insert(num):
            row = next(u for u in speiser if span.insert(u.num[0])).rows[0]
        rows.append(row)
    y = Mat(ext, rows)
    if y.galois() * x != y:  # sigma(Y)^-1 Y = X, as Y is invertible
        raise InternalInvariantViolation("telescoped Y failed its defining identity")
    return y


class EquivarianceCertificate(NamedTuple):
    """Everything needed to re-verify the decision and construction."""

    x: Mat
    lambda_rep: Fraction
    lambda_canonical: Fraction
    is_trivial: bool
    witness: Optional[FieldElement]  # the rescaling scalar mu
    y: Optional[Mat]
    rho_prime: Optional[tuple[Mat, ...]]
    seed: int


def equivariant_form(
    rep: Representation,
    seed: int = 0,
    witness: Optional[FieldElement] = None,
    replay_y: Optional[Mat] = None,
) -> EquivarianceCertificate:
    """Decide equivariance and construct Y and rho' when the invariant is trivial.

    The seed picks the random rows of Hilbert 90.  A replayed Y replaces the
    construction: it must be invertible and solve sigma(Y)^-1 Y = c X, that
    is Y = c sigma(Y) X, for a scalar c compatible with lambda.
    """
    x = compute_X(rep)
    norm_x = matrix_norm(x)
    lam = _scalar_of(norm_x)

    # mu, the scalar rescaling X to twisted norm 1, checked where it is
    # obtained; a supplied witness is checked even when a replayed Y gives mu
    mu = None if witness is None else _witness_to_rescaler(witness, lam)
    if replay_y is not None:
        require_invertible(replay_y)
        z = replay_y.galois() * x  # not 0, as Y is invertible and X is not 0
        mu = next(ye * ze.inverse() for ye, ze in zip(replay_y.flatten(), z.flatten()) if ze)
        if replay_y != mu * z:
            raise BadWitness("replayed Y does not solve the twisted equation for X")
        if norm(mu) * lam != 1:
            raise BadWitness("replayed Y implies an incompatible scalar")
    elif mu is None:
        inv = decide_lambda(lam, norm_x, None)
        if not inv.is_trivial:
            cert = EquivarianceCertificate(x, lam, inv.lambda_canonical, False, None, None, None, seed)
            _require_valid(cert, rep)
            return cert
        mu = norm_witness(lam, rep.ext).inverse()  # its norm is checked in the search

    # hilbert90 rejects mu X unless its twisted norm is I
    y = replay_y if replay_y is not None else hilbert90(mu * x, seed=seed)
    cert = EquivarianceCertificate(x, lam, Fraction(1), True, mu, y, _conjugate(rep, y), seed)
    _require_valid(cert, rep)
    return cert


def _conjugate(rep: Representation, y: Mat) -> tuple[Mat, ...]:
    y_inv = inverse(y)
    return tuple(y * m * y_inv for m in rep.images)


def verify_certificate(cert: EquivarianceCertificate, rep: Representation) -> CheckReport:
    """Re-check every claim in a certificate against rep, from scratch.  A
    witness of norm lambda^-1 decides the class trivial, as in decide_lambda;
    without one decide_lambda re-decides it, so at r > 2 a certificate with no
    valid witness has no decision entries.  Y and rho' are given exactly
    when the class is trivial.  Y is certified invertible first, so the
    identities with Y^-1 are products: rho' Y = Y rho, and then
    sigma o rho' = rho' o tau is sigma(rho'(g)) Y = Y rho(tau(g)), read from
    the twist rho o tau that twisted_images built; no word is evaluated over
    rho'."""
    entries = []
    ext = rep.ext
    ident = Mat.identity(ext, rep.dim)

    intertwines = all(
        cert.x * a == b * cert.x for a, b in twisted_images(rep)
    )
    entries.append(("X intertwines rho with its twist", intertwines))

    norm_x = matrix_norm(cert.x)
    entries.append(("twisted norm of X is lambda_rep I", norm_x == cert.lambda_rep * ident))

    witnessed = cert.witness is not None and norm(cert.witness) * cert.lambda_rep == 1
    if witnessed or ext.degree == 2:
        canonical = Fraction(1) if witnessed else decide_lambda(cert.lambda_rep, norm_x, None).lambda_canonical
        entries.append(("is_trivial matches the norm test", cert.is_trivial == (canonical == 1)))
        entries.append(("lambda_canonical matches", cert.lambda_canonical == canonical))

    if cert.witness is not None:
        entries.append(("witness norm is lambda^-1", witnessed))

    y, rho_prime = cert.y, cert.rho_prime
    constructed = y is not None and rho_prime is not None
    entries.append(("Y and rho' are given exactly when trivial", constructed == cert.is_trivial))

    if y is not None:
        require_invertible(y)
        solves = cert.witness is not None and y.galois() * (cert.witness * cert.x) == y
        entries.append(("Y solves sigma(Y)^-1 Y = mu X", solves))

    if rho_prime is not None:
        given = y is not None and len(rho_prime) == len(rep.images)
        conjugates = given and all(a * y == y * b for a, b in zip(rho_prime, rep.images))
        entries.append(("rho' is Y rho Y^-1", conjugates))
        twisted = given and all(a.galois() * y == y * t for a, t in zip(rho_prime, twist(rep, 1).images))
        entries.append(("rho' commutes with the sigma/tau twist", twisted))

    return CheckReport(entries)


def _require_valid(cert: EquivarianceCertificate, rep: Representation):
    report = verify_certificate(cert, rep)
    if not report.ok:
        failed = [name for name, h in report.entries if not h]
        raise InternalInvariantViolation(f"certificate failed self-check: {failed}")
