"""The induced representation of the extended group H x| <tau>, its crossed
product endomorphisms, and the Schur index report.

Restricted to H, ind(rho) is the direct sum of the r twists
sigma^i o rho o tau^-i, and tau acts on it sigma-semilinearly by the block
shift: v -> P sigma(v).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import EndomorphismCheckFailed, InternalInvariantViolation
from .field import FieldElement
# inverse is not called here; bench/selftest.py checks the traced run rebinds this copy
from .linalg import Mat, inverse, matrix_norm, solve_sylvester_space  # noqa: F401
from .rep import Representation, Word, check_relations, evaluate_word, twist
from .equivariance import LambdaInvariant, compute_X, decide_lambda, _scalar_of


@dataclass
class InducedRep:
    """Block model of the induced representation.  twists[i] is
    rho o tau^-i; generator g of H maps to diag(sigma^i twists[i](g)), and
    tau to v -> P sigma(v) for the block shift P, which moves block i-1 to
    block i."""

    rep: Representation
    twists: tuple[Representation, ...]

    @property
    def dim(self) -> int:
        return self.rep.dim * self.rep.ext.degree

    def evaluate(self, word: Word) -> Mat:
        ext, n = self.rep.ext, self.rep.dim
        rows = [[ext.zero()] * self.dim for _ in range(self.dim)]
        for i, tw in enumerate(self.twists):
            for a, row in enumerate(evaluate_word(tw, word).galois(i).rows):
                rows[i * n + a][i * n:(i + 1) * n] = row
        return Mat(ext, rows)


def build_induced(rep: Representation) -> InducedRep:
    """Build the twists and verify the semidirect relations hold.

    The relations hold in the blocks iff they hold in every twist.
    Conjugating the image of g by the block shift puts sigma(block i-1) =
    sigma^i rho(tau^(1-i)(g)) at block i, which is the image of tau(g) there
    at every block but 1; at block 1 that needs rho o tau^r = rho.
    """
    r = rep.ext.degree
    twists = (rep,) + tuple(twist(rep, r - i) for i in range(1, r))
    if not all(check_relations(tw).ok for tw in twists):
        raise InternalInvariantViolation("a relation fails in the induced blocks")
    if twist(rep, r).images != rep.images:
        raise InternalInvariantViolation("tau conjugation disagrees with tau images")
    return InducedRep(rep, twists)


class CrossedProduct:
    """The endomorphisms m_lambda and xi of the induced representation.

    m(lam) is diag(sigma^i(lam) I); xi has sigma^(i-1)(X) on the block
    subdiagonal and sigma^(r-1)(X) in the corner.  Block (i, i-1) of
    xi D - D xi, for D a generator block, is sigma^(i-1) of
    X twists[i-1](g) - sigma(twists[i](g)) X, so xi is an endomorphism iff
    X intertwines each pair of consecutive twists; that is the one check
    made.  m(t) and the tau block pass by sigma^r = 1 alone.
    lambda_rep, the twisted norm scalar of X, is what xi^r must recover.
    The twisted norm is computed once, here.
    """

    def __init__(self, induced: InducedRep, x: Mat):
        self.induced = induced
        self.x = x
        self.ext = induced.rep.ext
        self._norm_x = matrix_norm(x)
        self.lambda_rep = _scalar_of(self._norm_x)
        tw = induced.twists
        for i in range(self.ext.degree):
            for before, after in zip(tw[i - 1].images, tw[i].images):
                if x * before != after.galois() * x:
                    raise EndomorphismCheckFailed("xi does not commute with a generator block")

    def relation_report(self, lam1, lam2) -> list[tuple[str, bool]]:
        """The defining crossed-product relations, instantiated at lam1, lam2.

        m(lam) is block scalar, so the m relations compare [sigma^i(lam)];
        block (i, i-1) of m(lam) xi is sigma^i(lam) sigma^(i-1)(X), and
        block i of xi^r is sigma^i of the twisted norm of X.
        """
        r = self.ext.degree
        lam1 = self.ext.element(lam1)
        lam2 = self.ext.element(lam2)

        def conjugates(lam):
            return [lam.galois(i) for i in range(r)]

        c1, c2, shifted = conjugates(lam1), conjugates(lam2), conjugates(lam1.galois())
        xs = [self.x.galois(i) for i in range(r)]
        ident = Mat.identity(self.ext, self.x.nrows)
        return [
            ("m is additive", [a + b for a, b in zip(c1, c2)] == conjugates(lam1 + lam2)),
            ("m is multiplicative", [a * b for a, b in zip(c1, c2)] == conjugates(lam1 * lam2)),
            ("m twists past xi", all(c1[i] * xs[i - 1] == xs[i - 1] * shifted[i - 1] for i in range(r))),
            ("xi^r recovers lambda", self._norm_x == self.lambda_rep * ident),
        ]


def build_crossed_product(rep: Representation) -> CrossedProduct:
    return CrossedProduct(build_induced(rep), compute_X(rep))


def endomorphism_dim(ind: InducedRep) -> int:
    """Q-dimension of the algebra commuting with the induced representation,
    including the sigma-twisted condition at the tau block.  Equals r^2 for
    an absolutely irreducible rep satisfying the twist hypothesis.

    E commutes with the tau block p (E p = p sigma(E)) iff
    E_(i,j) = sigma^i(E_(0,j-i)), so block row 0 determines E.  Block
    (0, j) of E D = D E for a generator block D reads
    E sigma^j(twist_j(g)) = twist_0(g) E, which is L-linear in E_(0,j); the
    other block rows are sigma^i of these at tau^-i(g), and those g generate
    H too.  So the dimension is r sum_j dim_L Hom_H(sigma^j o twist_j,
    twist_0), one n x n intertwiner space per j.
    """
    r = ind.rep.ext.degree
    base = ind.twists[0].images
    return r * sum(
        len(solve_sylvester_space([(a.galois(j), b) for a, b in zip(ind.twists[j].images, base)])) for j in range(r)
    )


@dataclass
class SchurReport:
    index: int
    invariant: LambdaInvariant
    symbol: Optional[tuple[Fraction, int]]  # (canonical lambda, disc core) when index 2


def schur_index(cp: CrossedProduct, witness: Optional[FieldElement] = None) -> SchurReport:
    """Schur index of the induced representation over Q, decided through the
    norm class of the crossed product's lambda.  Quadratic extensions are
    decided outright, for odd n from the twisted norm of cp.x (see
    decide_lambda); r > 2 needs a witness and can only certify index 1."""
    inv = decide_lambda(cp.lambda_rep, cp._norm_x, witness)
    if inv.is_trivial:
        return SchurReport(1, inv, None)
    return SchurReport(2, inv, (inv.lambda_canonical, cp.ext.disc_core))
