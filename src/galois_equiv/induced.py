"""The induced representation of the extended group H x| <tau>, its crossed
product endomorphisms, and the Schur index report, all from one solved X.

Restricted to H, ind(rho) is the direct sum of the r twists
sigma^i o rho o tau^-i, and tau acts on it sigma-semilinearly by the block
shift: v -> P sigma(v).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import ParseError
from .field import FieldElement
# inverse is not called here; bench/selftest.py checks the traced run rebinds this copy
from .linalg import Mat, inverse, matrix_norm, solve_sylvester_space  # noqa: F401
from .rep import Representation, Word, check_relations, evaluate_word, require_tau_period, twist
from .equivariance import LambdaInvariant, compute_X, decide_lambda, _scalar_of


class InducedRep(NamedTuple):
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
    """Build the twists; a ParseError unless rho's relations and rho o tau^r = rho hold.

    The relations hold in the blocks iff they hold in every twist; in twists
    1 ... r-1 they follow from X (see CrossedProduct).  Conjugating the image
    of g by the block shift puts sigma(block i-1) = sigma^i rho(tau^(1-i)(g))
    at block i, which is the image of tau(g) there at every block but 1; at
    block 1 that needs rho o tau^r = rho.
    """
    require_tau_period(rep)
    for k, (word, holds) in enumerate(check_relations(rep).entries):
        if not holds:
            raise ParseError(f"relation {word!r} fails in rho", f"group.relations[{k}]")
    r = rep.ext.degree
    return InducedRep(rep, (rep,) + tuple(twist(rep, r - i) for i in range(1, r)))


class CrossedProduct:
    """The endomorphisms m_lambda and xi of the induced representation.

    m(lam) is diag(sigma^i(lam) I); xi has sigma^(i-1)(X) on the block
    subdiagonal and sigma^(r-1)(X) in the corner, for X = compute_X(rho).
    m(t) and the tau block pass by sigma^r = 1 alone.  Block (i, i-1) of
    xi D - D xi, for D the block of g, is sigma^(i-1) of X rho(h) -
    sigma(rho(tau^-1(h))) X at h = tau^(r-i+1)(g), since rho o tau^r = rho
    (build_induced); compute_X certified that identity on the generators, so
    it holds at every word h and nothing is checked here.  lambda_rep, the
    twisted norm scalar of X (computed once, here), is what xi^r must
    recover; _scalar_of raises unless X is invertible, so a relator holds in
    each twist iff in rho: sigma(twists[i](w)) = X twists[i-1](w) X^-1.
    """

    def __init__(self, induced: InducedRep):
        self.induced = induced
        self.x = compute_X(induced.rep)
        self.ext = induced.rep.ext
        self._norm_x = matrix_norm(self.x)
        self.lambda_rep = _scalar_of(self._norm_x)

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
    """Its commutant has Q-dimension r^2.  CrossedProduct raised unless its X
    is invertible and spans Hom(rho, sigma o rho o tau^-1), so End_H(rho) = L I;
    and B_j rho(g) = sigma^j(twists[j](g)) B_j for B_j in
    twisted_norm_chain(X), so each Hom_j of endomorphism_dim is L B_j^-1."""
    return CrossedProduct(build_induced(rep))


def endomorphism_dim(ind: InducedRep) -> int:
    """Q-dimension of the algebra commuting with the induced representation,
    including the sigma-twisted condition at the tau block, for any rho; the
    induce command reads it off X as r^2 instead (build_crossed_product).

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


class SchurReport(NamedTuple):
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
