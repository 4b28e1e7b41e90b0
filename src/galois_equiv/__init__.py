"""Exact decision procedures for Galois-equivariant forms of matrix representations."""

from .field import (
    CyclicExtension,
    FieldElement,
    canonical_lambda,
    factor,
    hilbert_symbol,
    is_norm,
    norm,
    norm_witness,
)
from .linalg import Mat, inverse, matrix_norm
from .rep import (
    GroupData,
    Representation,
    burnside_dim,
    check_automorphism,
    check_relations,
    evaluate_word,
    parse_word,
)
from .equivariance import (
    EquivarianceCertificate,
    LambdaInvariant,
    compute_X,
    equivariant_form,
    hilbert90,
    lambda_invariant,
    verify_certificate,
)
from .induced import (
    CrossedProduct,
    InducedRep,
    SchurReport,
    build_crossed_product,
    build_induced,
    endomorphism_dim,
    schur_index,
)

__all__ = [
    "CrossedProduct",
    "CyclicExtension",
    "EquivarianceCertificate",
    "FieldElement",
    "GroupData",
    "InducedRep",
    "LambdaInvariant",
    "Mat",
    "Representation",
    "SchurReport",
    "build_crossed_product",
    "build_induced",
    "burnside_dim",
    "canonical_lambda",
    "check_automorphism",
    "check_relations",
    "compute_X",
    "endomorphism_dim",
    "equivariant_form",
    "evaluate_word",
    "factor",
    "hilbert90",
    "hilbert_symbol",
    "inverse",
    "is_norm",
    "lambda_invariant",
    "matrix_norm",
    "norm",
    "norm_witness",
    "parse_word",
    "schur_index",
    "verify_certificate",
]

__version__ = "0.1.0"
