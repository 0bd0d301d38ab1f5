"""Exact basis construction and verification for the derivation module of
the cone over the Shi arrangement of type D."""

from .arrangement import Arrangement, LinearForm, shi_d_cone
from .bernoulli import (
    BernoulliRelative,
    antisymmetrize,
    discrete_antiderivative,
    make_bernoulli,
    rhs_poly,
)
from .exactpoly import (
    DivisionNotExactError,
    ExponentOverflowError,
    Poly,
    divides,
    elementary_symmetric,
    exact_div,
)
from .oracle import (
    GradedDimReport,
    charpoly_count,
    derivation_dim,
    expected_count,
    expected_dim,
)
from .shi_basis import (
    Derivation,
    TermIndex,
    apply,
    basis,
    build_euler,
    build_phi,
    enumerate_k1_k2,
)
from .verify import (
    VerificationReport,
    bareiss_det,
    check_membership,
    coefficient_matrix,
    lemma_identity_checks,
    minor_expansion_det,
    saito_verify,
)

__version__ = "0.1.0"

__all__ = [
    "Arrangement",
    "BernoulliRelative",
    "Derivation",
    "DivisionNotExactError",
    "ExponentOverflowError",
    "GradedDimReport",
    "LinearForm",
    "Poly",
    "TermIndex",
    "VerificationReport",
    "antisymmetrize",
    "apply",
    "bareiss_det",
    "basis",
    "build_euler",
    "build_phi",
    "charpoly_count",
    "check_membership",
    "coefficient_matrix",
    "derivation_dim",
    "discrete_antiderivative",
    "divides",
    "elementary_symmetric",
    "enumerate_k1_k2",
    "exact_div",
    "expected_count",
    "expected_dim",
    "lemma_identity_checks",
    "make_bernoulli",
    "minor_expansion_det",
    "rhs_poly",
    "saito_verify",
    "shi_d_cone",
    "__version__",
]
