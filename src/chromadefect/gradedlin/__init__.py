"""Exact graded linear algebra: prime-field elimination and canonical
abelian group presentations."""

from .integers import AbelianGroupPresentation
from .modp import (
    PrimeFieldMatrix,
    SubquotientBasis,
    check_prime,
    vec_from_terms,
    vec_support,
)

# the elimination kernels are pure python; kept for callers that
# record which implementation ran
BACKEND_NAME = "pure"

__all__ = [
    "BACKEND_NAME",
    "AbelianGroupPresentation",
    "PrimeFieldMatrix",
    "SubquotientBasis",
    "check_prime",
    "vec_from_terms",
    "vec_support",
]
