"""Exact graded linear algebra: prime-field elimination.

Canonical abelian group presentations live in `.integers`; only the ko
chart engine (`ssq`) needs them and imports them from there."""

from . import modp
from .modp import (
    PrimeFieldMatrix,
    SubquotientBasis,
    check_prime,
    subquotient,
    vec_combine,
    vec_from_terms,
    vec_support,
)

# the elimination kernels are pure python; kept for callers that
# record which implementation ran
BACKEND_NAME = "pure"

__all__ = ["BACKEND_NAME", *modp.__all__]
