"""Exact graded linear algebra: prime-field elimination on packed
vectors, a matrix being the list of its rows (see `.modp`).

Canonical abelian group presentations live in `.integers`; only the ko
chart engine (`ssq`) needs them and imports them from there."""

from . import modp
from .modp import (
    SubquotientBasis,
    check_prime,
    subquotient,
    vec_combine,
    vec_from_terms,
    vec_support,
)

# the elimination kernels are pure python.  benchmark/child.py reads
# this name on every run to record which implementation ran, so
# deleting it fails every benchmark workload
BACKEND_NAME = "pure"

__all__ = ["BACKEND_NAME", *modp.__all__]
