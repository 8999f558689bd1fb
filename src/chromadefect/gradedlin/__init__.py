"""Exact graded linear algebra: prime fields and integer lattices."""

from .integers import (
    AbelianGroupPresentation,
    IntegerMatrix,
    homology_at,
    integer_row_kernel,
    integer_solve_row,
    invariant_factors,
    lattice_row_basis,
    quotient_presentation,
    smith_normal_form,
    subquotient,
)
from .modp import (
    PrimeFieldMatrix,
    SparseEchelonGF2,
    SubquotientBasis,
    gf2_eliminate,
    vec_add,
    vec_entry,
    vec_from_terms,
    vec_is_zero,
    vec_scale,
    vec_support,
    vec_zero,
)

# the elimination kernels are pure python; kept for callers that
# record which implementation ran
BACKEND_NAME = "pure"

__all__ = [
    "BACKEND_NAME",
    "AbelianGroupPresentation",
    "IntegerMatrix",
    "PrimeFieldMatrix",
    "SparseEchelonGF2",
    "SubquotientBasis",
    "gf2_eliminate",
    "homology_at",
    "integer_row_kernel",
    "integer_solve_row",
    "invariant_factors",
    "lattice_row_basis",
    "quotient_presentation",
    "smith_normal_form",
    "subquotient",
    "vec_add",
    "vec_entry",
    "vec_from_terms",
    "vec_is_zero",
    "vec_scale",
    "vec_support",
    "vec_zero",
]
