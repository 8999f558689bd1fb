"""Vector arithmetic over F_p through the package's vec_from_terms and
vec_support, for checking eliminations by substitution; the index of a
vector's last entry; the rank of a matrix and the residue of a vector
modulo its row space, read off the package's elimination kernels;
converters to and from dense residue tuples; and a dense elimination on
residue tuples, kept as an oracle for the package's packed one."""

from chromadefect.gradedlin import vec_from_terms, vec_support
from chromadefect.gradedlin.modp import fp_eliminate, gf2_eliminate


def eliminate(mat):
    """(pivots, ech, pivot_rows, dependent) of a PrimeFieldMatrix, over
    as many fields as its rows reach."""
    if mat.p == 2:
        return gf2_eliminate(mat.rows, mat.ncols)
    nfields = max([vec_last(mat.p, row) + 1 for row in mat.rows] + [mat.ncols])
    return fp_eliminate(mat.p, mat.rows, mat.ncols, nfields)


def rank(mat):
    return len(eliminate(mat)[0])


def residue(mat, v):
    """v modulo the row space of M: every pivot column cleared by the
    echelon rows, so it is zero exactly when v lies in the row space,
    and the same for every vector of one coset."""
    pivots, ech = eliminate(mat)[:2]
    for col, row in sorted(zip(pivots, ech)):
        f = dict(vec_support(mat.p, v)).get(col)
        if f:
            v = vec_add(mat.p, v, vec_scale(mat.p, row, -f))
    return v


def vec_last(p, v):
    """The index of v's last nonzero coefficient; -1 for zero."""
    support = vec_support(p, v)
    return support[-1][0] if support else -1


def dense(p, v, n):
    """The vector v as a residue tuple of length n."""
    out = [0] * n
    for k, c in vec_support(p, v):
        out[k] = c
    return tuple(out)


def sparse(p, tup):
    """The residue tuple tup as a vector, entries reduced mod p."""
    return vec_from_terms(p, enumerate(tup))


def vec_add(p, a, b):
    return vec_from_terms(p, vec_support(p, a) + vec_support(p, b))


def vec_scale(p, v, c):
    return vec_from_terms(p, [(k, c * x) for k, x in vec_support(p, v)])


def row_action(mat, x):
    """x.M for a PrimeFieldMatrix M and a vector x over F^nrows."""
    out = 0
    for i, c in vec_support(mat.p, x):
        out = vec_add(mat.p, out, vec_scale(mat.p, mat.rows[i], c))
    return out


def in_row_space(mat, v):
    """v lies in the row space of M exactly when appending it as a row
    leaves the rank unchanged."""
    grown = type(mat)(mat.p, mat.nrows + 1, mat.ncols, mat.rows + [v])
    return rank(grown) == rank(mat)


def dense_eliminate(p, rows, ncols):
    """Dense elimination mod a prime on residue tuples, with the
    (pivots, ech, pivot_rows, dependent) contract of fp_eliminate:
    echelon rows scaled to a unit pivot, and the trailing entries of a
    dependent row as the tuple row[ncols:]."""
    ech = []
    pivots = []
    pivot_rows = []
    dependent = []
    pivot_at = {}
    for i, row in enumerate(rows):
        v = list(row)
        col = 0
        while True:
            # entries left of a cleared pivot stay zero
            col = next((k for k in range(col, ncols) if v[k]), None)
            if col is None:
                dependent.append(tuple(v[ncols:]))
                break
            j = pivot_at.get(col)
            if j is None:
                inv = pow(v[col], p - 2, p)
                pivot_at[col] = len(ech)
                pivots.append(col)
                ech.append(tuple((inv * x) % p for x in v))
                pivot_rows.append(i)
                break
            f = v[col]
            v = [(a - f * b) % p for a, b in zip(v, ech[j])]
    return pivots, ech, pivot_rows, dependent


def dense_residue(p, pivots, ech, v):
    """The residue tuple v with every pivot column cleared by the dense
    unit-pivot echelon rows."""
    v = list(v)
    for col, row in sorted(zip(pivots, ech)):
        f = v[col]
        if f:
            v = [(a - f * b) % p for a, b in zip(v, row)]
    return tuple(v)
