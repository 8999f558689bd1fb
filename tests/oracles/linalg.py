"""Vector arithmetic over F_p, in the package's two encodings (int
bitmasks at p = 2, sorted (column, coefficient) pair tuples at odd p),
for checking eliminations by substitution; the rank of a matrix and the
residue of a vector modulo its row space, read off the package's
elimination kernels; converters to and from dense residue tuples; and
the dense odd-prime elimination the package used before its rows
became sparse, kept as an oracle for the sparse one."""

from chromadefect.gradedlin.modp import _clear, fp_eliminate, gf2_eliminate


def eliminate(mat):
    """(pivots, ech, pivot_rows, dependent) of a PrimeFieldMatrix."""
    if mat.p == 2:
        return gf2_eliminate(mat.rows, mat.ncols)
    return fp_eliminate(mat.p, mat.rows, mat.ncols)


def rank(mat):
    return len(eliminate(mat)[0])


def residue(mat, v):
    """v modulo the row space of M: every pivot column cleared by the
    echelon rows, so it is zero exactly when v lies in the row space,
    and the same for every vector of one coset."""
    pivots, ech = eliminate(mat)[:2]
    if mat.p == 2:
        for col, row in sorted(zip(pivots, ech)):
            if (v >> col) & 1:
                v ^= row
        return v
    v = dict(v)
    for col, row in sorted(zip(pivots, ech)):
        f = v.get(col)
        if f:
            _clear(mat.p, v, f, row)
    return tuple(sorted(v.items()))


def vec_zero(p):
    return 0 if p == 2 else ()


def dense(p, v, n):
    """The odd-prime pair tuple v as a residue tuple of length n."""
    out = [0] * n
    for k, c in v:
        out[k] = c
    return tuple(out)


def sparse(p, tup):
    """The residue tuple tup as a pair tuple, entries reduced mod p."""
    return tuple((k, c % p) for k, c in enumerate(tup) if c % p)


def vec_add(p, a, b):
    if p == 2:
        return a ^ b
    acc = dict(a)
    for k, c in b:
        acc[k] = (acc.get(k, 0) + c) % p
    return tuple(sorted((k, c) for k, c in acc.items() if c))


def vec_scale(p, v, c):
    if p == 2:
        return v if c % 2 else 0
    c %= p
    return tuple((k, c * x % p) for k, x in v) if c else ()


def row_action(mat, x):
    """x.M for a PrimeFieldMatrix M and a vector x over F^nrows."""
    p = mat.p
    out = vec_zero(p)
    coefs = [(i, 1) for i in range(mat.nrows) if (x >> i) & 1] if p == 2 else x
    for i, c in coefs:
        out = vec_add(p, out, vec_scale(p, mat.rows[i], c))
    return out


def in_row_space(mat, v):
    """v lies in the row space of M exactly when appending it as a row
    leaves the rank unchanged."""
    grown = type(mat)(mat.p, mat.nrows + 1, mat.ncols, mat.rows + [v])
    return rank(grown) == rank(mat)


def dense_eliminate(p, rows, ncols):
    """Dense elimination mod an odd prime on residue tuples, with the
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
