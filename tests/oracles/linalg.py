"""Vector arithmetic over F_p, in the package's two encodings (int
bitmasks at p = 2, residue tuples at odd p), for checking eliminations
by substitution."""


def vec_zero(p, n):
    return 0 if p == 2 else (0,) * n


def vec_add(p, a, b):
    if p == 2:
        return a ^ b
    return tuple((x + y) % p for x, y in zip(a, b))


def vec_scale(p, v, c):
    if p == 2:
        return v if c % 2 else 0
    c %= p
    return tuple((c * x) % p for x in v)


def row_action(mat, x):
    """x.M for a PrimeFieldMatrix M and a vector x over F^nrows."""
    p = mat.p
    out = vec_zero(p, mat.ncols)
    for i in range(mat.nrows):
        c = (x >> i) & 1 if p == 2 else x[i]
        if c:
            out = vec_add(p, out, vec_scale(p, mat.rows[i], c))
    return out


def in_row_space(mat, v):
    """v lies in the row space of M exactly when appending it as a row
    leaves the rank unchanged."""
    grown = type(mat)(mat.p, mat.nrows + 1, mat.ncols, mat.rows + [v])
    return grown.rank() == mat.rank()
