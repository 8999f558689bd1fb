"""Exact linear algebra over prime fields.

Vectors over F_2 are int bitmasks.  Vectors over odd primes are sparse:
tuples of (column, coefficient) pairs with strictly increasing columns
and coefficients in 1..p-1, so each vector has one encoding, hashes as
a tuple, and is falsy exactly when it is zero.  Matrices act on row
vectors: a matrix M with nrows rows and ncols columns is the map
x -> x.M from F^nrows to F^ncols, row i being the image of the i-th
basis vector.  That orientation matches how chain differentials are
assembled everywhere downstream.

Each field has one elimination kernel, gf2_eliminate on bitmasks and
fp_eliminate on pair tuples.  A row's pivot is its first nonzero column
(the lowest set bit at p = 2), so every nonzero row-space vector starts
at a pivot column.  Entries at ncols and beyond are never pivots and
travel with their row, so kernel_vectors appends the unit vector e_i
there as one entry of row i: no tracked mode.
"""

from .. import InputError

__all__ = [
    "PrimeFieldMatrix",
    "SubquotientBasis",
    "check_prime",
    "vec_from_terms",
    "vec_support",
]


# the first thirteen primes as Miller-Rabin bases decide primality
# exactly below 3.3e24 (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def check_prime(p):
    """p itself when it is prime; InputError "<p> is not prime" otherwise,
    and an InputError too for a p past the range the gate decides."""
    if p < 2 or not _strong_probable_prime(p):
        raise InputError(f"{p} is not prime")
    if p >= _MR_EXACT_BELOW:
        raise InputError(f"{p} is too large for the primality gate")
    return p


def _strong_probable_prime(n):
    """True when n > 1 passes the Miller-Rabin test to every base."""
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def vec_from_terms(p, terms):
    """The vector sum of c * e_i over the (i, c) terms."""
    if p == 2:
        v = 0
        for i, c in terms:
            if c % 2:
                v ^= 1 << i
        return v
    acc = {}
    for i, c in terms:
        acc[i] = acc.get(i, 0) + c
    return tuple(sorted((i, c % p) for i, c in acc.items() if c % p))


def vec_support(p, v):
    """List of (index, coefficient) pairs with nonzero coefficient."""
    if p == 2:
        out = []
        while v:
            low = v & -v
            out.append((low.bit_length() - 1, 1))
            v ^= low
        return out
    return list(v)


def gf2_eliminate(rows, ncols):
    """Forward elimination over F2 on the columns below ncols.

    rows are int bitmasks; bits at ncols and above travel with their
    row.  Returns (pivots, ech, pivot_rows, dependent): echelon row k is
    ech[k], with pivot column pivots[k] (its lowest set bit), made from
    input row pivot_rows[k]; dependent holds, in input order, the bits
    past ncols (shifted down) of each input row that vanishes below it.
    """
    ech = []
    pivots = []
    pivot_rows = []
    dependent = []
    pivot_at = {}
    for i, v in enumerate(rows):
        while True:
            # -1 for a zero row
            col = (v & -v).bit_length() - 1
            if not 0 <= col < ncols:
                dependent.append(v >> ncols)
                break
            j = pivot_at.get(col)
            if j is None:
                pivot_at[col] = len(ech)
                pivots.append(col)
                ech.append(v)
                pivot_rows.append(i)
                break
            v ^= ech[j]
    return pivots, ech, pivot_rows, dependent


def _clear(p, v, f, row):
    """v -= f * row in place, on a {column: coefficient} dict."""
    for k, b in row:
        c = (v.get(k, 0) - f * b) % p
        if c:
            v[k] = c
        else:
            del v[k]


def fp_eliminate(p, rows, ncols):
    """Sparse elimination mod an odd prime; mirrors gf2_eliminate.

    rows are tuples of (column, coefficient) pairs.  A row is worked on
    as a dict, and its pivot is its lowest column; a column at ncols or
    past means the row vanishes below ncols.  Clearing a pivot adds
    only columns past it, so the lowest column never moves left.
    Echelon rows are pair tuples scaled to a unit pivot, and a
    dependent row leaves its pairs past ncols, shifted down by ncols.
    """
    ech = []
    pivots = []
    pivot_rows = []
    dependent = []
    pivot_at = {}
    for i, row in enumerate(rows):
        v = dict(row)
        while True:
            col = min(v, default=ncols)
            if col >= ncols:
                dependent.append(tuple(sorted((k - ncols, c) for k, c in v.items())))
                break
            j = pivot_at.get(col)
            if j is None:
                inv = pow(v[col], p - 2, p)
                pivot_at[col] = len(ech)
                pivots.append(col)
                ech.append(tuple(sorted((k, inv * c % p) for k, c in v.items())))
                pivot_rows.append(i)
                break
            _clear(p, v, v[col], ech[j])
    return pivots, ech, pivot_rows, dependent


def _eliminate(p, rows, ncols):
    if p == 2:
        return gf2_eliminate(rows, ncols)
    return fp_eliminate(p, rows, ncols)


class PrimeFieldMatrix:
    """Row-major matrix over F_p."""

    def __init__(self, p, nrows, ncols, rows):
        if p < 2:
            raise ValueError("p must be a prime >= 2")
        self.p = p
        self.nrows = nrows
        self.ncols = ncols
        if len(rows) != nrows:
            raise ValueError("row count mismatch")
        self.rows = list(rows)

    @classmethod
    def from_terms(cls, p, nrows, ncols, terms):
        """terms: iterable of (row, col, coefficient), with 0 <= row <
        nrows and 0 <= col < ncols; ValueError for an entry outside."""
        rows = [[] for _ in range(nrows)]
        for i, j, c in terms:
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise ValueError(f"entry ({i}, {j}) outside a {nrows} x {ncols} matrix")
            rows[i].append((j, c))
        return cls(p, nrows, ncols, [vec_from_terms(p, row) for row in rows])

    def kernel_vectors(self):
        """Basis of {x in F^nrows : x.M = 0}: row i carries the unit
        vector e_i past the last column, and each row that vanishes
        leaves the combination that killed it.  Rows are taken in
        order, so the vector of a vanished row i involves only rows up
        to i, and ends at i with coefficient 1."""
        n = self.ncols
        if self.p == 2:
            rows = [row | 1 << (n + i) for i, row in enumerate(self.rows)]
        else:
            rows = [row + ((n + i, 1),) for i, row in enumerate(self.rows)]
        return _eliminate(self.p, rows, n)[3]


class SubquotientBasis:
    """Coset representatives for ker/im inside F_p^ncols.

    image_rows span the boundary subspace, kernel_vectors span the
    cycles; both live in the same ambient row space.  Representatives
    are chosen greedily in input order: a kernel vector is one exactly
    when it is independent of the image and the earlier kernel vectors,
    i.e. when its row becomes a pivot in the elimination of
    image_rows + kernel_vectors.
    """

    def __init__(self, p, ncols, image_rows, kernel_vectors):
        rows = list(image_rows) + list(kernel_vectors)
        pivot_rows = _eliminate(p, rows, ncols)[2]
        self.reps = [rows[i] for i in pivot_rows if i >= len(image_rows)]
