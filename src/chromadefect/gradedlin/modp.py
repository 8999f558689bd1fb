"""Exact linear algebra over prime fields.

A vector is an int at every prime: coefficient i sits in bits [i w,
i w + w) as a residue 0..p-1, so it has one encoding, hashes as an int,
and is falsy exactly when it is zero.  At p = 2, w = 1: a bitmask.  At
odd p a field also has a carry bit, set exactly when the sum of two
residues reaches p, so one masked subtraction reduces every field of a
sum at once.  Only this module reads the encoding.  Matrices act on row
vectors: a matrix M with nrows rows and ncols columns is the map x ->
x.M from F^nrows to F^ncols, row i being the image of the i-th basis
vector.

Each field has one elimination kernel, gf2_eliminate by XOR and
fp_eliminate by packed adds, entered through subquotient.  A row's
pivot is its first nonzero column (its lowest set bit, over w), so
every nonzero row-space vector starts at a pivot column.  Entries at
ncols and beyond are never pivots and travel with their row, so
subquotient appends e_i there to image row i alone: no tracked mode.
"""

from functools import lru_cache

from .. import InputError

__all__ = [
    "PrimeFieldMatrix",
    "SubquotientBasis",
    "check_prime",
    "subquotient",
    "vec_combine",
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


def _width(p):
    # at p = 2 a sum of two vectors is their XOR, with no carry
    return (p - 1).bit_length() + p % 2


@lru_cache(maxsize=64)
def _field_ops(p, nfields):
    """(add, scale) on odd-p vectors of at most nfields fields: a + b,
    and k * v for 0 < k < p by double-and-add."""
    w = _width(p)
    ones = ((1 << w * nfields) - 1) // ((1 << w) - 1)
    carry, top = ones * ((1 << w - 1) - p), ones << w - 1

    def add(a, b):
        x = a + b
        return x - ((x + carry & top) >> w - 1) * p

    def scale(v, k):
        if k == 1:
            return v
        out = v
        for bit in bin(k)[3:]:
            out = add(out, out)
            out = add(out, v) if bit == "1" else out
        return out

    return add, scale


def vec_from_terms(p, terms):
    """The vector sum of c * e_i over the (i, c) terms."""
    w = _width(p)
    v = 0
    for i, c in terms:
        x = v >> i * w & (1 << w) - 1
        v += ((x + c) % p - x) << i * w
    return v


def vec_combine(p, f, x, terms, offset):
    """The vector sum of c * f(x, a) shifted up by offset[g] columns over
    the (a, g, c) terms, each c in 1..p-1 and each shifted f(x, a)
    below offset[-1] columns."""
    v = 0
    if p == 2:
        for a, g, _ in terms:
            v ^= f(x, a) << offset[g]
        return v
    w = _width(p)
    add, scale = _field_ops(p, offset[-1])
    for a, g, c in terms:
        v = add(v, scale(f(x, a), c) << offset[g] * w)
    return v


def vec_support(p, v):
    """List of (index, coefficient) pairs, nonzero ones, in index order."""
    w = _width(p)
    out = []
    while v:
        i = ((v & -v).bit_length() - 1) // w
        c = v >> i * w & (1 << w) - 1
        out.append((i, c))
        v ^= c << i * w
    return out


def gf2_eliminate(rows, ncols, tailed=-1):
    """Forward elimination over F2 on the columns below ncols.

    rows are int bitmasks; bits at ncols and above travel with their
    row.  Returns (pivots, ech, pivot_rows, dependent): echelon row k is
    ech[k], with pivot column pivots[k] (its lowest set bit), made from
    input row pivot_rows[k]; dependent holds, in input order, the bits
    past ncols (shifted down) of each input row that vanishes below it.
    Rows from index tailed on carry no such bits and gain none, as the
    echelon rows drop theirs there; each that vanishes leaves 0.
    """
    ech = []
    pivots = []
    pivot_rows = []
    dependent = []
    pivot_at = {}
    for i, v in enumerate(rows):
        if i == tailed:
            ech = [e & (1 << ncols) - 1 for e in ech]
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


def fp_eliminate(p, rows, ncols, nfields):
    """Packed elimination mod an odd prime, mirroring gf2_eliminate, on
    rows of nfields fields at most: a pivot c is cleared by adding p - c
    times its unit-pivot echelon row, changing only the fields past it.
    A row with a nonzero field at or past nfields raises ValueError: the
    packed adds reduce only the first nfields fields."""
    w = _width(p)
    add, scale = _field_ops(p, nfields)
    ech = []
    pivots = []
    pivot_rows = []
    dependent = []
    pivot_at = {}
    for i, v in enumerate(rows):
        if v >> nfields * w:
            raise ValueError(f"row {i} has a nonzero field past its first {nfields}")
        while True:
            # -1 for a zero row
            col = ((v & -v).bit_length() - 1) // w
            if not 0 <= col < ncols:
                dependent.append(v >> ncols * w)
                break
            c = v >> col * w & (1 << w) - 1
            j = pivot_at.get(col)
            if j is None:
                pivot_at[col] = len(ech)
                pivots.append(col)
                ech.append(scale(v, pow(c, p - 2, p)))
                pivot_rows.append(i)
                break
            v = add(v, scale(ech[j], p - c))
    return pivots, ech, pivot_rows, dependent


def subquotient(p, ncols, images, cycles):
    """(relations, kept) for lists of image and cycle rows in F^ncols.

    relations is a basis of {x : x.images = 0}.  Image row i carries e_i
    past the last column, so one that vanishes leaves the combination
    that killed it, which ends at i with coefficient 1.  kept indexes the
    cycle rows independent of the images and of the cycles before them.
    No cycle row carries a tail, so every row fits ncols + len(images)
    fields.  The rows are vectors in F^ncols; at an odd prime a row with
    a nonzero field at or past ncols + len(images) raises ValueError, as
    fp_eliminate does."""
    m = len(images)
    w = _width(p)
    rows = [v | 1 << (ncols + i) * w for i, v in enumerate(images)] + cycles
    if p == 2:
        pivot_rows, dependent = gf2_eliminate(rows, ncols, m)[2:]
    else:
        pivot_rows, dependent = fp_eliminate(p, rows, ncols, ncols + m)[2:]
    kept = [i - m for i in pivot_rows if i >= m]
    # the vanished images lead the dependents
    return dependent[:m - len(pivot_rows) + len(kept)], kept


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
        """Basis of {x in F^nrows : x.M = 0}, the relations among the
        rows as subquotient gives them: the vector of a vanished row i
        involves only rows up to i, and ends at i with coefficient 1."""
        return subquotient(self.p, self.ncols, self.rows, [])[0]


class SubquotientBasis:
    """Coset representatives for ker/im inside F_p^ncols, chosen greedily
    in input order: a kernel vector is one exactly when it is
    independent of image_rows and of the kernel vectors before it."""

    def __init__(self, p, ncols, image_rows, kernel_vectors):
        # all rows as cycles, so that none carries a tail
        rows = list(image_rows) + list(kernel_vectors)
        kept = subquotient(p, ncols, [], rows)[1]
        self.reps = [rows[i] for i in kept if i >= len(image_rows)]
