"""Exact linear algebra over prime fields.

Vectors over F_2 are int bitmasks; vectors over odd primes are tuples
of residues.  Matrices act on row vectors: a matrix M with nrows rows
and ncols columns is the map x -> x.M from F^nrows to F^ncols, row i
being the image of the i-th basis vector.  That orientation matches how
chain differentials are assembled everywhere downstream.

Each field has one elimination kernel: gf2_eliminate/gf2_reduce on
bitmasks at p = 2, fp_eliminate/fp_reduce on dense tuples at odd p.
PrimeFieldMatrix and SubquotientBasis run on them.  SparseEchelonGF2
is the streaming rank the cobar complex uses for cells too large for
dense bitmask rows.
"""

from math import isqrt

__all__ = [
    "PrimeFieldMatrix",
    "SparseEchelonGF2",
    "SubquotientBasis",
    "check_prime",
    "gf2_eliminate",
    "vec_from_terms",
    "vec_entry",
    "vec_support",
]


def check_prime(p):
    """p itself when it is prime; ValueError "<p> is not prime" otherwise."""
    if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise ValueError(f"{p} is not prime")
    return p


def vec_from_terms(p, n, terms):
    if p == 2:
        v = 0
        for i, c in terms:
            if c % 2:
                v ^= 1 << i
        return v
    row = [0] * n
    for i, c in terms:
        row[i] = (row[i] + c) % p
    return tuple(row)


def vec_entry(p, v, i):
    if p == 2:
        return (v >> i) & 1
    return v[i]


def vec_support(p, v, n):
    """List of (index, coefficient) pairs with nonzero coefficient."""
    if p == 2:
        out = []
        while v:
            low = v & -v
            out.append((low.bit_length() - 1, 1))
            v ^= low
        return out
    return [(i, c) for i, c in enumerate(v) if c]


def vec_is_zero(v):
    if isinstance(v, int):
        return v == 0
    return not any(v)


def gf2_eliminate(rows, ncols, track=False):
    """Forward elimination to row echelon form over F2.

    rows: list of int bitmasks (only bits < ncols may be set).
    Returns (rank, pivots, ech, ech_combos, kernel_combos) where

      pivots[k]        pivot column of echelon row k (lowest set bit),
      ech[k]           echelon row k,
      ech_combos[k]    bitmask over input row indices with
                       xor(rows[i] for i in combo) == ech[k],
      kernel_combos    one combo per dependent input row; xor of the
                       selected input rows is zero.

    The two combo lists are None unless track is true.
    """
    ech = []
    pivots = []
    pivot_at = {}
    combos = [] if track else None
    kernel = [] if track else None
    for i, row in enumerate(rows):
        v = row
        c = 1 << i
        while v:
            col = (v & -v).bit_length() - 1
            j = pivot_at.get(col)
            if j is None:
                pivot_at[col] = len(ech)
                pivots.append(col)
                ech.append(v)
                if track:
                    combos.append(c)
                break
            v ^= ech[j]
            if track:
                c ^= combos[j]
        else:
            if track:
                kernel.append(c)
    return len(ech), pivots, ech, combos, kernel


def gf2_reduce(ech, pivots, v):
    """Reduce v against an echelon basis.

    Returns (residue, posmask); posmask bit k is set when ech[k] was
    subtracted.  residue == 0 iff v lies in the row space: every nonzero
    row-space element has a pivot column as its lowest set bit, so
    stopping at a non-pivot lowest bit is a complete membership test.
    """
    pivot_at = {col: k for k, col in enumerate(pivots)}
    posmask = 0
    while v:
        col = (v & -v).bit_length() - 1
        k = pivot_at.get(col)
        if k is None:
            break
        v ^= ech[k]
        posmask ^= 1 << k
    return v, posmask


def fp_eliminate(p, rows, ncols, track=False):
    """Dense elimination mod an odd prime; mirrors gf2_eliminate."""
    ech = []
    pivots = []
    pivot_at = {}
    m = len(rows)
    combos = [] if track else None
    kernel = [] if track else None
    for i, row in enumerate(rows):
        v = list(row)
        c = None
        if track:
            c = [0] * m
            c[i] = 1
        while True:
            col = next((k for k in range(ncols) if v[k]), None)
            if col is None:
                if track:
                    kernel.append(tuple(c))
                break
            j = pivot_at.get(col)
            if j is None:
                inv = pow(v[col], p - 2, p)
                v = [(inv * x) % p for x in v]
                pivot_at[col] = len(ech)
                pivots.append(col)
                ech.append(tuple(v))
                if track:
                    combos.append(tuple((inv * x) % p for x in c))
                break
            f = v[col]
            ej = ech[j]
            v = [(a - f * b) % p for a, b in zip(v, ej)]
            if track:
                cj = combos[j]
                c = [(a - f * b) % p for a, b in zip(c, cj)]
    return len(ech), pivots, ech, combos, kernel


def fp_reduce(p, ech, pivots, ncols, v):
    """Reduce v against a normalized echelon; returns (residue, coeffs).

    coeffs[k] is the multiple of ech[k] that was subtracted.
    """
    pivot_at = {col: k for k, col in enumerate(pivots)}
    v = list(v)
    coeffs = [0] * len(ech)
    while True:
        col = next((k for k in range(ncols) if v[k]), None)
        if col is None:
            break
        k = pivot_at.get(col)
        if k is None:
            break
        f = v[col]
        v = [(a - f * b) % p for a, b in zip(v, ech[k])]
        coeffs[k] = (coeffs[k] + f) % p
    return tuple(v), coeffs


class PrimeFieldMatrix:
    """Row-major matrix over F_p with cached elimination data."""

    def __init__(self, p, nrows, ncols, rows):
        if p < 2:
            raise ValueError("p must be a prime >= 2")
        self.p = p
        self.nrows = nrows
        self.ncols = ncols
        if len(rows) != nrows:
            raise ValueError("row count mismatch")
        self.rows = list(rows)
        self._elim = None
        self._elim_tracked = None

    @classmethod
    def from_terms(cls, p, nrows, ncols, terms):
        """terms: iterable of (row, col, coefficient)."""
        if p == 2:
            rows = [0] * nrows
            for i, j, c in terms:
                if c % 2:
                    rows[i] ^= 1 << j
            return cls(p, nrows, ncols, rows)
        buf = [[0] * ncols for _ in range(nrows)]
        for i, j, c in terms:
            buf[i][j] = (buf[i][j] + c) % p
        return cls(p, nrows, ncols, [tuple(r) for r in buf])

    def _eliminate(self, track):
        if track:
            if self._elim_tracked is None:
                self._elim_tracked = self._run(True)
            return self._elim_tracked
        if self._elim is not None:
            return self._elim
        if self._elim_tracked is not None:
            return self._elim_tracked
        self._elim = self._run(False)
        return self._elim

    def _run(self, track):
        if self.p == 2:
            return gf2_eliminate(self.rows, self.ncols, track)
        return fp_eliminate(self.p, self.rows, self.ncols, track)

    def rank(self):
        return self._eliminate(False)[0]

    def kernel_vectors(self):
        """Basis of {x in F^nrows : x.M = 0}."""
        kernel = self._eliminate(True)[4]
        return list(kernel)

    def solve_combo(self, v):
        """x with x.M = v, expressed over the original rows, or None."""
        rank, pivots, ech, combos, _ = self._eliminate(True)
        if self.p == 2:
            residue, posmask = gf2_reduce(ech, pivots, v)
            if residue:
                return None
            x = 0
            while posmask:
                low = posmask & -posmask
                x ^= combos[low.bit_length() - 1]
                posmask ^= low
            return x
        residue, coeffs = fp_reduce(self.p, ech, pivots, self.ncols, v)
        if not vec_is_zero(residue):
            return None
        x = [0] * self.nrows
        for k, f in enumerate(coeffs):
            if f:
                for i, c in enumerate(combos[k]):
                    x[i] = (x[i] + f * c) % self.p
        return tuple(x)


class SubquotientBasis:
    """Coset representatives for ker/im inside F_p^ncols.

    image_rows span the boundary subspace, kernel_vectors span the
    cycles; both live in the same ambient row space.  Representatives
    are chosen greedily in input order: a kernel vector is one exactly
    when it is independent of the image and the earlier kernel vectors,
    i.e. when its row becomes a pivot in the tracked elimination of
    image_rows + kernel_vectors.  coords() writes any further cycle in
    the chosen homology basis.
    """

    def __init__(self, p, ncols, image_rows, kernel_vectors):
        self.p = p
        self.ncols = ncols
        rows = list(image_rows) + list(kernel_vectors)
        self._mat = PrimeFieldMatrix(p, len(rows), ncols, rows)
        # echelon rows come in input order, and each one's pivot input
        # row is the last row its combo uses
        combos = self._mat._eliminate(True)[3]
        if p == 2:
            pivot_rows = [c.bit_length() - 1 for c in combos]
        else:
            pivot_rows = [max(i for i, c in enumerate(combo) if c) for combo in combos]
        first = len(image_rows)
        self._rep_rows = [i for i in pivot_rows if i >= first]
        self.reps = [rows[i] for i in self._rep_rows]

    @property
    def dim(self):
        return len(self.reps)

    def coords(self, v):
        """Coordinates of the cycle v in the homology basis, as a dict."""
        x = self._mat.solve_combo(v)
        if x is None:
            raise ValueError("vector is not a cycle modulo the image")
        out = {}
        for k, i in enumerate(self._rep_rows):
            c = vec_entry(self.p, x, i)
            if c:
                out[k] = c
        return out


class SparseEchelonGF2:
    """Streaming rank of a sparse F2 matrix, fed one row at a time.

    A row is its support, a strictly increasing list of column indices.
    Feeding a row xors stored pivot rows into it until its lead column
    is unclaimed (the row becomes a pivot) or it cancels to zero.  Only
    the pivot rows are retained, so memory tracks the fill-in of the
    echelon rather than the size of the matrix.
    """

    __slots__ = ("ncols", "rank", "_pivots")

    def __init__(self, ncols):
        ncols = int(ncols)
        if ncols < 0:
            raise ValueError("ncols must be nonnegative")
        self.ncols = ncols
        self.rank = 0
        self._pivots = {}

    def add_row(self, cols):
        """Feed one row; True when it added a pivot, False when dependent."""
        row = list(cols)
        if row:
            if row[0] < 0 or row[-1] >= self.ncols:
                raise ValueError("column index out of range")
            if any(b <= a for a, b in zip(row, row[1:])):
                raise ValueError("row support must be strictly increasing")
        row = set(row)
        pivots = self._pivots
        while row:
            lead = min(row)
            other = pivots.get(lead)
            if other is None:
                pivots[lead] = row
                self.rank += 1
                return True
            row ^= other
        return False
