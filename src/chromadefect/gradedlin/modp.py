"""Exact linear algebra over prime fields.

Vectors over F_2 are int bitmasks; vectors over odd primes are tuples
of residues.  Matrices act on row vectors: a matrix M with nrows rows
and ncols columns is the map x -> x.M from F^nrows to F^ncols, row i
being the image of the i-th basis vector.  That orientation matches how
chain differentials are assembled everywhere downstream.

Each field has one elimination kernel: gf2_eliminate/gf2_reduce on
bitmasks at p = 2, fp_eliminate/fp_reduce on dense tuples at odd p.
PrimeFieldMatrix and SubquotientBasis run on them; the cobar complex
builds one dense matrix per differential, one bit per entry at p = 2.
"""

__all__ = [
    "PrimeFieldMatrix",
    "SubquotientBasis",
    "check_prime",
    "gf2_eliminate",
    "vec_from_terms",
    "vec_entry",
    "vec_support",
]


# the first thirteen primes as Miller-Rabin bases decide primality
# exactly below 3.3e24 (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def check_prime(p):
    """p itself when it is prime; ValueError "<p> is not prime" otherwise,
    and a ValueError too for a p past the range the gate decides."""
    if p < 2 or not _strong_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    if p >= _MR_EXACT_BELOW:
        raise ValueError(f"{p} is too large for the primality gate")
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
        """The stored elimination, run again only when a tracked one is
        asked for and the stored one is untracked (its combos None)."""
        if self._elim is None or (track and self._elim[3] is None):
            self._elim = self._run(track)
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
