"""Exact linear algebra layer, checked against brute force oracles.

Rank over F2, read off the elimination kernel (oracles.linalg.rank),
is compared with row-span enumeration and kernels are checked by
substitution.  Residues modulo the row space (oracles.linalg.residue,
which the cobar oracle names classes with) are checked at p = 2, 3 and
5 against the rank test for row-space membership: zero exactly on the
row space, one value per coset, and zero at every pivot column, a pivot
column being one where the rank of the leading columns grows.  Subquotient representatives are checked against the dimension
formula and the greedy choice in input order, abelian group
presentations against their canonical-form validation, and the
primality gate against a sieve.  Odd-prime vectors are checked to be
canonical packed ints (every field a residue below p) wherever they
come out of the package, and the packed elimination and the row
combiner against the dense elimination in oracles.linalg and
vec_from_terms, up to p = 65537.  The Mersenne primes 3, 7 and 127 are
the tight case, where a field's carry bit leaves room for one more.
The packed elimination refuses a row with a field past its field
count, checked in a child process so that a hang fails the test.
subquotient, the one elimination the engines call, is checked at p = 2,
3, 5 and 7 against the dense elimination of its images with their unit
vectors appended: its relations, the cycle rows it keeps, and the rows
and field count it hands the kernel.
"""

import os
import random
import subprocess
import sys
import time
from math import isqrt
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from chromadefect.gradedlin import (
    SubquotientBasis,
    check_prime,
    modp,
    subquotient,
    vec_combine,
    vec_from_terms,
    vec_support,
)
from chromadefect.gradedlin.integers import AbelianGroupPresentation
from chromadefect.gradedlin.modp import fp_eliminate

from oracles.linalg import (
    PrimeFieldMatrix,
    dense,
    dense_eliminate,
    dense_residue,
    in_row_space,
    rank,
    residue,
    row_action,
    sparse,
    vec_add,
    vec_last,
    vec_scale,
)


def brute_rank_gf2(rows):
    span = {0}
    for r in rows:
        span |= {v ^ r for v in span}
    size = len(span)
    return size.bit_length() - 1


def random_vec(rng, p, n):
    if p == 2:
        return rng.getrandbits(n)
    return sparse(p, [rng.randrange(p) for _ in range(n)])


class TestGf2:
    def test_all_ones_rank(self):
        m = PrimeFieldMatrix(2, 3, 3, [0b111, 0b111, 0b111])
        assert rank(m) == 1

    def test_identity(self):
        m = PrimeFieldMatrix(2, 5, 5, [1 << i for i in range(5)])
        assert rank(m) == 5
        assert m.kernel_vectors() == []

    def test_rank_against_bruteforce(self):
        rng = random.Random(7)
        for _ in range(60):
            nrows = rng.randint(0, 8)
            ncols = rng.randint(1, 10)
            rows = [rng.getrandbits(ncols) for _ in range(nrows)]
            m = PrimeFieldMatrix(2, nrows, ncols, rows)
            assert rank(m) == brute_rank_gf2(rows)

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(11)
        for _ in range(40):
            nrows = rng.randint(1, 9)
            ncols = rng.randint(1, 9)
            rows = [rng.getrandbits(ncols) for _ in range(nrows)]
            m = PrimeFieldMatrix(2, nrows, ncols, rows)
            kvs = m.kernel_vectors()
            assert len(kvs) == nrows - rank(m)
            for kv in kvs:
                assert kv != 0
                acc = 0
                for i in range(nrows):
                    if (kv >> i) & 1:
                        acc ^= rows[i]
                assert acc == 0


class TestFp:
    def test_rank_and_kernel_mod3(self):
        rng = random.Random(19)
        p = 3
        for _ in range(40):
            nrows = rng.randint(1, 7)
            ncols = rng.randint(1, 7)
            rows = [random_vec(rng, p, ncols) for _ in range(nrows)]
            m = PrimeFieldMatrix(p, nrows, ncols, rows)
            pivots, ech, pivot_rows, dependent = fp_eliminate(p, rows, ncols, ncols)
            r = len(pivots)
            assert len(pivot_rows) == r and len(dependent) == nrows - r
            for col, row in zip(pivots, ech):
                assert vec_support(p, row)[0] == (col, 1)
            kernel = m.kernel_vectors()
            assert len(kernel) == nrows - r
            for kv in kernel:
                acc = [0] * ncols
                for i, c in vec_support(p, kv):
                    for j, x in vec_support(p, rows[i]):
                        acc[j] = (acc[j] + c * x) % p
                assert not any(acc)

    @pytest.mark.parametrize("p", [3, 5])
    def test_field_past_the_count_refused(self, p):
        # the packed adds never reduce a field at or past nfields, so
        # such a pivot could reach p and never clear; a child process
        # with a timeout makes a regression fail instead of hang
        code = (
            "from chromadefect.gradedlin.modp import _width, fp_eliminate\n"
            f"w = _width({p})\n"
            "try:\n"
            f"    fp_eliminate({p}, [1 << 2 * w, 2 << 2 * w], 3, 2)\n"
            "except ValueError as e:\n"
            "    print(e)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(modp.__file__).resolve().parents[2])}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "row 0 has a nonzero field past its first 2\n"


@pytest.mark.parametrize("p", [2, 3])
class TestFromTerms:
    @pytest.mark.parametrize(
        "entry", [(0, 3, 1), (0, 5, 1), (0, -1, 1), (1, 0, 1), (-1, 0, 1)]
    )
    def test_entry_outside_is_refused(self, p, entry):
        with pytest.raises(ValueError, match="outside a 1 x 3 matrix"):
            PrimeFieldMatrix.from_terms(p, 1, 3, [entry])

    def test_entries_inside_accumulate(self, p):
        m = PrimeFieldMatrix.from_terms(p, 2, 3, [(0, 2, 1), (1, 0, 1), (0, 2, p - 1), (1, 2, 1)])
        # coefficient i in bits [i w, i w + w): w = 1 at p = 2, 3 at p = 3
        assert m.rows == [0, 0b101 if p == 2 else 0b001_000_001]


def width(p):
    """Bits per field at an odd prime: a residue and a carry bit."""
    return (p - 1).bit_length() + 1


def canonical(p, v):
    """v is a nonnegative int whose every field is a residue below p."""
    w = width(p)
    return (
        type(v) is int
        and v >= 0
        and all(v >> k & (1 << w) - 1 < p for k in range(0, v.bit_length(), w))
    )


def random_sparse_rows(rng, p, nrows, ncols, density):
    return [
        sparse(p, [rng.randrange(1, p) if rng.random() < density else 0 for _ in range(ncols)])
        for _ in range(nrows)
    ]


@pytest.mark.parametrize("p", [3, 5, 7, 127, 257, 65537])
class TestSparseRows:
    def test_every_vector_is_canonical(self, p):
        rng = random.Random(71 + p)
        for _ in range(30):
            nrows, ncols = rng.randint(0, 9), rng.randint(1, 9)
            terms = [
                (rng.randrange(nrows), rng.randrange(ncols), rng.randrange(-2 * p, 2 * p))
                for _ in range(rng.randint(0, 3 * nrows))
            ]
            m = PrimeFieldMatrix.from_terms(p, nrows, ncols, terms)
            pivots, ech, _, dependent = fp_eliminate(p, m.rows, ncols, ncols)
            vectors = [vec_from_terms(p, [(j, c) for _, j, c in terms])]
            vectors += m.rows + ech + dependent + m.kernel_vectors()
            vectors += [residue(m, random_vec(rng, p, ncols)) for _ in range(3)]
            assert [v for v in vectors if not canonical(p, v)] == []

    def test_cancelling_terms_leave_no_pair(self, p):
        assert vec_from_terms(p, [(0, 1), (0, p - 1)]) == 0
        assert vec_from_terms(p, [(4, p), (1, 2 * p), (2, 1), (2, -1)]) == 0
        m = PrimeFieldMatrix.from_terms(p, 2, 3, [(0, 0, 1), (0, 0, p - 1), (1, 2, p + 1)])
        assert m.rows == [0, 1 << 2 * width(p)]

    def test_agrees_with_dense_elimination(self, p):
        rng = random.Random(83 + p)
        for _ in range(25):
            nrows, ncols = rng.randint(0, 40), rng.randint(1, 60)
            rows = random_sparse_rows(rng, p, nrows, ncols, 0.05)
            if nrows >= 3:
                rows[-1] = vec_add(p, rows[0], vec_scale(p, rows[1], rng.randrange(1, p)))
            m = PrimeFieldMatrix(p, nrows, ncols, rows)
            full = [dense(p, row, ncols) for row in rows]
            pivots, ech, pivot_rows, dependent = dense_eliminate(p, full, ncols)
            assert rank(m) == len(pivots)
            assert fp_eliminate(p, rows, ncols, ncols) == (
                pivots,
                [sparse(p, row) for row in ech],
                pivot_rows,
                [sparse(p, row) for row in dependent],
            )
            for _ in range(4):
                v = random_sparse_rows(rng, p, 1, ncols, 0.2)[0]
                want = dense_residue(p, pivots, ech, dense(p, v, ncols))
                assert dense(p, residue(m, v), ncols) == want
            units = [row + tuple(int(i == k) for k in range(nrows)) for i, row in enumerate(full)]
            kernel = dense_eliminate(p, units, ncols)[3]
            assert [dense(p, kv, nrows) for kv in m.kernel_vectors()] == kernel

    def test_width_costs_w_bits_per_column(self, p):
        # a row is as long as its last entry: a 10**6-column row ending
        # at column 999_999 takes w * 10**6 bits, 375 kB at p = 3
        w = width(p)
        m = PrimeFieldMatrix.from_terms(p, 2, 10**6, [(0, 7, 1), (1, 999_999, 2)])
        assert m.rows == [1 << 7 * w, 2 << 999_999 * w]
        assert m.rows[1].bit_length() == 999_999 * w + 2
        assert rank(m) == 2
        assert m.kernel_vectors() == []

    def test_dependent_rows_keep_their_tail(self, p):
        # entries past ncols travel with their row and come back shifted
        # down by ncols, as kernel_vectors reads them
        rng = random.Random(89 + p)
        for _ in range(20):
            nrows, ncols, tail = rng.randint(1, 12), rng.randint(1, 8), rng.randint(1, 6)
            full = [tuple(rng.randrange(p) for _ in range(ncols + tail)) for _ in range(nrows)]
            rows = [sparse(p, row) for row in full]
            pivots, ech, pivot_rows, dependent = dense_eliminate(p, full, ncols)
            assert fp_eliminate(p, rows, ncols, ncols + tail) == (
                pivots,
                [sparse(p, row) for row in ech],
                pivot_rows,
                [sparse(p, row) for row in dependent],
            )


@pytest.mark.parametrize("p", [2, 3, 5, 7, 127, 257, 65537])
class TestCombine:
    def test_every_scalar_and_shift(self, p):
        rng = random.Random(97 + p)
        # every field p - 1, so each scalar reaches the largest residues
        x = sparse(p, [p - 1] * 6)
        offset = [0, 3, 9, 15]
        for c in range(1, p):
            g = rng.randrange(1, 3)
            want = vec_from_terms(p, [(offset[g] + i, c * y) for i, y in vec_support(p, x)])
            assert vec_combine(p, lambda x, a: x, x, [(None, g, c)], offset) == want

    def test_sums_match_expanded_terms(self, p):
        rng = random.Random(101 + p)
        table = {(x, a): random_vec(rng, p, 5) for x in range(4) for a in range(4)}
        offset = [0, 2, 5, 9, 14]
        for _ in range(40):
            terms = [
                (rng.randrange(4), rng.randrange(4), rng.randrange(1, p))
                for _ in range(rng.randint(0, 6))
            ]
            x = rng.randrange(4)
            want = vec_from_terms(p, [
                (offset[g] + i, c * y)
                for a, g, c in terms
                for i, y in vec_support(p, table[(x, a)])
            ])
            assert vec_combine(p, lambda x, a: table[(x, a)], x, terms, offset) == want

    def test_last_index(self, p):
        assert vec_last(p, 0) == -1
        for i in (0, 1, 7, 300):
            for c in {1, p - 1}:
                v = vec_from_terms(p, [(k, 1) for k in range(i)] + [(i, c)])
                assert vec_last(p, v) == i


def random_matrix(rng, p, nrows, ncols):
    """Random rows, one of them a combination of two others when there
    is room, so that some rows are dependent."""
    rows = [random_vec(rng, p, ncols) for _ in range(nrows)]
    if nrows >= 3:
        rows[-1] = vec_add(p, rows[0], vec_scale(p, rows[1], rng.randrange(1, p)))
    return PrimeFieldMatrix(p, nrows, ncols, rows)


def random_combination(rng, m):
    return row_action(m, random_vec(rng, m.p, m.nrows))


def leading(p, v, j):
    """The first j entries of v."""
    return vec_from_terms(p, [(k, c) for k, c in vec_support(p, v) if k < j])


def pivot_columns(m):
    """Columns j where the rank of the first j + 1 columns exceeds that
    of the first j: the first nonzero column of some row-space vector."""
    out = []
    prev = 0
    for j in range(m.ncols):
        cut = [leading(m.p, row, j + 1) for row in m.rows]
        r = rank(PrimeFieldMatrix(m.p, m.nrows, j + 1, cut))
        if r > prev:
            out.append(j)
        prev = r
    return out


def entry(p, v, j):
    return dict(vec_support(p, v)).get(j, 0)


@pytest.mark.parametrize("p", [2, 3, 5])
class TestResidue:
    def test_zero_exactly_on_row_space(self, p):
        rng = random.Random(53 + p)
        for _ in range(40):
            nrows, ncols = rng.randint(0, 6), rng.randint(1, 7)
            m = random_matrix(rng, p, nrows, ncols)
            for v in [random_vec(rng, p, ncols) for _ in range(4)] + [random_combination(rng, m)]:
                assert (residue(m, v) == 0) == in_row_space(m, v)

    def test_constant_on_cosets(self, p):
        rng = random.Random(59 + p)
        for _ in range(40):
            nrows, ncols = rng.randint(0, 6), rng.randint(1, 7)
            m = random_matrix(rng, p, nrows, ncols)
            v = random_vec(rng, p, ncols)
            r = residue(m, v)
            assert in_row_space(m, vec_add(p, v, vec_scale(p, r, -1)))
            for _ in range(3):
                assert residue(m, vec_add(p, v, random_combination(rng, m))) == r

    def test_zero_at_every_pivot_column(self, p):
        rng = random.Random(61 + p)
        for _ in range(40):
            nrows, ncols = rng.randint(0, 6), rng.randint(1, 7)
            m = random_matrix(rng, p, nrows, ncols)
            pivots = pivot_columns(m)
            assert len(pivots) == rank(m)
            for _ in range(3):
                r = residue(m, random_vec(rng, p, ncols))
                assert [j for j in pivots if entry(p, r, j)] == []


class TestSubquotient:
    def test_dim_formula(self):
        rng = random.Random(29)
        for p in (2, 3):
            for _ in range(25):
                n = rng.randint(1, 8)
                big = [random_vec(rng, p, n) for _ in range(rng.randint(0, 5))]
                # treat "big" as the kernel vectors and carve out a sub-span as the image
                image = []
                for v in big:
                    if rng.random() < 0.5:
                        image.append(v)
                sq = SubquotientBasis(p, n, image, big)
                kdim = rank(PrimeFieldMatrix(p, len(big), n, list(big)))
                idim = rank(PrimeFieldMatrix(p, len(image), n, list(image)))
                assert len(sq.reps) == kdim - idim

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_reps_are_greedy_in_input_order(self, p):
        rng = random.Random(41 + p)
        for _ in range(30):
            n = rng.randint(1, 7)
            image = [random_vec(rng, p, n) for _ in range(rng.randint(0, 3))]
            kernel = [random_vec(rng, p, n) for _ in range(rng.randint(0, 6))]
            if kernel and rng.random() < 0.5:
                kernel.insert(rng.randrange(len(kernel) + 1), rng.choice(kernel))
            sq = SubquotientBasis(p, n, image, kernel)
            span = list(image)
            want = []
            for kv in kernel:
                before = rank(PrimeFieldMatrix(p, len(span), n, list(span)))
                after = rank(PrimeFieldMatrix(p, len(span) + 1, n, span + [kv]))
                if after > before:
                    want.append(kv)
                span.append(kv)
            assert sq.reps == want


@st.composite
def step_rows(draw, p):
    """(ncols, images, cycles) as residue tuples, some rows zero and some
    combinations of rows drawn before them, so that some vanish."""
    ncols = draw(st.integers(0, 6))
    residues = st.lists(st.integers(0, p - 1), min_size=ncols, max_size=ncols)
    drawn = []

    def row():
        kind = draw(st.sampled_from(["random", "zero", "combination"]))
        if kind == "zero" or not ncols:
            out = (0,) * ncols
        elif kind == "combination" and drawn:
            a, b = draw(st.sampled_from(drawn)), draw(st.sampled_from(drawn))
            c = draw(st.integers(1, p - 1))
            out = tuple((x + c * y) % p for x, y in zip(a, b))
        else:
            out = tuple(draw(residues))
        drawn.append(out)
        return out

    images = [row() for _ in range(draw(st.integers(0, 6)))]
    cycles = [row() for _ in range(draw(st.integers(0, 6)))]
    return ncols, images, cycles


def check_subquotient(p, ncols, images, cycles):
    """Run subquotient on residue-tuple rows against the dense
    elimination of the images, each with its unit vector appended,
    followed by the cycles with zeros; return the image row each
    relation ends at, and the kept cycle rows."""
    m = len(images)
    full = [r + tuple(int(k == i) for k in range(m)) for i, r in enumerate(images)]
    full += [r + (0,) * m for r in cycles]
    calls = []

    def spy(kernel):
        def traced(*args):
            # only the images carry a tail, and every row fits the field
            # count the caller gives, checked before a wrong count can
            # leave a pivot unreduced
            rows, last = (args[0], args[2]) if p == 2 else (args[1], args[3])
            assert last == (m if p == 2 else ncols + m)
            assert [dense(p, v, ncols + m) for v in rows] == full
            calls.append(args)
            return kernel(*args)
        return traced

    with mock.patch.object(modp, "gf2_eliminate", spy(modp.gf2_eliminate)), \
            mock.patch.object(modp, "fp_eliminate", spy(modp.fp_eliminate)):
        relations, kept = subquotient(p, ncols, [sparse(p, r) for r in images],
                                      [sparse(p, r) for r in cycles])
    assert len(calls) == 1

    _, _, pivot_rows, dependent = dense_eliminate(p, full, ncols)
    assert kept == [i - m for i in pivot_rows if i >= m]
    vanished = [i for i in range(m) if i not in pivot_rows]
    assert [dense(p, x, m) for x in relations] == dependent[:len(vanished)]
    # a basis of the left kernel among the images: each relation kills
    # them and ends at its own vanished row with coefficient 1
    assert len(relations) == m - len(dense_eliminate(p, images, ncols)[0])
    mat = PrimeFieldMatrix(p, m, ncols, [sparse(p, r) for r in images])
    for x, i in zip(relations, vanished):
        assert row_action(mat, x) == 0
        assert vec_support(p, x)[-1] == (i, 1)
    return vanished, kept


@pytest.mark.parametrize("p", [2, 3, 5, 7])
class TestSubquotientStep:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_dense_elimination(self, p, data):
        check_subquotient(p, *data.draw(step_rows(p)))

    @pytest.mark.parametrize(
        "ncols, images, cycles, want",
        [(3, [], [(1, 0, 0), (1, 0, 0), (0, 0, 0)], ([], [0])),
         (3, [(0, 1, 0), (0, 0, 0), (0, 1, 0)], [], ([1, 2], [])),
         (3, [(0, 0, 0), (1, 1, 0)], [(0, 0, 0), (1, 1, 0), (0, 0, 1)], ([0], [2])),
         (0, [(), ()], [()], ([0, 1], [])),
         (2, [], [], ([], []))],
        ids=["no-images", "no-cycles", "zero-rows", "no-columns", "nothing"],
    )
    def test_edges(self, p, ncols, images, cycles, want):
        assert check_subquotient(p, ncols, images, cycles) == want


class TestPresentations:
    def test_presentation_validation(self):
        with pytest.raises(ValueError):
            AbelianGroupPresentation(0, (4, 2))
        with pytest.raises(ValueError):
            AbelianGroupPresentation(0, (1,))


def gate_accepts(n):
    try:
        return check_prime(n) == n
    except ValueError:
        return False


class TestCheckPrime:
    def test_agrees_with_trial_division_below_1e5(self):
        # the sieve of Eratosthenes is trial division by every prime up
        # to the square root, done once for the whole range
        top = 10**5
        prime = [False, False] + [True] * (top - 2)
        for d in range(2, isqrt(top) + 1):
            if prime[d]:
                prime[d * d :: d] = [False] * len(range(d * d, top, d))
        assert [n for n in range(top) if gate_accepts(n) != prime[n]] == []

    @pytest.mark.parametrize(
        "n",
        [
            2047,  # strong pseudoprime to base 2
            3215031751,  # to bases 2, 3, 5, 7
            3825123056546413051,  # to every prime base through 23
            318665857834031151167461,  # through 37; base 41 catches it
        ],
    )
    def test_strong_pseudoprimes_rejected(self, n):
        with pytest.raises(ValueError, match=f"{n} is not prime"):
            check_prime(n)

    def test_large_prime_accepted_at_once(self):
        start = time.perf_counter()
        assert check_prime(1000000000000000003) == 1000000000000000003
        assert check_prime(2**61 - 1) == 2**61 - 1
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "n",
        [
            3317044064679887385961981,  # passes all thirteen bases, composite
            2**89 - 1,  # a Mersenne prime past the exact range
        ],
    )
    def test_past_the_exact_range_is_refused(self, n):
        with pytest.raises(ValueError, match="too large for the primality gate"):
            check_prime(n)
