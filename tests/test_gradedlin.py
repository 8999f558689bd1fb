"""Exact linear algebra layer, checked against brute force oracles.

Rank over F2 is compared with row-span enumeration, Smith normal form
with the gcd-of-minors characterization of invariant factors, and the
homology helpers with hand-checked tiny chain complexes.
"""

import random
from itertools import combinations
from math import gcd

import pytest

from chromadefect.gradedlin import (
    AbelianGroupPresentation,
    IntegerMatrix,
    PrimeFieldMatrix,
    SubquotientBasis,
    homology_at,
    integer_row_kernel,
    integer_solve_row,
    invariant_factors,
    lattice_row_basis,
    quotient_presentation,
    smith_normal_form,
    subquotient,
)
from chromadefect.gradedlin.modp import fp_eliminate, vec_add, vec_scale


def brute_rank_gf2(rows):
    span = {0}
    for r in rows:
        span |= {v ^ r for v in span}
    size = len(span)
    return size.bit_length() - 1


def det(mat):
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        if mat[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * det(minor)
    return total


def minor_gcd_factors(rows, m, n):
    """Invariant factors via gcd of k x k minors."""
    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rsel in combinations(range(m), k):
            for csel in combinations(range(n), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = gcd(g, det(sub))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def random_int_matrix(rng, m, n, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def random_vec(rng, p, n):
    if p == 2:
        return rng.getrandbits(n)
    return tuple(rng.randrange(p) for _ in range(n))


class TestGf2:
    def test_all_ones_rank(self):
        m = PrimeFieldMatrix(2, 3, 3, [0b111, 0b111, 0b111])
        assert m.rank() == 1

    def test_identity(self):
        m = PrimeFieldMatrix(2, 5, 5, [1 << i for i in range(5)])
        assert m.rank() == 5
        assert m.kernel_vectors() == []

    def test_rank_against_bruteforce(self):
        rng = random.Random(7)
        for _ in range(60):
            nrows = rng.randint(0, 8)
            ncols = rng.randint(1, 10)
            rows = [rng.getrandbits(ncols) for _ in range(nrows)]
            m = PrimeFieldMatrix(2, nrows, ncols, rows)
            assert m.rank() == brute_rank_gf2(rows)

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(11)
        for _ in range(40):
            nrows = rng.randint(1, 9)
            ncols = rng.randint(1, 9)
            rows = [rng.getrandbits(ncols) for _ in range(nrows)]
            m = PrimeFieldMatrix(2, nrows, ncols, rows)
            kvs = m.kernel_vectors()
            assert len(kvs) == nrows - m.rank()
            for kv in kvs:
                assert kv != 0
                acc = 0
                for i in range(nrows):
                    if (kv >> i) & 1:
                        acc ^= rows[i]
                assert acc == 0

    def test_solve_combo(self):
        rng = random.Random(13)
        for _ in range(40):
            nrows = rng.randint(1, 8)
            ncols = rng.randint(1, 8)
            rows = [rng.getrandbits(ncols) for _ in range(nrows)]
            m = PrimeFieldMatrix(2, nrows, ncols, rows)
            picks = [i for i in range(nrows) if rng.random() < 0.5]
            target = 0
            for i in picks:
                target ^= rows[i]
            x = m.solve_combo(target)
            assert x is not None
            assert m.apply(x) == target


class TestFp:
    def test_rank_and_kernel_mod3(self):
        rng = random.Random(19)
        p = 3
        for _ in range(40):
            nrows = rng.randint(1, 7)
            ncols = rng.randint(1, 7)
            rows = [tuple(rng.randrange(p) for _ in range(ncols)) for _ in range(nrows)]
            m = PrimeFieldMatrix(p, nrows, ncols, rows)
            rank, pivots, ech, combos, kernel = fp_eliminate(p, rows, ncols, True)
            assert m.rank() == rank
            assert len(kernel) == nrows - rank
            for kv in kernel:
                acc = [0] * ncols
                for i, c in enumerate(kv):
                    for j in range(ncols):
                        acc[j] = (acc[j] + c * rows[i][j]) % p
                assert not any(acc)

    def test_solve_mod5(self):
        rng = random.Random(23)
        p = 5
        for _ in range(30):
            nrows = rng.randint(1, 6)
            ncols = rng.randint(1, 6)
            rows = [tuple(rng.randrange(p) for _ in range(ncols)) for _ in range(nrows)]
            m = PrimeFieldMatrix(p, nrows, ncols, rows)
            x = tuple(rng.randrange(p) for _ in range(nrows))
            target = m.apply(x)
            sol = m.solve_combo(target)
            assert sol is not None
            assert m.apply(sol) == target


class TestSubquotient:
    def test_dim_formula(self):
        rng = random.Random(29)
        for p in (2, 3):
            for _ in range(25):
                n = rng.randint(1, 8)
                def rv():
                    if p == 2:
                        return rng.getrandbits(n)
                    return tuple(rng.randrange(p) for _ in range(n))
                big = [rv() for _ in range(rng.randint(0, 5))]
                # treat "big" as the kernel vectors and carve out a sub-span as the image
                image = []
                for v in big:
                    if rng.random() < 0.5:
                        image.append(v)
                sq = SubquotientBasis(p, n, image, big)
                kdim = PrimeFieldMatrix(p, len(big), n, list(big)).rank()
                idim = PrimeFieldMatrix(p, len(image), n, list(image)).rank()
                assert sq.dim == kdim - idim

    def test_coords_reconstruct(self):
        rng = random.Random(31)
        n = 10
        for p in (2, 3, 5):
            for _ in range(10):
                kernel = [random_vec(rng, p, n) for _ in range(6)]
                # a repeat and a combination: dependent kernel vectors
                # that must not become representatives
                kernel.append(kernel[3])
                kernel.append(vec_add(p, kernel[0], vec_scale(p, kernel[4], p - 1)))
                image = kernel[:2]
                sq = SubquotientBasis(p, n, image, kernel)
                immat = PrimeFieldMatrix(p, len(image), n, list(image))
                for v in kernel:
                    acc = v
                    for idx, c in sq.coords(v).items():
                        assert c % p
                        acc = vec_add(p, acc, vec_scale(p, sq.reps[idx], -c))
                    assert immat.in_row_space(acc)

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
                before = PrimeFieldMatrix(p, len(span), n, list(span)).rank()
                after = PrimeFieldMatrix(p, len(span) + 1, n, span + [kv]).rank()
                if after > before:
                    want.append(kv)
                span.append(kv)
            assert sq.reps == want
            for k, rep in enumerate(sq.reps):
                assert sq.coords(rep) == {k: 1}

    def test_rejects_noncycle(self):
        sq = SubquotientBasis(2, 3, [], [0b001])
        with pytest.raises(ValueError):
            sq.coords(0b010)


class TestSmith:
    def test_diag_2_3(self):
        D, U, V = smith_normal_form([[2, 0], [0, 3]])
        assert [D[0][0], D[1][1]] == [1, 6]
        assert abs(det(U)) == 1 and abs(det(V)) == 1

    def test_transform_identity_random(self):
        rng = random.Random(37)
        for _ in range(40):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            A = random_int_matrix(rng, m, n)
            D, U, V = smith_normal_form(A)
            UA = IntegerMatrix(m, m, U).times(IntegerMatrix(m, n, A))
            UAV = UA.times(IntegerMatrix(n, n, V))
            assert UAV.rows == D
            assert abs(det(U)) == 1
            assert abs(det(V)) == 1
            diag = [D[i][i] for i in range(min(m, n))]
            for a, b in zip(diag, diag[1:]):
                if b:
                    assert a != 0 and b % a == 0
            for i in range(m):
                for j in range(n):
                    if i != j:
                        assert D[i][j] == 0

    def test_invariant_factors_vs_minor_gcd(self):
        rng = random.Random(41)
        for _ in range(30):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            A = random_int_matrix(rng, m, n, -4, 4)
            assert invariant_factors(A) == minor_gcd_factors(A, m, n)

    def test_unimodular_invariance(self):
        rng = random.Random(43)
        for _ in range(20):
            m, n = rng.randint(2, 4), rng.randint(2, 4)
            A = random_int_matrix(rng, m, n, -5, 5)
            U = _random_unimodular(rng, m)
            V = _random_unimodular(rng, n)
            UA = IntegerMatrix(m, m, U).times(IntegerMatrix(m, n, A))
            UAV = UA.times(IntegerMatrix(n, n, V))
            assert invariant_factors(A) == invariant_factors(UAV.rows)

    def test_kernel_and_solve(self):
        rng = random.Random(47)
        for _ in range(30):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            A = random_int_matrix(rng, m, n, -5, 5)
            for kv in integer_row_kernel(A):
                img = [sum(kv[i] * A[i][j] for i in range(m)) for j in range(n)]
                assert not any(img)
            x = [rng.randint(-4, 4) for _ in range(m)]
            b = [sum(x[i] * A[i][j] for i in range(m)) for j in range(n)]
            sol = integer_solve_row(A, b)
            assert sol is not None
            got = [sum(sol[i] * A[i][j] for i in range(m)) for j in range(n)]
            assert got == b


def _random_unimodular(rng, n):
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        for k in range(n):
            M[i][k] += q * M[j][k]
    return M


class TestPresentations:
    def test_multiplication_by_two(self):
        # 0 -> Z --2--> Z -> 0
        at_source = homology_at(None, IntegerMatrix(1, 1, [[2]]))
        assert at_source == AbelianGroupPresentation(0)
        at_target = homology_at(IntegerMatrix(1, 1, [[2]]), None)
        assert at_target == AbelianGroupPresentation(0, (2,))

    def test_rejects_nonzero_composite(self):
        with pytest.raises(ValueError):
            homology_at(IntegerMatrix(1, 1, [[1]]), IntegerMatrix(1, 1, [[3]]))

    def test_quotient_generators(self):
        pres = quotient_presentation([[2, 0], [0, 3]], 2)
        assert pres == AbelianGroupPresentation(0, (6,))
        (g,) = pres.generators
        assert len(g) == 2

    def test_free_quotient(self):
        pres = quotient_presentation([], 3)
        assert pres.free_rank == 3 and pres.torsion == ()

    def test_lattice_row_basis(self):
        basis = lattice_row_basis([[2, 0], [4, 0], [0, 0]], 2)
        assert len(basis) == 1
        assert basis[0][0] in (2, -2) and basis[0][1] == 0

    def test_subquotient_with_target_relations(self):
        # B = Z{b}, C = Z/2{c}, out: b -> c; kernel is 2Z{b}
        pres = subquotient(1, [], out_map=[[1]], out_rels=[[2]])
        assert pres == AbelianGroupPresentation(1)
        (g,) = pres.generators
        assert g in ([2], [-2])

    def test_klein_style_quotient(self):
        pres = quotient_presentation([[2, 0], [0, 2]], 2)
        assert pres == AbelianGroupPresentation(0, (2, 2))

    def test_presentation_validation(self):
        with pytest.raises(ValueError):
            AbelianGroupPresentation(0, (4, 2))
        with pytest.raises(ValueError):
            AbelianGroupPresentation(0, (1,))
