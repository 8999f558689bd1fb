"""Exact linear algebra layer, checked against brute force oracles.

Rank over F2 is compared with row-span enumeration, kernels and solves
are checked by substitution, subquotient bases against the dimension
formula, abelian group presentations against their canonical-form
validation, and the primality gate against a sieve.
"""

import random
import time
from math import isqrt

import pytest

from chromadefect.gradedlin import (
    AbelianGroupPresentation,
    PrimeFieldMatrix,
    SubquotientBasis,
    check_prime,
)
from chromadefect.gradedlin.modp import fp_eliminate

from oracles.linalg import in_row_space, row_action, vec_add, vec_scale


def brute_rank_gf2(rows):
    span = {0}
    for r in rows:
        span |= {v ^ r for v in span}
    size = len(span)
    return size.bit_length() - 1


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
            assert row_action(m, x) == target


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
            target = row_action(m, x)
            sol = m.solve_combo(target)
            assert sol is not None
            assert row_action(m, sol) == target


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
                    assert in_row_space(immat, acc)

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
