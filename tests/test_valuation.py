"""Tests for the cyclic fixed point defect and the cyclotomic
valuations behind it.

The package reads N off its closed form, defect.eo_defect; the
enumeration it replaced, one valuation per nontrivial group element,
lives in oracles/valuation.py and is checked here first.  A valuation
1/e is carried as its ramification degree e, so each oracle assertion
compares degrees.  Oracles for the enumeration: hand-checked
ramification theory (the p^n-th cyclotomic extension of Q_p is totally
ramified of degree p^(n-1)(p-1), so the normalized valuation of
zeta - 1 is the reciprocal of that degree) and the classical
v(zeta_p - 1) = 1/(p-1).  The closed form must equal the enumeration
on a grid of specs, refusals included, and agree with the formal group
law module, where the height-n Honda law over F_2 has its formal
inverse deviating from the identity first in degree 2^n.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from chromadefect.defect import eo_defect
from chromadefect.fgl import er_defect_witness

from oracles.valuation import (
    CycloElement,
    SubgroupSpec,
    cyclo_valuation,
    embedding_admissible,
    group_N,
)
from oracles.valuation import eo_defect as enumerated_eo_defect

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def padic_valuation(p, k):
    j = 0
    while k % p == 0:
        k //= p
        j += 1
    return j


class TestCycloElement:
    def test_exponent_normalized_mod_order(self):
        assert CycloElement(3, 2, 11).k == 2
        assert CycloElement(2, 3, -1).k == 7
        assert CycloElement(5, 1, 5).k == 0

    def test_equality_and_hash(self):
        assert CycloElement(3, 2, 11) == CycloElement(3, 2, 2)
        assert hash(CycloElement(3, 2, 11)) == hash(CycloElement(3, 2, 2))
        assert CycloElement(3, 2, 1) != CycloElement(3, 1, 1)

    def test_composite_base_rejected(self):
        with pytest.raises(ValueError):
            CycloElement(6, 1, 1)

    def test_zero_exponent_on_order_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            CycloElement(3, 0, 1)


class TestCycloValuation:
    def test_prime_case_is_one_over_p_minus_one(self):
        # v(zeta_p^k - 1) = 1/(p-1) for every k prime to p
        for p in SMALL_PRIMES:
            for k in range(1, p):
                assert cyclo_valuation(CycloElement(p, 1, k)) == p - 1

    def test_primitive_root_case(self):
        # a primitive p^n-th root: valuation 1/(p^(n-1)(p-1))
        assert cyclo_valuation(CycloElement(3, 1, 1)) == 2
        assert cyclo_valuation(CycloElement(2, 3, 1)) == 4
        assert cyclo_valuation(CycloElement(3, 2, 1)) == 6
        assert cyclo_valuation(CycloElement(5, 2, 1)) == 20

    def test_deep_power_reaches_prime_level(self):
        # zeta_8^4 = -1, and v(-2) = 1
        assert cyclo_valuation(CycloElement(2, 3, 4)) == 1
        # zeta_27^9 is a primitive cube root
        assert cyclo_valuation(CycloElement(3, 3, 9)) == 2

    def test_unit_element_has_no_valuation(self):
        with pytest.raises(ValueError, match="no valuation"):
            cyclo_valuation(CycloElement(3, 2, 9))

    def test_depends_only_on_p_part_of_exponent(self):
        # exhaustive over all prime power orders up to 64
        for p in SMALL_PRIMES:
            n = 1
            while p**n <= 64:
                for k in range(1, p**n):
                    j = padic_valuation(p, k)
                    assert cyclo_valuation(CycloElement(p, n, k)) == cyclo_valuation(
                        CycloElement(p, n, p**j)
                    ), (p, n, k)
                n += 1

    def test_tower_consistency(self):
        # zeta_{p^n}^{p^j} is a primitive p^(n-j)-th root, so its
        # valuation matches the lower level on the nose
        for p in [2, 3, 5]:
            for n in range(2, 5):
                if p**n > 300:
                    continue
                for j in range(0, n):
                    assert cyclo_valuation(CycloElement(p, n, p**j)) == cyclo_valuation(
                        CycloElement(p, n - j, 1)
                    )

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.sampled_from([2, 3, 5]),
        n=st.integers(min_value=1, max_value=4),
        k=st.integers(min_value=1, max_value=10**6),
    )
    def test_valuation_bounds(self, p, n, k):
        if k % p**n == 0:
            k += 1
        # 1/(p^(n-1)(p-1)) <= v <= 1, read on the degree e = 1/v
        e = cyclo_valuation(CycloElement(p, n, k))
        assert 1 <= e <= p ** (n - 1) * (p - 1)


class TestEmbedding:
    def test_divisibility(self):
        assert embedding_admissible(1, 1)
        assert embedding_admissible(2, 6)
        assert embedding_admissible(6, 6)
        assert not embedding_admissible(4, 6)
        assert not embedding_admissible(7, 6)

    def test_cyclotomic_degrees_at_their_heights(self):
        # degree p^(n-1)(p-1) divides height p^(n-1)(p-1)m
        for p, n, m in [(2, 2, 1), (2, 2, 3), (3, 2, 1), (5, 1, 4)]:
            degree = p ** (n - 1) * (p - 1)
            assert embedding_admissible(degree, degree * m)

    def test_positivity_required(self):
        with pytest.raises(ValueError):
            embedding_admissible(0, 4)
        with pytest.raises(ValueError):
            embedding_admissible(2, 0)


class TestSubgroupSpec:
    def test_builtin_table_matches_cyclo_valuation(self):
        G = SubgroupSpec(3, 2, 6)
        assert set(G.valuations) == set(range(1, 9))
        for k in range(1, 9):
            assert G.valuations[k] == cyclo_valuation(CycloElement(3, 2, k))

    def test_order(self):
        assert SubgroupSpec(2, 3, 4).order == 8
        assert SubgroupSpec(5, 0, 1).order == 1

    def test_serre_criterion_enforced(self):
        with pytest.raises(ValueError, match="does not divide"):
            SubgroupSpec(3, 2, 5)  # degree 6 does not divide 5
        with pytest.raises(ValueError, match="does not divide"):
            SubgroupSpec(2, 3, 6)  # degree 4 does not divide 6
        SubgroupSpec(2, 3, 8)  # degree 4 divides 8

    def test_trivial_group_needs_no_embedding(self):
        G = SubgroupSpec(7, 0, 5)
        assert G.valuations == {}


class TestGroupN:
    def test_prime_cyclic_at_matched_heights(self):
        # C_p at height k(p-1): every valuation is 1/(p-1), N = k
        for p, k in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (7, 3)]:
            G = SubgroupSpec(p, 1, k * (p - 1))
            assert group_N(G) == k

    def test_prime_power_cyclic(self):
        # C_{p^n} at height p^(n-1)(p-1)m: max valuation 1/(p-1) at the
        # bottom of the tower, N = p^(n-1)m
        for p, n, m in [(2, 2, 1), (2, 2, 2), (2, 3, 1), (3, 2, 1), (3, 2, 2)]:
            h = p ** (n - 1) * (p - 1) * m
            G = SubgroupSpec(p, n, h)
            assert group_N(G) == p ** (n - 1) * m

    def test_trivial_group_raises(self):
        with pytest.raises(ValueError, match="defect 1"):
            group_N(SubgroupSpec(2, 0, 3))

    def test_non_integral_N_raises(self, monkeypatch):
        # no constructible spec reaches the tripwire: a C_3 at height 2
        # whose table claims degree 4 elements (valuation 1/4) would
        # give N = 2/4
        G = SubgroupSpec(3, 1, 2)
        assert group_N(G) == 1
        monkeypatch.setattr(G, "valuations", {1: 4, 2: 4})
        with pytest.raises(ValueError, match="N = 2/4 is not an integer"):
            group_N(G)

    def test_monotone_under_nesting(self):
        # C_{p^j} inside C_{p^m} at a common admissible height; the
        # deepest element sits in the bottom C_p of every chain, so the
        # values agree, and the trivial subgroup drops to defect 1
        for p, m in [(2, 3), (3, 2), (5, 2)]:
            h = p ** (m - 1) * (p - 1)
            outer = group_N(SubgroupSpec(p, m, h))
            for j in range(1, m + 1):
                inner = group_N(SubgroupSpec(p, j, h))
                assert inner <= outer
                assert inner == outer  # sharp: max valuation is 1/(p-1) throughout


class TestEoDefect:
    def test_prime_cyclic_defects(self):
        # defect p^k for C_p acting at height k(p-1)
        for p, k in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]:
            assert eo_defect(p, 1, k * (p - 1)) == k

    def test_prime_power_cyclic_defects(self):
        # C_{p^n} at height p^(n-1)(p-1)m: N = p^(n-1)m
        for p, n, m in [(2, 2, 1), (3, 2, 1)]:
            h = p ** (n - 1) * (p - 1) * m
            assert eo_defect(p, n, h) == p ** (n - 1) * m

    def test_real_k_theory_point(self):
        # C_2 at height 1: defect 2
        assert eo_defect(2, 1, 1) == 1
        assert enumerated_eo_defect(SubgroupSpec(2, 1, 1)) == {
            "p": 2,
            "order": 2,
            "height": 1,
            "N": 1,
            "phi": 2,
            "phi_p": 1,
        }

    def test_trivial_group_is_orientable(self):
        assert eo_defect(3, 0, 7) is None
        report = enumerated_eo_defect(SubgroupSpec(3, 0, 7))
        assert report["phi"] == 1 and report["phi_p"] == 0 and report["N"] is None

    def test_agreement_with_formal_inverse_witness(self):
        # the defect of C_2 at height n is 2^n; the formal group side
        # sees the same number as the first deviation degree of the
        # formal inverse for the height-n law over F_2
        for n in [1, 2, 3]:
            N = eo_defect(2, 1, n)
            witness = er_defect_witness(n)
            assert N == n
            assert witness["inverse_deviation_degree"] == 2**N
            assert witness["upper_bound_ok"] and witness["lower_bound_ok"]

    def test_matches_the_enumeration_on_the_grid(self):
        # every spec with p <= 13, m <= 3 and h <= 120: the same N, or
        # the same refusal, as the minimum over the p^m - 1 elements
        outcomes = {"admissible": 0, "refused": 0, "trivial": 0}
        for p in SMALL_PRIMES:
            for m in range(4):
                for h in range(1, 121):
                    try:
                        G = SubgroupSpec(p, m, h)
                    except ValueError as exc:
                        with pytest.raises(ValueError) as refused:
                            eo_defect(p, m, h)
                        assert str(refused.value) == str(exc), (p, m, h)
                        outcomes["refused"] += 1
                        continue
                    report = enumerated_eo_defect(G)
                    assert eo_defect(p, m, h) == report["N"], (p, m, h)
                    outcomes["trivial" if report["N"] is None else "admissible"] += 1
        assert outcomes == {"admissible": 378, "refused": 1782, "trivial": 720}

    @pytest.mark.parametrize(
        "p, m, h",
        [(4, 1, 3), (1, 1, 1), (3, -1, 2), (2, 1, 0), (2, 0, -1)],
        ids=["composite", "unit", "negative-order", "zero-height", "negative-height"],
    )
    def test_refuses_like_the_enumeration(self, p, m, h):
        with pytest.raises(ValueError) as expected:
            SubgroupSpec(p, m, h)
        with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
            eo_defect(p, m, h)
