"""Dual Steenrod algebra layer.

Oracles used here:
  * the dual pairing: a product coefficient must equal the matching
    coefficient in the diagonal of the dual monomial (unsigned pairing),
    the diagonal being tests/oracles/diagonal.py, on random pairs and on
    every pair of A(1) at p = 3 and 5, absent terms pairing to 0,
  * the recursive Milnor-matrix enumeration the package used before it
    stepped through the matrices in place, on every pair of six bases,
  * independent dimension counts for family bases (partition counting),
  * the membership rule oracles.diagonal.allows, monomial by monomial:
    the basis and the generator powers read off Profile._generators
    are the monomials it accepts,
  * classical identities (conjugate of xi_2, Bockstein relations,
    antipode axiom) checked symbol by symbol.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from chromadefect.margolis import total_dimension
from chromadefect.steenrod import Profile, elt_add_term

from oracles.change_of_rings import cotensor_comodule, is_quotient_of
from oracles.cobar import Comodule
from oracles.cofree import cofree_decompose
from oracles.diagonal import _p_part_products as recursive_p_part_products
from oracles.diagonal import (
    DualMonomial,
    _multinomial,
    allows,
    coproduct,
    milnor_product,
    monomials,
    reduced_coproduct,
    tau_gen,
    times,
    xi_gen,
)
from oracles.modules import coalgebra_self, operator_basis, thom_height_one
from oracles.splitting import (
    conjugate_xi,
    elt_mul,
    poincare_identity_check,
    polynomial_series,
    relative_dual_coalgebra,
    splitting_generator_degrees,
    stable_splitting_generator_degrees,
)


def sq(*r):
    return DualMonomial(2, r)


def milnor_p(p, *r):
    return DualMonomial(p, r)


def milnor_q(p, *e):
    return DualMonomial(p, (), tuple(sorted(e)))


def conjugate_xi_power(p, k, e):
    out = {DualMonomial(p): 1}
    for _ in range(e):
        out = elt_mul(p, out, conjugate_xi(p, k))
    return out


def partition_count(degrees_with_caps, top):
    """Independent basis-size oracle: number of monomials per degree for
    generators given as (degree, cap) with cap = max exponent + 1."""
    dims = [0] * (top + 1)
    dims[0] = 1
    for d, cap in degrees_with_caps:
        new = [0] * (top + 1)
        for base in range(top + 1):
            if not dims[base]:
                continue
            e = 0
            while True:
                if cap is not None and e >= cap:
                    break
                total = base + e * d
                if total > top:
                    break
                new[total] += dims[base]
                e += 1
        dims = new
    return dims


@lru_cache(maxsize=None)
def every_monomial(p, top):
    """Every dual monomial of degree <= top, family aside: all exponent
    vectors of the xi_i and all sets of tau_t that fit."""
    xis = [i for i in range(1, top + 2) if xi_gen(p, i).degree() <= top]
    taus = [t for t in range(top + 1) if p != 2 and tau_gen(p, t).degree() <= top]
    found = [DualMonomial(p)]
    for t in taus:
        found += [DualMonomial(p, m.xi, m.tau + (t,)) for m in found
                  if m.degree() + tau_gen(p, t).degree() <= top]
    for i in xis:
        d = xi_gen(p, i).degree()
        found = [DualMonomial(p, m.xi + (0,) * (i - 1 - len(m.xi)) + (e,), m.tau)
                 for m in found for e in range((top - m.degree()) // d + 1)]
    return found


class TestMonomials:
    def test_degrees(self):
        assert xi_gen(2, 1).degree() == 1
        assert xi_gen(2, 4).degree() == 15
        assert xi_gen(5, 2).degree() == 48
        assert tau_gen(3, 2).degree() == 17

    def test_string_form(self):
        assert str(DualMonomial(3, (2, 0, 1), (0, 2))) == "xi1^2*xi3*tau0*tau2"
        assert str(DualMonomial(2)) == "1"

    def test_exterior_sign(self):
        p = 3
        a, b = tau_gen(p, 0), tau_gen(p, 1)
        s1, m1 = times(a, b)
        s2, m2 = times(b, a)
        assert m1 == m2 and s1 == -s2
        assert times(a, a) == (0, None)

    def test_tau_rejected_at_two(self):
        with pytest.raises(ValueError):
            DualMonomial(2, (), (0,))


class TestCoproduct:
    def test_xi2_diagonal(self):
        got = {(str(l), str(r)): c for (l, r), c in coproduct(xi_gen(2, 2)).items()}
        assert got == {("xi2", "1"): 1, ("xi1^2", "xi1"): 1, ("1", "xi2"): 1}

    def test_tau1_diagonal(self):
        got = {(str(l), str(r)): c for (l, r), c in coproduct(tau_gen(3, 1)).items()}
        assert got == {
            ("tau1", "1"): 1,
            ("xi1", "tau0"): 1,
            ("1", "tau1"): 1,
        }

    def test_power_uses_multinomials(self):
        # psi(xi1^2) at p = 3 keeps the cross term with coefficient 2
        got = {(str(l), str(r)): c for (l, r), c in coproduct(xi_gen(3, 1, 2)).items()}
        assert got[("xi1", "xi1")] == 2

    def test_counit(self):
        for p, mono in [(2, DualMonomial(2, (3, 1))), (3, DualMonomial(3, (1,), (0, 1)))]:
            left_counit = {}
            for (l, r), c in coproduct(mono).items():
                if not l.degree():
                    elt_add_term(p, left_counit, r, c)
            assert left_counit == {mono: 1}

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_coassociativity(self, data):
        p = data.draw(st.sampled_from([2, 3]))
        xi = data.draw(st.lists(st.integers(0, 2), min_size=0, max_size=3))
        tau = ()
        if p != 2:
            tau = tuple(sorted(data.draw(st.sets(st.integers(0, 2), max_size=2))))
        mono = DualMonomial(p, tuple(xi), tau)
        # a factor recurs across many terms: expand each diagonal once
        diagonals = {}

        def diagonal(m):
            if m not in diagonals:
                diagonals[m] = coproduct(m)
            return diagonals[m]

        lhs = {}
        rhs = {}
        for (a, b), c in diagonal(mono).items():
            for (a1, a2), c2 in diagonal(a).items():
                key = (a1, a2, b)
                lhs[key] = (lhs.get(key, 0) + c * c2) % p
            for (b1, b2), c2 in diagonal(b).items():
                key = (a, b1, b2)
                rhs[key] = (rhs.get(key, 0) + c * c2) % p
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = {k: v for k, v in rhs.items() if v}
        assert lhs == rhs

    def test_reduced_coproduct_drops_primitive_part(self):
        assert reduced_coproduct(xi_gen(2, 1)) == {}
        rc = reduced_coproduct(xi_gen(2, 2))
        assert len(rc) == 1


class TestConjugation:
    def test_xi2(self):
        assert {str(m): c for m, c in conjugate_xi(2, 2).items()} == {
            "xi2": 1,
            "xi1^3": 1,
        }

    def test_antipode_axiom(self):
        # mult (chi (x) 1) psi = unit counit, so positive degrees collapse
        for p, k in [(2, 3), (2, 4), (3, 2), (5, 2)]:
            acc = {}
            for (l, r), c in coproduct(xi_gen(p, k)).items():
                chi_l = {DualMonomial(p): 1}
                for i, e in enumerate(l.xi):
                    if e:
                        chi_l = elt_mul(p, chi_l, conjugate_xi_power(p, i + 1, e))
                for m, cc in elt_mul(p, chi_l, {r: 1}).items():
                    elt_add_term(p, acc, m, cc * c)
            assert acc == {}

    def test_involution(self):
        # the dual algebra is commutative, so conjugation is involutive
        for p, k in [(2, 3), (3, 2)]:
            acc = {}
            for m, c in conjugate_xi(p, k).items():
                chi_m = {DualMonomial(p): 1}
                for i, e in enumerate(m.xi):
                    if e:
                        chi_m = elt_mul(p, chi_m, conjugate_xi_power(p, i + 1, e))
                for m2, c2 in chi_m.items():
                    elt_add_term(p, acc, m2, c * c2)
            assert acc == {xi_gen(p, k): 1}


class TestProfiles:
    def test_family_dimensions(self):
        assert total_dimension(Profile.A(2, 1)) == 8
        assert total_dimension(Profile.A(2, 2)) == 64
        assert total_dimension(Profile.E(2, 1)) == 4
        assert total_dimension(Profile.P(2, 0)) == 2
        assert total_dimension(Profile.A(3, 1)) == 12

    def test_invalid_heights_rejected(self):
        # xi_1^4 = 0 with xi_2 = 0 leaves a surviving diagonal term
        with pytest.raises(ValueError):
            Profile(2, (2,), 0)

    def test_invalid_tau_set_rejected(self):
        # killing tau_1 while xi_1 and tau_0 both survive leaves the
        # diagonal term xi_1 (x) tau_0 alive
        with pytest.raises(ValueError):
            Profile(3, (), None, frozenset({0}))

    def test_exterior_tau_quotient_is_valid(self):
        # killing everything except tau_1 is a legitimate quotient
        prof = Profile(3, (0,), 0, frozenset({1}))
        assert [str(m) for m in monomials(prof, 20)] == ["1", "tau1"]

    def test_thom_family_poincare(self):
        # height 1 at p = 2: exterior xi_1 times polynomial xi_2, xi_3, ...
        oracle = partition_count([(1, 2), (3, None), (7, None), (15, None)], 14)
        assert Profile.T(2, 1).poincare(14) == oracle

    def test_thom_family_keeps_all_tau(self):
        # odd primes: every exterior generator survives, including tau_0
        prof = Profile.T(3, 1)
        assert prof.tau_allowed(0) and prof.tau_allowed(5)
        assert [str(m) for m in monomials(prof, 6)] == ["1", "tau0", "tau1", "tau0*tau1"]

    def test_a1_basis_degrees(self):
        assert [d for d, _ in Profile.A(2, 1).basis(10)] == [0, 1, 2, 3, 3, 4, 5, 6]

    def test_even_family_basis(self):
        P1 = Profile.P(2, 1)
        # generators xi_1^2 (exponent cap 4) and xi_2^2 (cap 2)
        oracle = partition_count([(2, 4), (6, 2)], 20)
        assert P1.poincare(20) == oracle
        assert total_dimension(P1) == 8

    @pytest.mark.parametrize("p, top", [(2, 40), (3, 80)])
    def test_poincare_counts_the_basis(self, p, top):
        # the generating function against the enumerated basis
        for family in (Profile.A, Profile.E, Profile.P, Profile.T):
            for n in range(3):
                fam = family(p, n)
                counts = [0] * (top + 1)
                for d, _ in fam.basis(top):
                    counts[d] += 1
                assert fam.poincare(top) == counts, fam

    @pytest.mark.parametrize("family", [Profile.A, Profile.E, Profile.P, Profile.T])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_generators_against_membership(self, family, p):
        # basis and generator_powers, both read off _generators, against
        # the oracle's monomial-by-monomial membership rule: bare pairs
        # (no trailing zero in xi, tau increasing and empty at p = 2),
        # each beside its oracle degree, in the oracle's (degree, name)
        # order, which numbers the resolution's operators
        for n in range(5):
            fam = family(p, n)
            for top in (0, 1, 7, 30, 100):
                basis = fam.basis(top)
                for degree, (xi, tau) in basis:
                    assert not xi or xi[-1], (fam, xi)
                    assert list(tau) == sorted(set(tau)) and not (p == 2 and tau), (fam, tau)
                    assert degree == DualMonomial(p, xi, tau).degree(), (fam, xi, tau)
                kept = [m for m in every_monomial(p, top) if allows(fam, m)]
                kept.sort(key=lambda m: (m.degree(), str(m)))
                assert basis == [(m.degree(), (m.xi, m.tau)) for m in kept], (fam, top)
                powers = {("h", i, j): xi_gen(p, i, p**j)
                          for i in range(1, top + 2) for j in range(top.bit_length())}
                powers |= {("a", t, None): tau_gen(p, t) for t in range(top + 1) if p != 2}
                powers = {k: m for k, m in powers.items() if m.degree() <= top and allows(fam, m)}
                got = [(key, degree, pair) for key, degree, pair, _ in fam.generator_powers(top)]
                assert got == [(k, m.degree(), (m.xi, m.tau)) for k, m in powers.items()], (fam, top)

    def test_reduce_is_multiplicative(self):
        prof = Profile.T(2, 1)

        def reduce(mono):
            return mono if allows(prof, mono) else None

        rng = random.Random(4)
        for _ in range(40):
            x = DualMonomial(2, tuple(rng.randrange(0, 3) for _ in range(3)))
            y = DualMonomial(2, tuple(rng.randrange(0, 3) for _ in range(3)))
            _, xy = times(x, y)
            lhs = reduce(xy)
            rx, ry = reduce(x), reduce(y)
            rhs = None
            if rx is not None and ry is not None:
                _, rhs = times(rx, ry)
                rhs = reduce(rhs)
            # the quotient map is a ring map: xy dies iff a factor dies
            # or the product leaves the family
            if lhs is not None:
                assert rhs == lhs

    def test_quotient_partial_order(self):
        assert is_quotient_of(Profile.E(2, 1), Profile.A(2, 1))
        assert is_quotient_of(Profile.T(2, 2), Profile.T(2, 1))
        assert not is_quotient_of(Profile.A(2, 1), Profile.E(2, 1))


class TestMilnorProduct:
    def test_squares(self):
        assert milnor_product(sq(1), sq(1)) == {}
        assert milnor_product(sq(2), sq(2)) == milnor_product(sq(3), sq(1))

    def test_bockstein(self):
        for p in (3, 5):
            beta = milnor_q(p, 0)
            assert milnor_product(beta, beta) == {}

    def test_q_one_commutator(self):
        p = 3
        beta, P1 = milnor_q(p, 0), milnor_p(p, 1)
        lhs = milnor_product(P1, beta)
        for k, v in milnor_product(beta, P1).items():
            cur = (lhs.get(k, 0) - v) % p
            if cur:
                lhs[k] = cur
            else:
                lhs.pop(k, None)
        assert lhs == {milnor_q(p, 1): 1}

    def _pairing_coef(self, p, a, b, x):
        total = 0
        for (l, r), c in coproduct(x).items():
            if l == a and r == b:
                total = (total + c) % p
        return total

    def test_pairing_oracle_p2(self):
        rng = random.Random(7)
        for _ in range(80):
            a = sq(*(rng.randrange(0, 6) for _ in range(rng.randrange(1, 3))))
            b = sq(*(rng.randrange(0, 6) for _ in range(rng.randrange(1, 3))))
            for T, got in milnor_product(a, b).items():
                assert got == self._pairing_coef(2, a, b, T)

    def test_pairing_oracle_odd(self):
        rng = random.Random(9)
        for p in (3, 5):
            for _ in range(50):
                q = tuple(sorted(rng.sample(range(3), rng.randrange(0, 3))))
                a = DualMonomial(
                    p, tuple(rng.randrange(0, 4) for _ in range(rng.randrange(0, 3))), q
                )
                q = tuple(sorted(rng.sample(range(3), rng.randrange(0, 3))))
                b = DualMonomial(
                    p, tuple(rng.randrange(0, 4) for _ in range(rng.randrange(0, 3))), q
                )
                for T, got in milnor_product(a, b).items():
                    assert got == self._pairing_coef(p, a, b, T)

    def test_zero_coefficients_also_match(self):
        # elements of the right degree absent from a product must pair to 0
        a, b = sq(2), sq(4)
        prod = milnor_product(a, b)
        deg = a.degree() + b.degree()
        for T in operator_basis(Profile.A(2, 2)):
            if T.degree() == deg and T not in prod:
                assert self._pairing_coef(2, a, b, T) == 0

    @pytest.mark.parametrize("p, size", [(3, 12), (5, 20)])
    def test_pairing_oracle_whole_a1_odd(self, p, size):
        # every pair of A(1) at p against every basis element of its
        # degree: a present term pairs to its coefficient, an absent one
        # to 0, so a wrong exterior sign or a kept repeated Q_q fails
        basis = operator_basis(Profile.A(p, 1))
        assert len(basis) == size
        diagonals = {x: coproduct(x) for x in basis}
        for a in basis:
            for b in basis:
                prod = milnor_product(a, b)
                assert set(prod) <= set(diagonals), (a, b)
                deg = a.degree() + b.degree()
                for x, psi in diagonals.items():
                    if x.degree() == deg:
                        assert prod.get(x, 0) == psi.get((a, b), 0), (a, b, x)

    @pytest.mark.parametrize(
        "family, top",
        [
            pytest.param(Profile.T(2, 0), 24, id="T0_p2"),
            pytest.param(Profile.T(3, 0), 60, id="T0_p3"),
            pytest.param(Profile.A(2, 2), 46, id="A2_p2"),
            pytest.param(Profile.A(3, 1), 28, id="A1_p3"),
            pytest.param(Profile.A(5, 1), 84, id="A1_p5"),
            pytest.param(Profile.T(5, 0), 120, id="T0_p5"),
        ],
    )
    def test_matches_recursive_enumeration(self, family, top, monkeypatch):
        # every pair of monomials with degrees summing to at most top;
        # the finite families are whole at these tops
        basis = monomials(family, top)
        pairs = [(a, b) for a in basis for b in basis if a.degree() + b.degree() <= top]
        got = [milnor_product(a, b) for a, b in pairs]
        monkeypatch.setattr("chromadefect.steenrod._p_part_products", recursive_p_part_products)
        assert got == [milnor_product(a, b) for a, b in pairs]

    def test_lucas_bit_rule(self):
        # at p = 2 a diagonal's multinomial is odd iff no two of its
        # entries share a bit, which is how _p_part_products reads it
        rng = random.Random(21)
        for _ in range(3000):
            diag = [rng.randrange(0, 64) for _ in range(rng.randrange(1, 6))]
            disjoint = all(not a & b for k, a in enumerate(diag) for b in diag[k + 1 :])
            assert _multinomial(2, diag) == disjoint, diag

    def test_subalgebra_closure(self):
        basis = operator_basis(Profile.A(2, 1))
        assert len(basis) == 8
        allowed = set(basis)
        for a in basis:
            for b in basis:
                assert set(milnor_product(a, b)) <= allowed

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_associative(self, data):
        p = data.draw(st.sampled_from([2, 3]))
        def draw_elt():
            if p == 2:
                return sq(*(data.draw(st.integers(0, 3)) for _ in range(2)))
            q = tuple(sorted(data.draw(st.sets(st.integers(0, 1), max_size=2))))
            return DualMonomial(p, (data.draw(st.integers(0, 2)),), q)
        a, b, c = draw_elt(), draw_elt(), draw_elt()

        def mul(x, y):
            out = {}
            for k1, c1 in x.items():
                for k2, c2 in y.items():
                    for k3, c3 in milnor_product(k1, k2).items():
                        cur = (out.get(k3, 0) + c1 * c2 * c3) % p
                        if cur:
                            out[k3] = cur
                        else:
                            out.pop(k3, None)
            return out

        assert mul(mul({a: 1}, {b: 1}), {c: 1}) == mul({a: 1}, mul({b: 1}, {c: 1}))


class TestComodules:

    def test_counit_violation_rejected(self):
        A1 = Profile.A(2, 1)
        with pytest.raises(ValueError):
            Comodule(A1, [("x", 0)], {"x": []})

    def test_coassociativity_violation_rejected(self):
        A1 = Profile.A(2, 1)
        unit = DualMonomial(2)
        basis = [("x", 0), ("y", 3)]
        # xi_2 (x) x is not coassociative on its own: psi(xi_2) has the
        # middle term xi_1^2 (x) xi_1 with no matching component
        coaction = {
            "x": [(unit, 1, "x")],
            "y": [(unit, 1, "y"), (xi_gen(2, 2), 1, "x")],
        }
        with pytest.raises(ValueError):
            Comodule(A1, basis, coaction)

    def test_valid_nontrivial_comodule(self):
        # y in degree 1 with psi(y) = 1 (x) y + xi_1 (x) x is coassociative
        A1 = Profile.A(2, 1)
        unit = DualMonomial(2)
        C = Comodule(
            A1,
            [("x", 0), ("y", 1)],
            {
                "x": [(unit, 1, "x")],
                "y": [(unit, 1, "y"), (xi_gen(2, 1), 1, "x")],
            },
        )
        assert C.coaction["y"][1] == (xi_gen(2, 1), 1, "x")


class TestCotensor:
    def test_dimension_product(self):
        A1 = Profile.A(2, 1)
        E1 = Profile.E(2, 1)
        M = cotensor_comodule(A1, E1, Comodule.trivial(E1, (0,)), 6)
        assert M.poincare(6) == [1, 0, 1, 0, 0, 0, 0]
        assert total_dimension(A1) == total_dimension(E1) * len(M.names)

    def test_cotensor_over_itself(self):
        A1 = Profile.A(2, 1)
        M = cotensor_comodule(A1, A1, Comodule.trivial(A1, (0,)), 6)
        assert len(M.names) == 1 and [M.degree_of[n] for n in M.names] == [0]

    def test_odd_prime(self):
        A1 = Profile.A(3, 1)
        E0 = Profile.E(3, 0)
        M = cotensor_comodule(A1, E0, Comodule.trivial(E0, (0,)), 9)
        # quotienting the dim-12 family by E(tau_0) leaves dimension 6
        assert total_dimension(A1) == total_dimension(E0) * 6
        assert len(M.names) == sum(1 for d in M.degree_of.values() if d <= 9)


class TestCofree:
    def test_family_over_itself(self):
        P0 = Profile.P(2, 0)
        ok, cogens = cofree_decompose(coalgebra_self(P0, 2))
        assert ok and cogens == [0]

    def test_trivial_not_cofree(self):
        P0 = Profile.P(2, 0)
        ok, witness = cofree_decompose(Comodule.trivial(P0, (0,)))
        assert not ok and witness[0] == "P(1,1)"

    def test_thom_homology_cogenerators(self):
        # the height-1 Thom homology F_2[z^2], truncated below 4J + 4,
        # is cofree over the smallest even family with cogenerators in 4N
        J = 3
        ok, cogens = cofree_decompose(thom_height_one(J))
        assert ok
        assert cogens == [4 * j for j in range(J + 1)]
        assert all(d % 4 == 0 for d in cogens)


class TestRelativePrimitives:
    def test_width_two(self):
        prof, basis, prims = relative_dual_coalgebra(2, 2, 30)
        assert prof.height(1) == 1 and prof.height(2) is None
        assert [e for e, _, _ in prims] == [1, 2, 4]
        assert all(ok for _, _, ok in prims)
        # first primitive is the conjugate square, which reduces to xi_2^2
        assert sorted(map(str, prims[0][1])) == ["xi2^2"]

    def test_odd_prime_width(self):
        _, _, prims = relative_dual_coalgebra(3, 3, 40)
        assert prims and all(ok for _, _, ok in prims)

    def test_bad_width(self):
        with pytest.raises(ValueError):
            relative_dual_coalgebra(2, 0, 10)


class TestPoincareIdentities:
    def test_finite_splitting(self):
        lhs, rhs = splitting_generator_degrees(2, 1, 2)
        ok, sa, sb = poincare_identity_check(lhs, rhs, 20)
        assert ok and sa[0] == 1

    def test_stable_splitting(self):
        lhs, rhs = stable_splitting_generator_degrees(2, 1, 2)
        ok, _, _ = poincare_identity_check(lhs, rhs, 20)
        assert ok

    def test_width_validation(self):
        with pytest.raises(ValueError):
            splitting_generator_degrees(2, 1, 4)

    def test_series_values(self):
        # one genuine series: polynomial on a degree-2 class
        assert polynomial_series([2], 6) == [1, 0, 1, 0, 1, 0, 1]
