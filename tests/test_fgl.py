"""The ER(n) defect witness and its bivariate reference law.

The reference law (oracles/fgl_law.py) is first checked on its own,
against
  * closed forms for the multiplicative law: [m](x) = (1+x)^m - 1 and
    the inverse 1/(1+x) - 1,
  * the functional equation of the p-typical logarithm, which forces
    [p](x) = x^(p^n) exactly mod p,
  * binomial expansions over exact rationals,
  * jets and caps checked against independently built polynomial data.
Then `honda_fgl` with `m_series` and `formal_inverse` is the oracle for
the coefficient lists of `honda_multiple`, and the bivariate defect
witness kept below is the oracle for `er_defect_witness`.  The rational
solver in oracles/honda_series.py, the package's earlier
`honda_multiple`, is the oracle for the integer solver over a grid of
primes, heights, multiples and caps, refusals included.  The full-cap
witness in oracles/er_witness.py, the package's earlier one, is the
oracle for the witness that solves each height only through 2^h + 1.
"""

import math
import re
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import chromadefect.fgl as fgl_module
from chromadefect import InputError, cli
from chromadefect.fgl import er_defect_witness, er_defect_witnesses, honda_multiple

from oracles import er_witness, honda_series
from oracles.fgl_law import (
    FormalGroupLaw,
    PrimeField,
    RationalField,
    TruncatedSeries,
    compositional_inverse,
    formal_inverse,
    height,
    honda_fgl,
    honda_logarithm,
    jet_equal,
    m_series,
)

QQ = RationalField()
F2 = PrimeField(2)
F3 = PrimeField(3)


def binomial(m, k):
    out = 1
    for i in range(k):
        out = out * (m - i) // (i + 1) if isinstance(m, int) else out * (m - i) / (i + 1)
    return out


class TestRings:
    def test_rationals(self):
        assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
        assert QQ.inv(Fraction(-3, 8)) == Fraction(-8, 3)
        assert QQ.is_unit(Fraction(1, 7)) and not QQ.is_unit(Fraction(0))

    def test_prime_field(self):
        assert F3.coerce(-1) == 2
        assert F3.inv(2) == 2
        assert F3.mul(2, 2) == 1
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(6)


class TestSeries:
    def test_construction_guards(self):
        with pytest.raises(ValueError, match="cap must be at least 1"):
            TruncatedSeries(QQ, 0, ("x",), {})
        with pytest.raises(ValueError, match="above the cap"):
            TruncatedSeries(QQ, 4, ("x",), {(5,): 1})
        with pytest.raises(ValueError, match="one or two"):
            TruncatedSeries(QQ, 4, ("x", "y", "z"), {})
        with pytest.raises(ValueError, match="does not fit"):
            TruncatedSeries(QQ, 4, ("x",), {(1, 2): 1})

    def test_arithmetic(self):
        f = TruncatedSeries(QQ, 6, ("x",), {(1,): 1, (2,): 1})
        g = TruncatedSeries(QQ, 6, ("x",), {(1,): 1, (2,): -1})
        assert (f * g).terms == {(2,): Fraction(1), (4,): Fraction(-1)}
        assert (f - f).terms == {}
        assert f.scale(3).coefficient(2) == 3
        assert (2 * g).coefficient(1) == 2

    def test_cap_truncates_products(self):
        f = TruncatedSeries(QQ, 3, ("x",), {(2,): 1})
        assert (f * f).terms == {}

    def test_binary_guards(self):
        a = TruncatedSeries.variable(QQ, 5)
        with pytest.raises(ValueError, match="cap mismatch"):
            a + TruncatedSeries.variable(QQ, 6)
        with pytest.raises(ValueError, match="rings differ"):
            a + TruncatedSeries.variable(F2, 5)
        with pytest.raises(ValueError, match="variable sets"):
            a + TruncatedSeries.variable(QQ, 5, "y")

    def test_truncate(self):
        f = TruncatedSeries(QQ, 8, ("x",), {(1,): 1, (7,): 2})
        assert f.truncate(4).terms == {(1,): Fraction(1)}
        with pytest.raises(ValueError, match="lower"):
            f.truncate(9)

    def test_min_degree(self):
        assert TruncatedSeries.zero(QQ, 5).min_degree() is None
        f = TruncatedSeries(QQ, 5, ("x",), {(3,): 1, (5,): 1})
        assert f.min_degree() == 3

    def test_substitution(self):
        f = TruncatedSeries(QQ, 8, ("x",), {(1,): 1, (3,): 1})
        g = TruncatedSeries(QQ, 8, ("x",), {(2,): 1})
        assert f.substitute(g).terms == {(2,): Fraction(1), (6,): Fraction(1)}
        with pytest.raises(ValueError, match="zero constant term"):
            f.substitute(TruncatedSeries(QQ, 8, ("x",), {(0,): 1, (1,): 1}))
        with pytest.raises(ValueError, match="replacement series"):
            f.substitute(g, g)


class TestJets:
    def test_spec_samples(self):
        x = TruncatedSeries.variable(QQ, 6)
        f = TruncatedSeries(QQ, 6, ("x",), {(1,): 1, (3,): 1})
        assert jet_equal(x, x, 6)
        assert jet_equal(x, f, 2)
        assert not jet_equal(x, f, 3)

    def test_guards(self):
        x = TruncatedSeries.variable(QQ, 6)
        with pytest.raises(ValueError, match="exceeds a cap"):
            jet_equal(x, x, 7)
        with pytest.raises(ValueError, match="common ring"):
            jet_equal(x, TruncatedSeries.variable(F2, 6), 2)

    def test_caps_may_differ(self):
        assert jet_equal(
            TruncatedSeries.variable(QQ, 5), TruncatedSeries.variable(QQ, 9), 5
        )

    def test_equivalence_relation(self):
        a = TruncatedSeries(F3, 8, ("x",), {(1,): 1, (5,): 1})
        b = TruncatedSeries(F3, 8, ("x",), {(1,): 1, (5,): 2})
        c = TruncatedSeries(F3, 8, ("x",), {(1,): 1, (5,): 2, (6,): 1})
        for n in range(5):
            assert jet_equal(a, a, n)
            assert jet_equal(a, b, n) == jet_equal(b, a, n)
            if jet_equal(a, b, n) and jet_equal(b, c, n):
                assert jet_equal(a, c, n)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_composition_respects_jets(self, data):
        # a strict substitution cannot create disagreement below the jet
        cap = 8
        n = data.draw(st.integers(2, 5))
        coefs = data.draw(st.lists(st.integers(0, 2), min_size=cap, max_size=cap))
        f_terms = {(1,): 1}
        for k in range(2, cap + 1):
            if coefs[k - 2]:
                f_terms[(k,)] = coefs[k - 2]
        f = TruncatedSeries(F3, cap, ("x",), f_terms)
        tail = data.draw(st.lists(st.integers(0, 2), min_size=3, max_size=3))
        g_terms = dict(f_terms)
        for i, c in enumerate(tail):
            k = n + 1 + i
            if c and k <= cap:
                g_terms[(k,)] = (g_terms.get((k,), 0) + c) % 3
        g = TruncatedSeries(F3, cap, ("x",), g_terms)
        strict = data.draw(st.lists(st.integers(0, 2), min_size=4, max_size=4))
        c_terms = {(1,): 1}
        for i, c in enumerate(strict):
            if c:
                c_terms[(2 + i,)] = c
        csub = TruncatedSeries(F3, cap, ("x",), c_terms)
        assert jet_equal(f, g, n)
        assert jet_equal(f.substitute(csub), g.substitute(csub), n)
        assert jet_equal(csub.substitute(f), csub.substitute(g), n)


class TestCompositionalInverse:
    def test_identity(self):
        x = TruncatedSeries.variable(QQ, 6)
        assert compositional_inverse(x) == x

    def test_round_trip_with_logarithm(self):
        log = honda_logarithm(2, 1, 12)
        exp = compositional_inverse(log)
        x = TruncatedSeries.variable(QQ, 12)
        assert exp.substitute(log) == x
        assert log.substitute(exp) == x

    def test_unit_scaling(self):
        f = TruncatedSeries(QQ, 6, ("x",), {(1,): 2, (2,): 1})
        g = compositional_inverse(f)
        assert g.coefficient(1) == Fraction(1, 2)
        assert f.substitute(g) == TruncatedSeries.variable(QQ, 6)

    def test_guards(self):
        with pytest.raises(ValueError, match="constant term"):
            compositional_inverse(TruncatedSeries(QQ, 5, ("x",), {(0,): 1, (1,): 1}))
        with pytest.raises(ValueError, match="unit"):
            compositional_inverse(TruncatedSeries(QQ, 5, ("x",), {(2,): 1}))


class TestLawValidation:
    def test_standard_laws_construct(self):
        FormalGroupLaw.additive(QQ, 8)
        FormalGroupLaw.multiplicative(F3, 8)

    def test_axis_failure(self):
        with pytest.raises(ValueError, match="identity on an axis"):
            FormalGroupLaw(
                TruncatedSeries(QQ, 6, ("x", "y"), {(1, 0): 1, (0, 1): 1, (2, 0): 1})
            )

    def test_commutativity_failure(self):
        with pytest.raises(ValueError, match="not commutative"):
            FormalGroupLaw(
                TruncatedSeries(QQ, 6, ("x", "y"), {(1, 0): 1, (0, 1): 1, (2, 1): 1})
            )

    def test_associativity_failure(self):
        with pytest.raises(ValueError, match="not associative"):
            FormalGroupLaw(
                TruncatedSeries(QQ, 6, ("x", "y"), {(1, 0): 1, (0, 1): 1, (2, 2): 1})
            )

    def test_axioms_are_cap_relative(self):
        # over F_2 the x^2 y^2 perturbation only breaks associativity
        # in degree 10, so it passes at cap 7 and fails at cap 10
        terms = {(1, 0): 1, (0, 1): 1, (2, 2): 1}
        FormalGroupLaw(TruncatedSeries(F2, 7, ("x", "y"), terms))
        with pytest.raises(ValueError, match="not associative"):
            FormalGroupLaw(TruncatedSeries(F2, 10, ("x", "y"), terms))

    def test_univariate_rejected(self):
        with pytest.raises(ValueError, match="x and y"):
            FormalGroupLaw(TruncatedSeries(QQ, 6, ("x",), {(1,): 1}))


class TestMSeries:
    def test_additive_doubling(self):
        F = FormalGroupLaw.additive(QQ, 8)
        assert m_series(F, 2).terms == {(1,): Fraction(2)}

    def test_multiplicative_closed_form(self):
        F = FormalGroupLaw.multiplicative(QQ, 8)
        for m in range(6):
            got = m_series(F, m)
            for k in range(1, 9):
                assert got.coefficient(k) == binomial(m, k)

    def test_negative_multiples(self):
        F = FormalGroupLaw.multiplicative(QQ, 6)
        assert m_series(F, -1) == formal_inverse(F)
        got = m_series(F, -2)
        for k in range(1, 7):
            # (1+x)^-2 - 1 has coefficient (-1)^k (k+1)
            assert got.coefficient(k) == (-1) ** k * (k + 1)

    def test_honda_p_series_is_a_single_power(self):
        assert m_series(honda_fgl(2, 1, 10), 2).terms == {(2,): 1}
        assert m_series(honda_fgl(2, 2, 12), 2).terms == {(4,): 1}
        assert m_series(honda_fgl(3, 1, 10), 3).terms == {(3,): 1}

    @settings(max_examples=20, deadline=None)
    @given(st.integers(-4, 4), st.integers(-4, 4))
    def test_additivity(self, m, k):
        F = FormalGroupLaw.multiplicative(QQ, 8)
        assert m_series(F, m + k) == F.apply(m_series(F, m), m_series(F, k))


class TestFormalInverse:
    def test_additive(self):
        F = FormalGroupLaw.additive(QQ, 8)
        assert formal_inverse(F).terms == {(1,): Fraction(-1)}

    def test_multiplicative_geometric(self):
        inv = formal_inverse(FormalGroupLaw.multiplicative(QQ, 8))
        for k in range(1, 9):
            assert inv.coefficient(k) == (-1) ** k

    def test_cancels_in_the_law(self):
        for F in (
            FormalGroupLaw.multiplicative(QQ, 8),
            honda_fgl(2, 2, 12),
            honda_fgl(3, 1, 10),
        ):
            inv = formal_inverse(F)
            assert F.apply(F.x(), inv).terms == {}

    def test_deviation_exactly_at_two_power(self):
        for n in (1, 2, 3):
            F = honda_fgl(2, n, 2**n + 8)
            dev = (formal_inverse(F) - F.x()).min_degree()
            assert dev == 2**n


class TestHeight:
    def test_additive_is_infinite_to_cap(self):
        assert height(FormalGroupLaw.additive(F2, 8)) == math.inf
        assert height(FormalGroupLaw.additive(F3, 9)) == math.inf

    def test_multiplicative_is_one(self):
        assert height(FormalGroupLaw.multiplicative(F2, 8)) == 1
        assert height(FormalGroupLaw.multiplicative(F3, 9)) == 1

    def test_honda_heights(self):
        for p, n, cap in ((2, 1, 10), (2, 2, 12), (2, 3, 16), (3, 1, 10), (3, 2, 11)):
            assert height(honda_fgl(p, n, cap)) == n

    def test_characteristic_zero_rejected(self):
        with pytest.raises(ValueError, match="prime characteristic"):
            height(FormalGroupLaw.multiplicative(QQ, 6))


class TestHonda:
    def test_logarithm_terms(self):
        log = honda_logarithm(2, 1, 12)
        assert log.terms == {
            (1,): Fraction(1),
            (2,): Fraction(1, 2),
            (4,): Fraction(1, 4),
            (8,): Fraction(1, 8),
        }
        assert honda_logarithm(3, 1, 10).terms == {
            (1,): Fraction(1),
            (3,): Fraction(1, 3),
            (9,): Fraction(1, 9),
        }

    def test_height_one_cross_term(self):
        assert honda_fgl(2, 1, 10).series.coefficient((1, 1)) == 1

    def test_composite_base_rejected(self):
        with pytest.raises(ValueError, match="not prime"):
            honda_fgl(4, 1, 8)


class TestDefectWitness:
    def test_both_bounds_for_small_heights(self):
        # heights 5 and 6 took minutes through the bivariate law, and
        # 7 and 8 seconds through the rational solver
        for n in (1, 2, 3, 4, 5, 6, 7, 8):
            report = er_defect_witness(n)
            assert report["cap"] == 2**n + 8
            assert report["upper_bound_ok"] and report["lower_bound_ok"]
            assert report["inverse_deviation_degree"] == 2**n
            assert report["doubling_degrees"] == {h: 2**h for h in range(1, n + 1)}
            assert all(report["inverse_obstructed"].values())

    def test_jet_window_around_the_deviation(self):
        F = honda_fgl(2, 2, 12)
        inv = formal_inverse(F)
        assert jet_equal(inv, F.x(), 3)
        assert not jet_equal(inv, F.x(), 4)

    def test_guards(self):
        with pytest.raises(InputError, match="cannot see degree"):
            er_defect_witness(2, cap=4)
        with pytest.raises(ValueError, match="at least 1"):
            er_defect_witness(0)


@lru_cache(maxsize=None)
def _law(p, h, cap):
    return honda_fgl(p, h, cap)


def _bivariate_witness(n, cap=None):
    """The defect witness read off the validated bivariate Honda law."""
    target = 2**n
    if cap is None:
        cap = target + 8
    doubling = {}
    obstructed = {}
    upper = True
    deviation = None
    lower = False
    for h in range(1, n + 1):
        F = _law(2, h, cap)
        x = F.x()
        two = m_series(F, 2)
        inv = formal_inverse(F)
        doubling[h] = two.min_degree()
        obstructed[h] = not jet_equal(inv, x, target)
        upper = upper and doubling[h] == 2**h and obstructed[h]
        if h == n:
            deviation = (inv - x).min_degree()
            lower = jet_equal(inv, x, target - 1) and deviation == target
    return {
        "n": n,
        "cap": cap,
        "doubling_degrees": doubling,
        "inverse_obstructed": obstructed,
        "inverse_deviation_degree": deviation,
        "upper_bound_ok": upper,
        "lower_bound_ok": lower,
    }


class TestHondaMultiple:
    @pytest.mark.parametrize("p, h", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)])
    def test_agrees_with_the_bivariate_law(self, p, h):
        for cap in (p**h + 1, p**h + 8):
            F = _law(p, h, cap)
            got_p = honda_multiple(p, h, p, cap)
            got_inv = honda_multiple(p, h, -1, cap)
            want_p = m_series(F, p)
            want_inv = formal_inverse(F)
            assert len(got_p) == len(got_inv) == cap + 1
            for k in range(cap + 1):
                assert got_p[k] == want_p.coefficient(k), (p, h, cap, k)
                assert got_inv[k] == want_inv.coefficient(k), (p, h, cap, k)

    def test_p_series_is_a_single_power(self):
        assert honda_multiple(2, 3, 2, 20) == [0] * 8 + [1] + [0] * 12
        assert honda_multiple(3, 1, 3, 20) == [0] * 3 + [1] + [0] * 17

    def test_integrality_gate(self):
        # [1/2](x) has linear coefficient 1/2, which has no value mod 2
        with pytest.raises(ValueError, match="not 2-integral"):
            honda_multiple(2, 1, Fraction(1, 2), 9)
        assert honda_multiple(3, 1, Fraction(1, 2), 9)[1] == 2

    @pytest.mark.parametrize("degree", [2, 5, 12])
    def test_log_check_catches_a_corrupted_coefficient(self, monkeypatch, degree):
        # ER(n) solves height n through degree 2^n + 1, so the degree
        # lies inside a series ER(n) solves
        n = {2: 1, 5: 2, 12: 4}[degree]
        solve = fgl_module._solve_log_multiple

        def corrupted(log_terms, c, cap):
            f = solve(log_terms, c, cap)
            if degree <= cap:
                f[degree] += 2
            return f

        monkeypatch.setattr(fgl_module, "_solve_log_multiple", corrupted)
        with pytest.raises(ValueError, match=f"log\\(x\\) in degree {degree};"):
            honda_multiple(2, 2, 2, 12)
        with pytest.raises(ValueError, match=f"log\\(x\\) in degree {degree};"):
            er_defect_witness(n)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_square_matches_the_product(self, data):
        top = data.draw(st.integers(0, 12))
        a = data.draw(st.lists(st.integers(-10**30, 10**30), min_size=top + 1, max_size=top + 4))
        assert fgl_module._dense_square(a, top) == honda_series._dense_mul(a, a, top)

    def test_guards(self):
        with pytest.raises(ValueError, match="nonzero"):
            honda_multiple(2, 1, 0, 8)
        with pytest.raises(ValueError, match="not prime"):
            honda_multiple(4, 1, 2, 8)
        # only an int or a Fraction names c exactly
        for c in (0.5, "1/2"):
            with pytest.raises(ValueError, match="must be an int or a Fraction"):
                honda_multiple(2, 1, c, 8)


def _multiple_or_refusal(solve, p, h, c, cap):
    try:
        return solve(p, h, c, cap)
    except ValueError as exc:
        assert f"not {p}-integral" in str(exc), exc
        return str(exc)


class TestAgainstRationalSolver:
    """The integer solver against the rational one it replaced, which
    the bivariate law checks in turn.  [1/2](x) at p = 2 and [1/3](x)
    at p = 3 are refused by the gate in degree 1, with the same message
    on both sides; [-5/7](x) is p-integral at every p here."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("h", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "c", [2, -1, 3, Fraction(1, 2), Fraction(1, 3), Fraction(-5, 7), "p"]
    )
    def test_same_series_or_same_refusal(self, p, h, c):
        c = p if c == "p" else c
        for cap in sorted({p**h + 1, p**h + 8, 40}):
            want = _multiple_or_refusal(honda_series.honda_multiple, p, h, c, cap)
            got = _multiple_or_refusal(honda_multiple, p, h, c, cap)
            assert got == want, (p, h, c, cap)
            if c * p == 1:
                assert f"coefficient {c} in degree 1 " in got


class TestWitnessAgainstBivariateReference:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reports_equal(self, n):
        assert er_defect_witness(n) == _bivariate_witness(n)

    def test_reports_equal_at_tight_and_wide_caps(self):
        for n, cap in ((2, 5), (3, 9), (2, 17)):
            assert er_defect_witness(n, cap) == _bivariate_witness(n, cap)

    @pytest.mark.parametrize("caps", [
        {1: None, 2: None, 3: None, 4: None},
        {1: None, 2: 5, 3: 9, 4: None},
        {2: 17, 3: None},
    ], ids=["default", "tight", "wide-below-larger-height"])
    def test_shared_series_reports_equal(self, caps, monkeypatch):
        # one solve per series, height h through degree 2^h + 1 whatever
        # the caps; each report equals its height's own witness and the
        # reference
        reports = er_defect_witnesses(caps)
        assert list(reports) == list(caps)
        for n, cap in caps.items():
            assert reports[n] == er_defect_witness(n, cap) == _bivariate_witness(n, cap)
        solves = []
        solve = fgl_module.honda_multiple
        monkeypatch.setattr(fgl_module, "honda_multiple", lambda *a: solves.append(a) or solve(*a))
        er_defect_witnesses(caps)
        heights = range(1, max(caps) + 1)
        assert sorted(solves) == sorted((2, h, c, 2**h + 1) for h in heights for c in (2, -1))

    def test_shared_series_guards(self):
        with pytest.raises(InputError, match="cannot see degree 8"):
            er_defect_witnesses({1: None, 3: 8})
        with pytest.raises(ValueError, match="at least 1"):
            er_defect_witnesses({2: None, 0: None})


class TestWitnessAgainstFullCap:
    """The prefix witness against the full-cap one it replaced
    (oracles/er_witness.py), which reads every report through its cap."""

    @pytest.mark.parametrize("caps", [
        *({n: None} for n in range(1, 10)),
        {3: 200}, {2: 17, 3: 16}, {1: None, 2: None, 3: None}, {4: 100},
    ], ids=repr)
    def test_reports_equal(self, caps):
        assert er_defect_witnesses(caps) == er_witness.er_defect_witnesses(caps)

    @pytest.mark.parametrize("series, which", [
        ({2: [0], -1: [0, 1]}, "[2](x)"),
        ({2: [0, 0, 1], -1: [0, 1]}, "[-1](x)"),
    ], ids=["zero-doubling", "inverse-equals-x"])
    def test_undecided_prefix_is_refused(self, series, which, monkeypatch, tmp_path, capsys):
        # a [2](x) with no nonzero, or a [-1](x) equal to x, through
        # degree 2^h + 1 leaves a field undecided; nothing is re-solved
        solves = []

        def broken(p, h, c, cap):
            solves.append(cap)
            return series[c] + [0] * (cap + 1 - len(series[c]))

        monkeypatch.setattr(fgl_module, "honda_multiple", broken)
        message = f"{which} at height 1 leaves the witness undecided through degree 3;"
        with pytest.raises(ValueError, match=re.escape(message)):
            er_defect_witness(3)
        assert max(solves) == 3
        out = tmp_path / "out"
        assert cli.main(["fgl", "--n", "3", "--no-cache", "--out", str(out)]) == cli.EXIT_COMPUTE
        assert message in capsys.readouterr().err
        assert not out.exists()
