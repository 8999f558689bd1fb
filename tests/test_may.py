"""May-style filtration spectral sequence engine.

Oracles used here:
  * letter degree/weight arithmetic recomputed from the closed formulas,
  * d1 squares to zero over whole windows, checked termwise,
  * the first pages match an independent free graded-commutative
    monomial count on the low-stem letter set,
  * E2 of the height-1 family at p = 2 against cobar Ext dims, an
    entirely separate computation path, below the stems where the first
    higher differential acts,
  * E2's lead monomials against a ranking of each representative's
    whole support by (weight, string).
"""

import re
from collections import Counter

import pytest

from chromadefect import cli
from chromadefect.ext import ext_ranks
from chromadefect.gradedlin import PrimeFieldMatrix, SubquotientBasis, vec_from_terms, vec_support
from chromadefect.may import (
    MayContext,
    e1_monomial_count,
    gen_is_odd,
    gen_string,
    gen_s,
    gen_t,
    gen_weight,
    may_e1,
    may_e2,
    mono_weight,
    monomial_string,
)
from chromadefect.steenrod import Profile

from oracles.cobar import Comodule, ext_ranks as cobar_ext_ranks

H = lambda i, j: ("h", i, j)
A = lambda i: ("a", i, None)
B = lambda i, j: ("b", i, j)


def free_count(p, letters, stem, s):
    """Monomials of the free graded-commutative algebra at (stem, s)."""

    def rec(idx, stem_left, s_left):
        if stem_left == 0 and s_left == 0:
            return 1
        if idx == len(letters) or stem_left < 0 or s_left < 0:
            return 0
        g = letters[idx]
        gst, gs = gen_t(p, g) - gen_s(g), gen_s(g)
        total = rec(idx + 1, stem_left, s_left)
        e = 1
        while stem_left - e * gst >= 0 and s_left - e * gs >= 0:
            if gen_is_odd(p, g) and e > 1:
                break
            total += rec(idx + 1, stem_left - e * gst, s_left - e * gs)
            e += 1
        return total

    return rec(0, stem, s)


def iso_range_letters(n, p):
    """Letters generating E2 below the first interesting stem:
    {h(i,0): i <= n+2} + {h(n+1,1)} at p=2, {a(i): i <= n+2} + {h(n+1,0)}
    at odd p.  E2 is free graded-commutative on these through stem
    2p^{n+1} - 4; at stem 2p^{n+1} - 3 only the s = 1 class is left."""
    if p == 2:
        return [H(i, 0) for i in range(1, n + 3)] + [H(n + 1, 1)]
    return [A(i) for i in range(0, n + 3)] + [H(n + 1, 0)]


def dim(page, stem, s):
    return page.dims().get((stem, s), 0)


class TestLetters:
    def test_degree_weight_formulas(self):
        assert (gen_s(H(3, 1)), gen_t(2, H(3, 1)), gen_weight(2, H(3, 1))) == (1, 14, 5)
        assert (gen_s(H(1, 0)), gen_t(3, H(1, 0)), gen_weight(3, H(1, 0))) == (1, 4, 1)
        assert (gen_s(A(1)), gen_t(3, A(1)), gen_weight(3, A(1))) == (1, 5, 3)
        assert (gen_s(B(1, 0)), gen_t(3, B(1, 0)), gen_weight(3, B(1, 0))) == (2, 12, 3)
        assert gen_is_odd(3, H(2, 0)) and not gen_is_odd(3, A(0))
        assert not gen_is_odd(2, H(2, 0))

    def test_truncation_pattern(self):
        # windows wide enough to reach every letter named: h(2,3) sits
        # in stem 23 at p = 2, a(5) in stem 484 and b(2,0) in (46, 2) at p = 3
        gens2 = MayContext(1, 2).generators(23, 2)
        assert H(1, 0) in gens2 and H(1, 1) not in gens2
        assert H(2, 3) in gens2
        assert A(0) not in gens2 and B(1, 0) not in gens2
        gens3 = MayContext(1, 3).generators(484, 2)
        assert H(1, 0) not in gens3 and H(2, 0) in gens3
        assert A(0) in gens3 and A(5) in gens3
        assert B(1, 0) not in gens3 and B(2, 0) in gens3

    def test_generator_window(self):
        gens = MayContext(1, 2).generators(14, 4)
        assert gens == [
            H(1, 0), H(2, 0), H(2, 1), H(2, 2), H(3, 0), H(3, 1), H(4, 0),
        ]

    def test_monomial_string_round_trip(self):
        examples = {
            (): "1",
            ((H(1, 0), 1),): "h(1,0)",
            ((H(1, 0), 2), (H(2, 1), 1)): "h(1,0)^2*h(2,1)",
            ((A(0), 1), (H(2, 0), 3)): "a(0)*h(2,0)^3",
            ((A(1), 1), (B(2, 0), 2)): "a(1)*b(2,0)^2",
        }
        for mono, text in examples.items():
            assert monomial_string(mono) == text


class TestD1:
    def test_first_crossing_terms(self):
        ctx = MayContext(1, 2)
        d = ctx.d1_element({((H(3, 0), 1),): 1})
        assert d == {((H(1, 0), 1), (H(2, 1), 1)): 1}
        d = ctx.d1_element({((H(4, 0), 1),): 1})
        assert d == {
            ((H(1, 0), 1), (H(3, 1), 1)): 1,
            ((H(2, 0), 1), (H(2, 2), 1)): 1,
        }

    def test_leading_crossing_all_heights(self):
        # the lowest h with a nonzero d1 hits exactly one product
        for n in (1, 2, 3):
            ctx = MayContext(n, 2)
            d = ctx.d1_element({((H(n + 2, 0), 1),): 1})
            assert d == {((H(1, 0), 1), (H(n + 1, 1), 1)): 1}, n

    def test_tau_letter_differential(self):
        ctx = MayContext(0, 3)
        d = ctx.d1_element({((A(1), 1),): 1})
        assert d == {((A(0), 1), (H(1, 0), 1)): 1}
        # truncation drops the disallowed factor
        ctx = MayContext(1, 3)
        assert ctx.d1_element({((A(1), 1),): 1}) == {}
        assert ctx.d1_element({((A(2), 1),): 1}) == {((A(0), 1), (H(2, 0), 1)): 1}

    def test_odd_prime_koszul_signs(self):
        # signs -1 (coefficient p - 1) from moving an exterior h past
        # another, pinned from the engine before d1 used normal_form
        ctx = MayContext(0, 3)
        assert ctx.d1_element({((H(2, 0), 1),): 1}) == {((H(1, 0), 1), (H(1, 1), 1)): 2}
        assert ctx.d1_element({((H(3, 0), 1),): 1}) == {
            ((H(1, 0), 1), (H(2, 1), 1)): 2,
            ((H(1, 2), 1), (H(2, 0), 1)): 1,
        }
        assert ctx.d1_element({((A(1), 1), (H(2, 0), 1)): 1}) == {
            ((A(0), 1), (H(1, 0), 1), (H(2, 0), 1)): 1,
            ((A(1), 1), (H(1, 0), 1), (H(1, 1), 1)): 2,
        }
        ctx = MayContext(0, 5)
        assert ctx.d1_element({((H(2, 0), 1),): 1}) == {((H(1, 0), 1), (H(1, 1), 1)): 4}

    @pytest.mark.parametrize(
        "p, letter",
        [(2, H(1, 1)), (3, H(1, 0)), (3, B(1, 0)), (2, B(2, 0))],
    )
    def test_letter_the_family_lacks_is_refused(self, p, letter):
        # T(1) kills xi_1^2 at p = 2 and xi_1 at odd p; p = 2 has no b
        message = f"{gen_string(letter)} is not a letter of T(1), p = {p}"
        with pytest.raises(ValueError, match=re.escape(message)):
            MayContext(1, p).d1_element({((letter, 1),): 1})

    def test_squares_vanish_at_two(self):
        ctx = MayContext(1, 2)
        assert ctx.d1_element({((H(3, 0), 2),): 1}) == {}

    def test_d1_squared_zero(self):
        # in (0, 3, 60, 4), d1 d1 = 0 needs the Leibniz sign of the odd
        # letters before the differentiated one
        windows = [(1, 2, 16, 5), (2, 2, 16, 4), (0, 3, 14, 4), (1, 3, 20, 4), (0, 3, 60, 4)]
        for n, p, stem_max, s_max in windows:
            ctx = MayContext(n, p)
            page = may_e1(n, p, stem_max, s_max)
            for monos in page.classes.values():
                for mono in monos:
                    dd = ctx.d1_element(ctx.d1_element({mono: 1}))
                    assert dd == {}, (n, p, monomial_string(mono))


class TestPages:
    def test_e1_counts_match_free_algebra(self):
        for n, p, stem_max, s_max in [(1, 2, 12, 5), (1, 3, 20, 4)]:
            ctx = MayContext(n, p)
            letters = ctx.generators(stem_max, s_max)
            page = may_e1(n, p, stem_max, s_max)
            for stem in range(stem_max + 1):
                for s in range(s_max + 1):
                    assert dim(page, stem, s) == free_count(p, letters, stem, s)

    def test_e1_monomial_count_matches_page(self):
        # the count the may job refuses by, against the page it builds
        for n, p, stem_max, s_max in [(1, 2, 13, 8), (1, 3, 20, 4), (1, 2, 30, 12),
                                      (2, 2, 40, 12), (0, 3, 30, 6), (2, 3, 80, 6)]:
            page = may_e1(n, p, stem_max, s_max)
            built = sum(len(monos) for monos in page.classes.values())
            assert e1_monomial_count(n, p, stem_max, s_max) == built, (n, p)

    def test_e2_free_below_first_obstruction(self):
        for n, p in [(1, 2), (2, 2), (1, 3)]:
            chi_stem = 2 * p ** (n + 1) - 3
            e2 = may_e2(may_e1(n, p, chi_stem + 2, 6))
            letters = iso_range_letters(n, p)
            for stem in range(chi_stem):
                for s in range(6):
                    if e2.trusted(stem, s):
                        assert dim(e2, stem, s) == free_count(p, letters, stem, s)
            # at the obstruction stem only the s = 1 detector is left
            col = {s: dim(e2, chi_stem, s) for s in range(1, 5) if dim(e2, chi_stem, s)}
            assert col == {1: 1}, (n, p)

    def test_page_turn_trust_erosion(self):
        e1 = may_e1(1, 2, 10, 5)
        e2 = may_e2(e1)
        assert (e2.r, e2.trusted_stem_max, e2.trusted_s_max) == (2, 9, 4)

    @pytest.mark.parametrize("args", [(1, 2, 20, 6), (0, 3, 40, 6)])
    def test_lead_is_the_least_monomial(self, args):
        # E2 writes a vector by the monomial at its lowest column; this
        # ranks the whole support by (weight, string) instead
        e1 = may_e1(*args)
        e2 = may_e2(e1)
        p = e1.p

        def least(monos, vec):
            support = [monos[k] for k, _ in vec_support(p, vec)]
            return min(support, key=lambda m: (mono_weight(p, m), monomial_string(m)))

        for (stem, s), monos in e1.classes.items():
            if not monos:
                continue
            out_rows = e1.differential.get((stem, s))
            in_rows = e1.differential.get((stem + 1, s - 1), [])
            if out_rows is None:
                kernel = [vec_from_terms(p, [(k, 1)]) for k in range(len(monos))]
            else:
                width = len(e1.classes[(stem - 1, s + 1)])
                kernel = PrimeFieldMatrix(p, len(monos), width, out_rows).kernel_vectors()
            reps = SubquotientBasis(p, len(monos), in_rows, kernel).reps
            assert e2.classes[(stem, s)] == [least(monos, v) for v in reps]
            killed = sorted({least(monos, row) for row in in_rows if row})
            assert e2.killed.get((stem, s), []) == killed

    def test_killed_classes_reported(self):
        e1 = may_e1(1, 2, 8, 4)
        e2 = may_e2(e1)
        assert e2.killed[(5, 2)] == [((H(1, 0), 1), (H(2, 1), 1))]
        assert dim(e2, 5, 2) == 0
        # the source leaves as a non-cycle, not as a boundary
        assert dim(e2, 6, 1) == 0
        assert (6, 1) not in e2.killed

    @pytest.mark.parametrize("n, p, stem_max, s_max, larger", [
        pytest.param(*window, id="n{}-p{}-stem{}-s{}".format(*window))
        for window in [(1, 2, 12, 7, 4), (0, 2, 20, 6, 50), (1, 3, 120, 8, 71),
                       (0, 3, 60, 5, 24), (1, 5, 200, 5, 0)]
    ])
    def test_ext_bounded_by_e2(self, n, p, stem_max, s_max, larger):
        # a spectral sequence from E2 to Ext only loses classes: on every
        # trusted cell dim Ext <= dim E2, strictly in `larger` cells
        e2 = may_e2(may_e1(n, p, stem_max, s_max))
        chart = ext_ranks(Profile.T(p, n), s_max, stem_max + s_max, stem_max)
        cells = [(stem, s) for stem in range(stem_max + 1) for s in range(s_max + 1)
                 if e2.trusted(stem, s)]
        assert cells
        for stem, s in cells:
            assert chart.dims.get((s, stem + s), 0) <= dim(e2, stem, s), (stem, s)
        gaps = [c for c in cells if chart.dims.get((c[1], sum(c)), 0) < dim(e2, *c)]
        assert len(gaps) == larger

    def test_e2_matches_cobar_ext(self):
        # the first differential past d1 in this window, d2(h(3,0)^2),
        # acts in stems 11-12; below them E2 agrees with Ext computed by
        # the cobar route
        e2 = may_e2(may_e1(1, 2, 12, 8))
        fam = Profile.T(2, 1)
        chart = cobar_ext_ranks(fam, Comodule.trivial(fam, [0]), 7, 17)
        cells = [(stem, s) for stem in range(11) for s in range(9) if e2.trusted(stem, s)]
        assert len(cells) == 88
        for stem, s in cells:
            assert dim(e2, stem, s) == chart.dims.get((s, stem + s), 0), (stem, s)


class TestJob:
    def test_each_monomial_differentiated_once(self, tmp_path, monkeypatch):
        # the E1 chart's arrows and E2 read the same d1 matrices
        seen = Counter()
        d1_element = MayContext.d1_element

        def traced(self, x):
            seen.update(x)
            return d1_element(self, x)

        monkeypatch.setattr(MayContext, "d1_element", traced)
        monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "cache"))
        argv = ["may", "--format", "tsv", "--format", "json", "--format", "svg",
                "--no-cache", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == cli.EXIT_OK
        assert len(list((tmp_path / "out").iterdir())) == 8
        assert seen and max(seen.values()) == 1


class TestTsv:
    def test_e1_golden(self):
        page = may_e1(1, 2, 3, 3)
        assert page.to_tsv() == (
            "# may page r=1: height 1, p=2\n"
            "# window: stem <= 3, s <= 3; trusted through stem 3, s 3\n"
            "stem\ts\tweight\tmonomial\tstatus\n"
            "0\t0\t0\t1\tlive\n"
            "0\t1\t1\th(1,0)\tlive\n"
            "0\t2\t2\th(1,0)^2\tlive\n"
            "0\t3\t3\th(1,0)^3\tlive\n"
            "2\t1\t3\th(2,0)\tlive\n"
            "2\t2\t4\th(1,0)*h(2,0)\tlive\n"
            "2\t3\t5\th(1,0)^2*h(2,0)\tlive\n"
        )

    def test_page_turn_marks_untrusted_rows(self):
        e2 = may_e2(may_e1(1, 2, 3, 3))
        text = e2.to_tsv()
        assert "# may page r=2" in text
        assert "0\t3\t3\th(1,0)^3\tindeterminate" in text
        assert "0\t2\t2\th(1,0)^2\tlive" in text

    def test_boundary_rows(self):
        e2 = may_e2(may_e1(1, 2, 8, 4))
        assert "5\t2\t4\th(1,0)*h(2,1)\tboundary" in e2.to_tsv()

    def test_deterministic(self):
        a = may_e2(may_e1(1, 2, 10, 5)).to_tsv()
        b = may_e2(may_e1(1, 2, 10, 5)).to_tsv()
        assert a == b
