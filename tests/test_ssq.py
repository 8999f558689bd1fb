"""Tests for the bigraded charts of connective real K-theory.

Oracles: the classical homotopy of the real connective K-theory
spectrum (the 8-periodic pattern Z, Z/2, Z/2, 0, Z, 0, 0, 0 with the
index-2 class in stem 4), hand-computed homology of the monomial
lattice on small windows, and internal cross-checks (window
enlargement stability, differential-square vanishing, translation
periodicity of the fourth page), the comparison map from the
polynomial to the Laurent chart (oracles/ko_compare.py), and pi_*ko
read off the minimal resolution over A(1): the Adams spectral sequence
of ko has E2 = Ext_{A(1)}(F_2, F_2) and collapses (J. F. Adams, Stable
Homotopy and Generalised Homology, 1974, Part III), so its h0 towers
and finite h0 chains give the free rank and the 2-torsion order of
each stem, which the polynomial fourth page must match.
"""

import pytest
from hypothesis import given, settings, strategies as st

from chromadefect.ssq import (
    Cell,
    PageSnapshot,
    Window,
    build_e1,
    d1,
    d3,
    differential_sources,
    forced_d3_detector,
    monomial_at,
    monomial_bidegree,
    monomial_str,
    run_d1,
    run_d3,
    turn_page,
)

from chromadefect.ext import Resolution, cobar_letters
from chromadefect.gradedlin import PrimeFieldMatrix, vec_from_terms
from chromadefect.steenrod import Profile

from oracles.ko_compare import compare_maps
from oracles.linalg import rank

WIDE = Window(-16, 20, -8, 20)


def presentation_str(page, stem, fil):
    return repr(page.cells.get((stem, fil)).presentation)


class TestLattice:
    def test_polynomial_monomials(self):
        assert monomial_at("polynomial", 0, 0) == (0, 0)
        assert monomial_at("polynomial", 2, 0) == (1, 0)
        assert monomial_at("polynomial", 1, 1) == (0, 1)
        assert monomial_at("polynomial", 3, 1) == (1, 1)
        assert monomial_at("polynomial", 1, 0) is None  # odd stem needs eta
        assert monomial_at("polynomial", 1, -1) is None  # no negative eta powers
        assert monomial_at("polynomial", -2, 0) is None  # no negative u powers

    def test_laurent_monomials(self):
        assert monomial_at("laurent", 1, -1) == (1, -1)
        assert monomial_at("laurent", 0, -2) == (1, -2)
        assert monomial_at("laurent", -3, -3) == (0, -3)
        assert monomial_at("laurent", -1, 0) is None  # u exponent would be negative

    def test_bidegrees(self):
        assert monomial_bidegree(1, 0) == (2, 0)
        assert monomial_bidegree(0, 1) == (1, 1)
        assert monomial_bidegree(3, -2) == (4, -2)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant must be one of"):
            build_e1("periodic", Window(0, 1, 0, 1))

    def test_monomial_strings(self):
        assert monomial_str(0, 0) == "1"
        assert monomial_str(1, 0) == "u"
        assert monomial_str(0, 1) == "eta"
        assert monomial_str(2, -3) == "u^2*eta^-3"


class TestWindow:
    def test_interior(self):
        w = Window(0, 10, 0, 8)
        assert w.is_interior(5, 4)
        assert not w.is_interior(0, 4)  # incoming stem clipped
        assert not w.is_interior(5, 2)  # incoming filtration clipped
        assert not w.is_interior(5, 6)  # outgoing filtration clipped

    def test_empty_ranges_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            Window(3, 2, 0, 0)

    def test_equality(self):
        assert Window(0, 1, 0, 1) == Window(0, 1, 0, 1)
        assert Window(0, 1, 0, 1) != Window(0, 1, 0, 2)


class TestCell:
    def test_unit_quotient_normalizes_to_dead(self):
        assert not Cell(1, 0, 2, 2).alive

    def test_boundary_must_refine_cycle(self):
        with pytest.raises(ValueError, match="inside the cycle"):
            Cell(1, 0, 2, 3)

    def test_dead_cell_cannot_carry_boundary(self):
        with pytest.raises(ValueError, match="dead cell"):
            Cell(1, 0, 0, 2)

    def test_presentations(self):
        assert repr(Cell(1, 0, 1, 0).presentation) == "Z"
        assert repr(Cell(1, 0, 1, 2).presentation) == "Z/2"
        assert repr(Cell(1, 0, 0, 0).presentation) == "0"
        assert Cell(2, 1, 2, 0).generator_str() == "2*u^2*eta"
        assert Cell(0, 0, 0, 0).generator_str() == "-"

    def test_orders(self):
        assert Cell(1, 0, 1, 0).order is None
        assert Cell(1, 0, 1, 2).order == 2
        assert Cell(1, 0, 0, 0).order == 1


class TestRules:
    def test_d1_closed_form(self):
        assert d1(1, 0) == (2, (0, 1))
        assert d1(3, 2) == (2, (2, 3))
        assert d1(2, 0) is None
        assert d1(0, 5) is None

    def test_d3_closed_form(self):
        assert d3(2, 0) == (1, (0, 3))
        assert d3(4, -1) == (2, (2, 2))
        assert d3(6, 0) == (3, (4, 3))
        assert d3(0, 3) is None
        assert d3(3, 0) is None  # odd powers never survive to page 2

    @settings(max_examples=80, deadline=None)
    @given(a=st.integers(min_value=0, max_value=30), b=st.integers(min_value=-10, max_value=10))
    def test_bidegree_shift(self, a, b):
        s, f = monomial_bidegree(a, b)
        for r, rule in ((1, d1), (3, d3)):
            img = rule(a, b)
            if img is not None:
                assert monomial_bidegree(*img[1]) == (s - 1, f + r)


class TestBuildE1:
    def test_polynomial_low_stems(self):
        page = build_e1("polynomial", Window(0, 4, 0, 4))
        expect = {
            (0, 0): "1",
            (1, 1): "eta",
            (2, 0): "u",
            (2, 2): "eta^2",
            (3, 1): "u*eta",
            (3, 3): "eta^3",
            (4, 0): "u^2",
            (4, 2): "u*eta^2",
            (4, 4): "eta^4",
        }
        alive = {k: c.generator_str() for k, c in page.alive_items()}
        assert alive == expect
        assert all(repr(c.presentation) == "Z" for _, c in page.alive_items())
        assert page.page == 1

    def test_laurent_negative_filtrations(self):
        page = build_e1("laurent", Window(-2, 2, -4, 0))
        assert page.cells.get((1, -1)).generator_str() == "u*eta^-1"
        assert page.cells.get((0, -2)).generator_str() == "u*eta^-2"
        assert page.cells.get((-2, -2)).generator_str() == "eta^-2"
        assert page.cells.get((-1, 0)) is None

    def test_window_without_lattice_points_gives_empty_page(self):
        page = build_e1("polynomial", Window(1, 1, 0, 0))
        assert page.cells == {}


class TestSecondPage:
    def test_polynomial_examples(self):
        e2 = run_d1(build_e1("polynomial", WIDE))
        assert presentation_str(e2, 2, 0) == "0"
        assert presentation_str(e2, 1, 1) == "Z/2"
        assert presentation_str(e2, 0, 0) == "Z"
        assert presentation_str(e2, 4, 0) == "Z"
        assert e2.cells.get((4, 0)).generator_str() == "u^2"
        assert presentation_str(e2, 3, 1) == "0"
        assert e2.page == 2

    def test_polynomial_pattern_cellwise(self):
        # Z on u^{2a} at (4a, 0), order 2 on u^{2a} eta^b at (4a+b, b)
        # for b >= 1, nothing else
        e2 = run_d1(build_e1("polynomial", WIDE))
        for (s, f), c in e2.interior_items():
            if f == 0 and s % 4 == 0 and s >= 0:
                assert repr(c.presentation) == "Z" and c.cycle == 1, (s, f)
            elif f >= 1 and (s - f) % 4 == 0 and s - f >= 0:
                assert c.order == 2 and c.cycle == 1, (s, f)
            else:
                assert not c.alive, (s, f)

    def test_laurent_pattern_cellwise(self):
        # order 2 everywhere on the even sublattice, all filtrations
        e2 = run_d1(build_e1("laurent", WIDE))
        assert presentation_str(e2, 0, 0) == "Z/2"  # killed down from Z by u*eta^-1
        for (s, f), c in e2.interior_items():
            if (s - f) % 4 == 0 and s - f >= 0:
                assert c.order == 2, (s, f)
            else:
                assert not c.alive, (s, f)

    def test_all_laurent_cells_have_order_two(self):
        e2 = run_d1(build_e1("laurent", WIDE))
        assert all(c.order == 2 for _, c in e2.interior_alive())

    def test_wrong_page_rejected(self):
        e1 = build_e1("polynomial", Window(0, 4, 0, 4))
        with pytest.raises(ValueError, match="first-page"):
            run_d1(run_d1(e1))


class TestFourthPage:
    def test_eight_periodic_pattern(self):
        e4 = run_d3(run_d1(build_e1("polynomial", WIDE)))
        assert e4.page == 4
        # fundamental pattern in stems 0..11, by column
        expect = {
            (0, 0): ("Z", "1"),
            (1, 1): ("Z/2", "eta"),
            (2, 2): ("Z/2", "eta^2"),
            (4, 0): ("Z", "2*u^2"),
            (8, 0): ("Z", "u^4"),
            (9, 1): ("Z/2", "u^4*eta"),
            (10, 2): ("Z/2", "u^4*eta^2"),
            (12, 0): ("Z", "2*u^6"),
        }
        for stem in range(0, 12):
            for fil in range(0, 13):
                c = e4.cells.get((stem, fil))
                if c is None:
                    continue
                want = expect.get((stem, fil))
                if want is None:
                    assert not c.alive, (stem, fil)
                else:
                    assert (repr(c.presentation), c.generator_str()) == want

    def test_index_two_generator_in_stem_four(self):
        e4 = run_d3(run_d1(build_e1("polynomial", WIDE)))
        c = e4.cells.get((4, 0))
        assert repr(c.presentation) == "Z"
        assert c.generator == (2, "u^2")

    def test_translation_periodicity(self):
        # u^4 translation: cells 8 stems apart agree in group and
        # generator coefficient
        e4 = run_d3(run_d1(build_e1("polynomial", WIDE)))
        for (s, f), c in e4.interior_items():
            other = e4.cells.get((s + 8, f))
            if other is None or not e4.window.is_interior(s + 8, f):
                continue
            assert c.presentation == other.presentation, (s, f)
            if c.alive:
                assert c.cycle == other.cycle, (s, f)

    def test_no_higher_differentials(self):
        # page 4 is the last: no differential of length >= 4 connects
        # two live interior cells, so the chart is frozen
        e4 = run_d3(run_d1(build_e1("polynomial", WIDE)))
        live = dict(e4.interior_alive())
        span = e4.window.fil_hi - e4.window.fil_lo
        for (s, f) in live:
            for r in range(4, span + 1):
                assert (s - 1, f + r) not in live, (s, f, r)

    def test_column_orders_match_classical_homotopy(self):
        # associated graded of pi_k: free ranks and torsion orders per
        # column, for k = 0..11
        e4 = run_d3(run_d1(build_e1("polynomial", WIDE)))
        free = [0] * 12
        torsion = [1] * 12
        for (s, f), c in e4.alive_items():
            if 0 <= s < 12 and c.alive:
                if c.order is None:
                    free[s] += 1
                else:
                    torsion[s] *= c.order
        assert free == [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0]
        assert torsion == [1, 2, 2, 1, 1, 1, 1, 1, 1, 2, 2, 1]

    def test_laurent_interior_clears(self):
        e4 = run_d3(run_d1(build_e1("laurent", WIDE)))
        assert e4.interior_alive() == []

    def test_wrong_page_rejected(self):
        e1 = build_e1("polynomial", Window(0, 8, 0, 8))
        with pytest.raises(ValueError, match="second-page"):
            run_d3(e1)


class TestEngineChecks:
    def test_square_nonzero_aborts(self):
        # a fake rule moving every u power down by one does not square
        # to zero; the engine must refuse to turn the page
        def image(a, b):
            if a >= 1:
                return 1, (a - 1, b + 1)
            return None

        e1 = build_e1("polynomial", Window(0, 8, 0, 8))
        with pytest.raises(ValueError, match=r"^d1 squared is nonzero"):
            turn_page(e1, 1, image)

    def test_bidegree_violation_aborts(self):
        def image(a, b):
            if a >= 1:
                return 1, (a - 1, b)  # wrong target spot
            return None

        e1 = build_e1("polynomial", Window(0, 8, 0, 8))
        with pytest.raises(ValueError, match=r"^d1 violates the bidegree shift"):
            turn_page(e1, 1, image)


class TestWindowStability:
    def test_interior_verdicts_stable_under_enlargement(self):
        small = Window(-8, 12, -5, 10)
        big = Window(-14, 18, -9, 16)
        for variant in ("polynomial", "laurent"):
            ps = run_d3(run_d1(build_e1(variant, small)))
            pb = run_d3(run_d1(build_e1(variant, big)))
            for key, c in ps.interior_items():
                other = pb.cells[key]
                assert c.presentation == other.presentation, (variant, key)
                assert c.generator == other.generator, (variant, key)

    @settings(max_examples=12, deadline=None)
    @given(
        lo=st.integers(min_value=-12, max_value=-6),
        hi=st.integers(min_value=8, max_value=14),
        pad=st.integers(min_value=1, max_value=4),
    )
    def test_second_page_stability_random_windows(self, lo, hi, pad):
        small = Window(lo, hi, lo, hi)
        big = Window(lo - pad, hi + pad, lo - pad, hi + pad)
        ps = run_d1(build_e1("laurent", small))
        pb = run_d1(build_e1("laurent", big))
        for key, c in ps.interior_items():
            assert c.presentation == pb.cells[key].presentation


class TestCompare:
    def test_verdict_pattern(self):
        e2p = run_d1(build_e1("polynomial", WIDE))
        e2l = run_d1(build_e1("laurent", WIDE))
        report = compare_maps(e2p, e2l)
        assert report["page"] == 2
        assert report["iso_in_positive_filtrations"]
        assert report["epi_in_filtration_zero"]
        # spot checks: iso on a torsion cell, epi-not-iso on a free one
        assert report["verdicts"][(1, 1)] == "iso"
        assert report["verdicts"][(5, 1)] == "iso"
        assert report["verdicts"][(4, 0)] == "epi"
        assert report["verdicts"][(0, 0)] == "epi"

    def test_negative_filtration_not_claimed(self):
        e2p = run_d1(build_e1("polynomial", WIDE))
        e2l = run_d1(build_e1("laurent", WIDE))
        report = compare_maps(e2p, e2l)
        # laurent has live cells below filtration zero with nothing
        # mapping onto them
        assert report["verdicts"][(-1, -1)] == "none"

    def test_d3_ledger_matches(self):
        e2p = run_d1(build_e1("polynomial", WIDE))
        e2l = run_d1(build_e1("laurent", WIDE))
        report = compare_maps(e2p, e2l)
        assert report["d3_sources_matched"]
        sources = report["d3_sources_polynomial"]
        assert (4, 0) in sources
        assert (12, 0) in sources
        assert (8, 0) not in sources  # even coefficient, map is zero
        assert all(f >= 0 for _, f in sources)
        assert sources == sorted(sources)

    def test_window_mismatch_rejected(self):
        e2p = run_d1(build_e1("polynomial", WIDE))
        e2l = run_d1(build_e1("laurent", Window(-8, 8, -8, 8)))
        with pytest.raises(ValueError, match="window mismatch"):
            compare_maps(e2p, e2l)

    def test_page_mismatch_rejected(self):
        e2p = run_d1(build_e1("polynomial", WIDE))
        e1l = build_e1("laurent", WIDE)
        with pytest.raises(ValueError, match="page mismatch"):
            compare_maps(e2p, e1l)

    def test_variant_order_enforced(self):
        e2l = run_d1(build_e1("laurent", WIDE))
        with pytest.raises(ValueError, match="polynomial page first"):
            compare_maps(e2l, e2l)


def laurent_detector(window):
    e2 = run_d1(build_e1("laurent", window))
    return forced_d3_detector(e2, run_d3(e2))


class TestForcedDetector:
    def test_forced_on_two_periods(self):
        report = laurent_detector(Window(-12, 12, -12, 12))
        assert report["verdict"] == "forced"
        assert "forced" in report["message"]
        assert report["cleared_with_d3"]
        assert report["witnesses"]
        stems = {s for s, f, g in report["witnesses"]}
        assert {-8, -4, 0, 4, 8} <= stems

    def test_witnesses_carry_generators(self):
        report = laurent_detector(Window(-12, 12, -12, 12))
        names = {g for s, f, g in report["witnesses"]}
        assert "1" in names or "eta" in names  # fundamental cells present

    def test_degenerate_window_inconclusive(self):
        report = laurent_detector(Window(0, 0, 0, 0))
        assert report["verdict"] == "inconclusive"
        assert report["witnesses"] == []

    def test_refuses_pages_that_are_not_laurent(self):
        window = Window(-12, 12, -12, 12)
        poly = run_d1(build_e1("polynomial", window))
        laurent = run_d1(build_e1("laurent", window))
        for e2, e4 in ((poly, run_d3(poly)), (laurent, run_d3(poly)), (laurent, laurent)):
            with pytest.raises(ValueError, match="reads the laurent second and fourth pages"):
                forced_d3_detector(e2, e4)


class TestTsv:
    def test_exact_dump(self):
        page = build_e1("polynomial", Window(3, 5, 0, 2))
        assert page.to_tsv() == (
            "stem\tfiltration\tgroup\tgenerator\tstatus\n"
            "3\t1\tZ\tu*eta\tedge\n"
            "4\t0\tZ\tu^2\tedge\n"
            "4\t2\tZ\tu*eta^2\tedge\n"
            "5\t1\tZ\tu^2*eta\tedge\n"
        )

    def test_deterministic(self):
        a = run_d1(build_e1("laurent", Window(-6, 6, -6, 6))).to_tsv()
        b = run_d1(build_e1("laurent", Window(-6, 6, -6, 6))).to_tsv()
        assert a == b


class TestDifferentialSources:
    def test_d1_sources_are_odd_u_powers(self):
        e1 = build_e1("polynomial", WIDE)
        sources = differential_sources(e1, 1, d1, min_fil=0)
        assert (2, 0) in sources
        assert (3, 1) in sources
        assert (4, 0) not in sources
        for s, f in sources:
            a = (s - f) // 2
            assert a % 2 == 1


def ko_from_ext(top, stems):
    """Per stem n < stems, the free rank of pi_n ko and log2 of its
    torsion order, read off Ext_{A(1)} through Adams filtration top: a
    class lies on an infinite h0 tower when h0^(top - s) keeps it
    nonzero, and every other class is one factor 2 of the torsion."""
    family = Profile.A(2, 1)
    res = Resolution(family, top, stems + top, stems)
    for t in range(stems + top + 1):
        res.column(t)
    (h0,) = [pair for name, _, pair in cobar_letters(family, 1) if name == "h(1,0)"]
    op = res.ops.number[res.ops.element(h0)]
    free, torsion = [], []
    for n in range(stems):
        classes = towers = 0
        for s in range(top + 1):
            cell = res.cells.get((s, n + s), ())
            images = []
            for g in cell:
                x = {g: 1}
                for k in range(s + 1, top + 1):
                    x = res.times(op, k, n + k, x)
                images.append(vec_from_terms(2, x.items()))
            classes += len(cell)
            towers += rank(PrimeFieldMatrix(2, len(images), len(res.degrees[top]), images))
        free.append(len(res.cells.get((top, n + top), ())))
        torsion.append(classes - towers)
    return free, torsion


def ko_from_chart(window, stems):
    """The same two lists read off the polynomial fourth page: its Z
    cells, and log2 of the order of its cyclic cells, per stem."""
    e4 = run_d3(run_d1(build_e1("polynomial", window)))
    free, torsion = [0] * stems, [0] * stems
    for (n, _), c in e4.alive_items():
        if 0 <= n < stems:
            if c.order is None:
                free[n] += 1
            else:
                assert c.order & (c.order - 1) == 0, (n, c)
                torsion[n] += c.order.bit_length() - 1
    return free, torsion


class TestAgainstAdamsResolution:
    # stems 0-29: every class of Ext_{A(1)} there past filtration 13 lies
    # on a tower, so filtration 24 separates towers from finite chains
    STEMS = 30

    @pytest.fixture(scope="class")
    def from_ext(self):
        return ko_from_ext(24, self.STEMS)

    def test_ext_reads_the_bott_pattern(self, from_ext):
        free, torsion = from_ext
        assert free == [1, 0, 0, 0] * 7 + [1, 0]
        assert torsion == [0, 1, 1, 0, 0, 0, 0, 0] * 3 + [0, 1, 1, 0, 0, 0]

    @pytest.mark.parametrize("window", [Window(0, 30, 0, 30), Window(-6, 36, -4, 34)])
    def test_fourth_page_matches_ext(self, from_ext, window):
        # the window's filtrations reach its top stem, so every
        # differential into stems below 30 is inside it
        assert ko_from_chart(window, self.STEMS) == from_ext

    def test_eta_cubed_vanishes(self):
        # pi_3 ko = 0 above is the laurent chart's premise: h1^3 = 0 in
        # Ext_{A(1)}, so eta^3 = 0 and ko[eta^-1] = 0
        family = Profile.A(2, 1)
        res = Resolution(family, 3, 6)
        for t in range(7):
            res.column(t)
        (h1,) = [pair for name, _, pair in cobar_letters(family, 2) if name == "h(1,1)"]
        op = res.ops.number[res.ops.element(h1)]
        x = {0: 1}
        for s in (1, 2, 3):
            x = res.times(op, s, 2 * s, x)
            assert bool(x) == (s < 3), s
