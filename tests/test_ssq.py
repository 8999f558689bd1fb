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
each stem, which the polynomial fourth page must match.  The laurent
chart's pages, one eta-power read mod 2, must give the cycles and
boundaries of the h1-Bockstein spectral sequence of Ext_{A(1)}, which
ranks of powers of h1 on the same resolution compute.
"""

from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from chromadefect import cli, ssq
from chromadefect.ssq import (
    build_e1,
    cell,
    cell_generator,
    cell_group,
    cell_order,
    d1,
    d3,
    differential_sources,
    forced_d3_detector,
    interior_alive,
    is_interior,
    monomial_at,
    monomial_bidegree,
    monomial_str,
    page_tsv,
    run_d1,
    run_d3,
    turn_page,
)

from chromadefect.ext import Resolution, cobar_letters
from chromadefect.gradedlin import vec_from_terms
from chromadefect.gradedlin.integers import AbelianGroupPresentation
from chromadefect.steenrod import Profile

from oracles.ko_compare import compare_maps
from oracles.linalg import PrimeFieldMatrix, rank

WIDE = (-16, 20, -8, 20)


def presentation_str(page, stem, fil):
    return repr(cell_group(page["cells"].get((stem, fil))))


def alive_items(page):
    return [(k, c) for k, c in sorted(page["cells"].items()) if c[2]]


def interior_items(page):
    return [(k, c) for k, c in sorted(page["cells"].items()) if is_interior(page["window"], *k)]


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
            build_e1("periodic", (0, 1, 0, 1))

    def test_monomial_strings(self):
        assert monomial_str(0, 0) == "1"
        assert monomial_str(1, 0) == "u"
        assert monomial_str(0, 1) == "eta"
        assert monomial_str(2, -3) == "u^2*eta^-3"


class TestWindow:
    def test_interior(self):
        w = (0, 10, 0, 8)
        assert is_interior(w, 5, 4)
        assert not is_interior(w, 0, 4)  # incoming stem clipped
        assert not is_interior(w, 5, 2)  # incoming filtration clipped
        assert not is_interior(w, 5, 6)  # outgoing filtration clipped

    def test_empty_ranges_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            build_e1("polynomial", (3, 2, 0, 0))

    def test_equality(self):
        # a page keeps its window as a tuple, so the list that the CLI
        # params carry compares equal to it
        assert build_e1("polynomial", [0, 1, 0, 1])["window"] == (0, 1, 0, 1)
        assert build_e1("polynomial", (0, 1, 0, 1))["window"] != (0, 1, 0, 2)


class TestCell:
    def test_unit_quotient_normalizes_to_dead(self):
        assert cell(1, 0, 2, 2) == (1, 0, 0, 0)

    def test_boundary_must_refine_cycle(self):
        with pytest.raises(ValueError, match="inside the cycle"):
            cell(1, 0, 2, 3)

    def test_dead_cell_cannot_carry_boundary(self):
        with pytest.raises(ValueError, match="dead cell"):
            cell(1, 0, 0, 2)

    def test_presentations(self):
        assert repr(cell_group(cell(1, 0, 1, 0))) == "Z"
        assert repr(cell_group(cell(1, 0, 1, 2))) == "Z/2"
        assert repr(cell_group(cell(1, 0, 0, 0))) == "0"
        assert cell_generator(cell(2, 1, 2, 0)) == "2*u^2*eta"
        assert cell_generator(cell(0, 0, 0, 0)) == "-"

    def test_orders(self):
        assert cell_order(cell(1, 0, 1, 0)) is None
        assert cell_order(cell(1, 0, 1, 2)) == 2
        assert cell_order(cell(1, 0, 0, 0)) == 1


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
        page = build_e1("polynomial", (0, 4, 0, 4))
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
        alive = {k: cell_generator(c) for k, c in alive_items(page)}
        assert alive == expect
        assert all(repr(cell_group(c)) == "Z" for _, c in alive_items(page))
        assert page["page"] == 1

    def test_laurent_negative_filtrations(self):
        page = build_e1("laurent", (-2, 2, -4, 0))
        assert cell_generator(page["cells"].get((1, -1))) == "u*eta^-1"
        assert cell_generator(page["cells"].get((0, -2))) == "u*eta^-2"
        assert cell_generator(page["cells"].get((-2, -2))) == "eta^-2"
        assert page["cells"].get((-1, 0)) is None

    def test_window_without_lattice_points_gives_empty_page(self):
        page = build_e1("polynomial", (1, 1, 0, 0))
        assert page["cells"] == {}


class TestSecondPage:
    def test_polynomial_examples(self):
        e2 = run_d1(build_e1("polynomial", WIDE))
        assert presentation_str(e2, 2, 0) == "0"
        assert presentation_str(e2, 1, 1) == "Z/2"
        assert presentation_str(e2, 0, 0) == "Z"
        assert presentation_str(e2, 4, 0) == "Z"
        assert cell_generator(e2["cells"].get((4, 0))) == "u^2"
        assert presentation_str(e2, 3, 1) == "0"
        assert e2["page"] == 2

    def test_polynomial_pattern_cellwise(self):
        # Z on u^{2a} at (4a, 0), order 2 on u^{2a} eta^b at (4a+b, b)
        # for b >= 1, nothing else
        e2 = run_d1(build_e1("polynomial", WIDE))
        for (s, f), c in interior_items(e2):
            _, _, cycle, _ = c
            if f == 0 and s % 4 == 0 and s >= 0:
                assert repr(cell_group(c)) == "Z" and cycle == 1, (s, f)
            elif f >= 1 and (s - f) % 4 == 0 and s - f >= 0:
                assert cell_order(c) == 2 and cycle == 1, (s, f)
            else:
                assert not cycle, (s, f)

    def test_laurent_pattern_cellwise(self):
        # order 2 everywhere on the even sublattice, all filtrations
        e2 = run_d1(build_e1("laurent", WIDE))
        assert presentation_str(e2, 0, 0) == "Z/2"  # killed down from Z by u*eta^-1
        for (s, f), c in interior_items(e2):
            if (s - f) % 4 == 0 and s - f >= 0:
                assert cell_order(c) == 2, (s, f)
            else:
                assert not c[2], (s, f)

    def test_all_laurent_cells_have_order_two(self):
        e2 = run_d1(build_e1("laurent", WIDE))
        assert all(cell_order(c) == 2 for _, c in interior_alive(e2))

    def test_wrong_page_rejected(self):
        e1 = build_e1("polynomial", (0, 4, 0, 4))
        with pytest.raises(ValueError, match="first-page"):
            run_d1(run_d1(e1))


class TestFourthPage:
    def test_eight_periodic_pattern(self):
        e4 = run_d3(run_d1(build_e1("polynomial", WIDE)))
        assert e4["page"] == 4
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
                c = e4["cells"].get((stem, fil))
                if c is None:
                    continue
                want = expect.get((stem, fil))
                if want is None:
                    assert not c[2], (stem, fil)
                else:
                    assert (repr(cell_group(c)), cell_generator(c)) == want

    def test_index_two_generator_in_stem_four(self):
        e4 = run_d3(run_d1(build_e1("polynomial", WIDE)))
        c = e4["cells"].get((4, 0))
        assert repr(cell_group(c)) == "Z"
        assert c[2] == 2 and cell_generator(c) == "2*u^2"

    def test_translation_periodicity(self):
        # u^4 translation: cells 8 stems apart agree in group and
        # generator coefficient
        e4 = run_d3(run_d1(build_e1("polynomial", WIDE)))
        for (s, f), c in interior_items(e4):
            other = e4["cells"].get((s + 8, f))
            if other is None or not is_interior(e4["window"], s + 8, f):
                continue
            assert cell_group(c) == cell_group(other), (s, f)
            if c[2]:
                assert c[2] == other[2], (s, f)

    def test_no_higher_differentials(self):
        # page 4 is the last: no differential of length >= 4 connects
        # two live interior cells, so the chart is frozen
        e4 = run_d3(run_d1(build_e1("polynomial", WIDE)))
        live = dict(interior_alive(e4))
        _, _, fil_lo, fil_hi = e4["window"]
        span = fil_hi - fil_lo
        for (s, f) in live:
            for r in range(4, span + 1):
                assert (s - 1, f + r) not in live, (s, f, r)

    def test_column_orders_match_classical_homotopy(self):
        # associated graded of pi_k: free ranks and torsion orders per
        # column, for k = 0..11
        e4 = run_d3(run_d1(build_e1("polynomial", WIDE)))
        free = [0] * 12
        torsion = [1] * 12
        for (s, f), c in alive_items(e4):
            if 0 <= s < 12 and c[2]:
                if cell_order(c) is None:
                    free[s] += 1
                else:
                    torsion[s] *= cell_order(c)
        assert free == [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0]
        assert torsion == [1, 2, 2, 1, 1, 1, 1, 1, 1, 2, 2, 1]

    def test_laurent_interior_clears(self):
        e4 = run_d3(run_d1(build_e1("laurent", WIDE)))
        assert interior_alive(e4) == []

    def test_wrong_page_rejected(self):
        e1 = build_e1("polynomial", (0, 8, 0, 8))
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

        e1 = build_e1("polynomial", (0, 8, 0, 8))
        with pytest.raises(ValueError, match=r"^d1 squared is nonzero"):
            turn_page(e1, 1, image)

    def test_bidegree_violation_aborts(self):
        def image(a, b):
            if a >= 1:
                return 1, (a - 1, b)  # wrong target spot
            return None

        e1 = build_e1("polynomial", (0, 8, 0, 8))
        with pytest.raises(ValueError, match=r"^d1 violates the bidegree shift"):
            turn_page(e1, 1, image)


class TestWindowStability:
    def test_interior_verdicts_stable_under_enlargement(self):
        small = (-8, 12, -5, 10)
        big = (-14, 18, -9, 16)
        for variant in ("polynomial", "laurent"):
            ps = run_d3(run_d1(build_e1(variant, small)))
            pb = run_d3(run_d1(build_e1(variant, big)))
            for key, c in interior_items(ps):
                other = pb["cells"][key]
                assert cell_group(c) == cell_group(other), (variant, key)
                assert cell_generator(c) == cell_generator(other), (variant, key)

    @settings(max_examples=12, deadline=None)
    @given(
        lo=st.integers(min_value=-12, max_value=-6),
        hi=st.integers(min_value=8, max_value=14),
        pad=st.integers(min_value=1, max_value=4),
    )
    def test_second_page_stability_random_windows(self, lo, hi, pad):
        small = (lo, hi, lo, hi)
        big = (lo - pad, hi + pad, lo - pad, hi + pad)
        ps = run_d1(build_e1("laurent", small))
        pb = run_d1(build_e1("laurent", big))
        for key, c in interior_items(ps):
            assert cell_group(c) == cell_group(pb["cells"][key])


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
        e2l = run_d1(build_e1("laurent", (-8, 8, -8, 8)))
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
        report = laurent_detector((-12, 12, -12, 12))
        assert report["verdict"] == "forced"
        assert "forced" in report["message"]
        assert report["cleared_with_d3"]
        assert report["witnesses"]
        stems = {s for s, f, g in report["witnesses"]}
        assert {-8, -4, 0, 4, 8} <= stems

    def test_witnesses_carry_generators(self):
        report = laurent_detector((-12, 12, -12, 12))
        names = {g for s, f, g in report["witnesses"]}
        assert "1" in names or "eta" in names  # fundamental cells present

    def test_degenerate_window_inconclusive(self):
        report = laurent_detector((0, 0, 0, 0))
        assert report["verdict"] == "inconclusive"
        assert report["witnesses"] == []

    def test_refuses_pages_that_are_not_laurent(self):
        window = (-12, 12, -12, 12)
        poly = run_d1(build_e1("polynomial", window))
        laurent = run_d1(build_e1("laurent", window))
        for e2, e4 in ((poly, run_d3(poly)), (laurent, run_d3(poly)), (laurent, laurent)):
            with pytest.raises(ValueError, match="reads the laurent second and fourth pages"):
                forced_d3_detector(e2, e4)


class TestTsv:
    def test_exact_dump(self):
        page = build_e1("polynomial", (3, 5, 0, 2))
        assert page_tsv(page) == (
            "stem\tfiltration\tgroup\tgenerator\tstatus\n"
            "3\t1\tZ\tu*eta\tedge\n"
            "4\t0\tZ\tu^2\tedge\n"
            "4\t2\tZ\tu*eta^2\tedge\n"
            "5\t1\tZ\tu^2*eta\tedge\n"
        )

    def test_deterministic(self):
        a = page_tsv(run_d1(build_e1("laurent", (-6, 6, -6, 6))))
        b = page_tsv(run_d1(build_e1("laurent", (-6, 6, -6, 6))))
        assert a == b

    def test_one_group_per_order(self, monkeypatch):
        # a page's rows share one presentation per group order
        built = []

        class Counted(AbelianGroupPresentation):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(repr(self))

        monkeypatch.setattr(ssq, "AbelianGroupPresentation", Counted)
        ssq._group_of_order.cache_clear()
        try:
            for variant in ssq.VARIANTS:
                e2 = run_d1(build_e1(variant, WIDE))
                for page in (e2, run_d3(e2)):
                    rows = page_tsv(page).splitlines()[1:]
                    assert len(rows) == len(page["cells"]) > 3 * len(built)
        finally:
            ssq._group_of_order.cache_clear()
        assert sorted(built) == ["0", "Z", "Z/2"]


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
            gens = res.cells.get((s, n + s), ())
            images = []
            for g in gens:
                x = {g: 1}
                for k in range(s + 1, top + 1):
                    x = res.times(op, k, n + k, x)
                images.append(vec_from_terms(2, x.items()))
            classes += len(gens)
            towers += rank(PrimeFieldMatrix(2, len(images), len(res.degrees[top]), images))
        free.append(len(res.cells.get((top, n + top), ())))
        torsion.append(classes - towers)
    return free, torsion


def ko_from_chart(window, stems):
    """The same two lists read off the polynomial fourth page: its Z
    cells, and log2 of the order of its cyclic cells, per stem."""
    e4 = run_d3(run_d1(build_e1("polynomial", window)))
    free, torsion = [0] * stems, [0] * stems
    for (n, _), c in alive_items(e4):
        if 0 <= n < stems:
            order = cell_order(c)
            if order is None:
                free[n] += 1
            else:
                assert order & (order - 1) == 0, (n, c)
                torsion[n] += order.bit_length() - 1
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

    @pytest.mark.parametrize("window", [(0, 30, 0, 30), (-6, 36, -4, 34)])
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


class TestJob:
    @pytest.mark.parametrize("variant, formats, calls", [
        pytest.param("laurent", ["tsv"], (1, 2), id="laurent-tsv"),
        pytest.param("laurent", ["svg"], (1, 2), id="laurent-svg"),
        pytest.param("laurent", ["json"], (1, 2), id="laurent-json"),
        pytest.param("laurent", ["tsv", "svg", "json"], (1, 2), id="laurent-all"),
        pytest.param("polynomial", ["tsv", "svg"], (1, 2), id="polynomial-tsv-svg"),
        pytest.param("polynomial", ["json"], (2, 4), id="polynomial-json"),
        pytest.param("polynomial", ["tsv", "svg", "json"], (2, 4), id="polynomial-all"),
    ])
    def test_each_page_built_once(self, variant, formats, calls, tmp_path, monkeypatch):
        # the job reads its own laurent pages for the forced-d3 report,
        # and a polynomial job builds the laurent ones once; run_d1,
        # run_d3 and ko_ss_job call through the module globals
        counts = {"build_e1": 0, "turn_page": 0}
        for name in counts:
            def counted(*args, _name=name, _original=getattr(ssq, name)):
                counts[_name] += 1
                return _original(*args)
            monkeypatch.setattr(ssq, name, counted)
        argv = ["ko-ss", "--variant", variant, "--window", "-12", "12", "-12", "12",
                "--out", str(tmp_path / "out"), "--no-cache"]
        for fmt in formats:
            argv += ["--format", fmt]
        assert cli.main(argv) == cli.EXIT_OK
        assert (counts["build_e1"], counts["turn_page"]) == calls


# the class that detects eta in Ext_{A(1)}; the tower below is its
# Bockstein spectral sequence
BOCKSTEIN_LETTER = "h(1,1)"


def bockstein_pages(s_top, stem_top):
    """{r: {(stem, s): (dim Z_r, dim B_r, dim E_r)}} for r = 1..4 on
    the h1-Bockstein spectral sequence through (stem_top, s_top).

    The cofibre sequence of eta gives an exact couple D -> D -> E -> D
    with D = Ext_{A(1)}(F_2), i = h1 and E = Ext_{A(1)}(H^*C(eta)) =
    Ext_{E(1)}(F_2): h1 from D^{s-1,t-2} to D^{s,t}, j from D^{s,t} to
    E^{s,t} and k from E^{s,t} to D^{s,t-2}.  By exactness the cycles
    Z_{r+1} = k^-1(im h1^r) have dim coker(h1 into D^{s,t}) + dim(ker h1
    & im h1^r in D^{s,t-2}), and the boundaries B_{r+1} = j(ker h1^r)
    have dim ker(h1^r on D^{s,t}) - dim(ker h1^r & im h1 in D^{s,t}),
    each a sum of ranks of powers of h1."""
    family = Profile.A(2, 1)
    # h1^m reads D through s_top + 3 and stem_top + 3: m <= 3 out of the
    # cell itself, m <= 4 out of one s and one stem below it
    res = Resolution(family, s_top + 3, s_top + stem_top + 6, stem_top + 3)
    for t in range(s_top + stem_top + 7):
        res.column(t)
    ((deg, h),) = [(d, pair) for name, d, pair in cobar_letters(family, 2)
                   if name == BOCKSTEIN_LETTER]
    op = res.ops.number[res.ops.element(h)]

    def dim(s, t):
        return len(res.cells.get((s, t), ()))

    @cache
    def rank_power(m, s, t):
        """Rank of h1^m on D^{s,t}."""
        gens = res.cells.get((s, t), ())
        if m == 0 or not gens:
            return len(gens)
        images = []
        for g in gens:
            x = {g: 1}
            for k in range(1, m + 1):
                x = res.times(op, s + k, t + k * deg, x)
            images.append(vec_from_terms(2, x.items()))
        return rank(PrimeFieldMatrix(2, len(images), len(res.degrees[s + m]), images))

    pages = {}
    for r in range(1, 5):
        q = r - 1  # Z_r = k^-1(im h1^q), B_r = j(ker h1^q)
        page = pages[r] = {}
        for s in range(s_top + 1):
            for n in range(stem_top + 1):
                t, u = n + s, n + s - deg - q * deg
                im_h1 = rank_power(1, s - 1, t - deg)
                cycles = (dim(s, t) - im_h1
                          + rank_power(q, s - q, u) - rank_power(q + 1, s - q, u))
                bounds = (dim(s, t) - rank_power(q, s, t)
                          - im_h1 + rank_power(q + 1, s - 1, t - deg))
                page[(n, s)] = (cycles, bounds, cycles - bounds)
    return pages


def two_adic_valuation(x):
    return (x & -x).bit_length() - 1


def laurent_row_pages(s_top, stem_top):
    """The same table off the laurent chart's eta^0 row, read mod 2
    under 2 -> h0 and u -> v1.

    The cell of u^a holding cycle*Z / boundary*Z holds the classes
    h0^j v1^a, in stem 2a and Adams filtration s = a + j, with
    v2(cycle) <= j < v2(boundary): a Z cell is an h0 tower and a Z/2
    cell one class.  A page's cycles lose the classes that leave a cell
    where d_r starts, and its boundaries gain those that leave a cell
    where d_r lands.  The chart has no d2, so page 3 is page 2."""
    window = (-2, stem_top + 2, -6, 3)  # rows -3 .. 0 are interior
    e1 = build_e1("laurent", window)
    e2 = run_d1(e1)
    pages = {1: e1, 2: e2, 3: e2, 4: run_d3(e2)}
    rules = {1: d1, 3: d3}

    def classes(page, a):
        c = page["cells"].get((2 * a, 0))
        if c is None or not c[2]:
            return set()
        _, _, cycle, boundary = c
        top = a + two_adic_valuation(boundary) if boundary else s_top + 1
        return set(range(a + two_adic_valuation(cycle), min(top, s_top + 1)))

    exponents = range(stem_top // 2 + 1)
    cycles = {a: classes(pages[1], a) for a in exponents}
    bounds = {a: set() for a in exponents}
    tables = {}
    for r in range(1, 5):
        tables[r] = {(n, s): (0, 0, 0)
                     for n in range(1, stem_top + 1, 2) for s in range(s_top + 1)}
        for a in exponents:
            live = classes(pages[r], a)
            for s in range(s_top + 1):
                tables[r][(2 * a, s)] = (int(s in cycles[a]), int(s in bounds[a]), int(s in live))
        if r not in rules:
            continue
        sources = set(differential_sources(pages[r], r, rules[r], min_fil=window[2]))
        for a in exponents:
            moved = classes(pages[r], a) - classes(pages[r + 1], a)
            out, into = (2 * a, 0) in sources, (2 * a + 1, -r) in sources
            assert not (out and into) and (out or into or not moved), (r, a)
            if out:
                cycles[a] -= moved
            else:
                bounds[a] |= moved
    return tables


class TestAgainstBocksteinTower:
    # the paper's model case ko smash C(eta) = ku, as a Z-indexed tower:
    # ko-ss's laurent chart is the h1-Bockstein spectral sequence of
    # Ext_{A(1)}, one eta-power per Bockstein step (J. F. Adams, Stable
    # Homotopy and Generalised Homology, 1974, Part III)
    S_TOP, STEM_TOP = 12, 40

    @pytest.fixture(scope="class")
    def algebra(self):
        return bockstein_pages(self.S_TOP, self.STEM_TOP)

    @pytest.fixture(scope="class")
    def chart(self):
        return laurent_row_pages(self.S_TOP, self.STEM_TOP)

    def test_first_page_is_ext_over_e1(self, algebra):
        e1 = Resolution(Profile.E(2, 1), self.S_TOP, self.S_TOP + self.STEM_TOP, self.STEM_TOP)
        for t in range(self.S_TOP + self.STEM_TOP + 1):
            e1.column(t)
        ext = {(n, s): len(e1.cells.get((s, n + s), ())) for n, s in algebra[1]}
        assert {key: e for key, (_, _, e) in algebra[1].items()} == ext
        assert all(b == 0 for _, b, _ in algebra[1].values())
        assert len(ext) == 533 and sum(ext.values()) == 91  # h0^j v1^i, i + j <= 12

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_page_matches_laurent_row(self, algebra, chart, r):
        assert chart[r] == algebra[r]

    def test_differentials(self, algebra):
        def moved(r):
            before, after = algebra[r], algebra[r + 1]
            sources = sorted(k for k in before if before[k][0] > after[k][0])
            targets = sorted(k for k in before if after[k][1] > before[k][1])
            return sources, targets

        # d1: h0^j v1^(2i+1) -> h0^(j+1) v1^(2i), the odd u-powers
        sources, targets = moved(1)
        assert len(sources) == len(targets) == 42
        assert all(n % 4 == 2 for n, _ in sources)
        assert all(n % 4 == 0 and s > n // 2 for n, s in targets)
        assert moved(2) == ([], [])
        # d3: v1^(4k+2) -> v1^(4k), the odd coefficient 2k + 1
        assert moved(3) == ([(4, 2), (12, 6), (20, 10)], [(0, 0), (8, 4), (16, 8), (24, 12)])
        assert all(e == 0 for _, _, e in algebra[4].values())
