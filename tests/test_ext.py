"""Ext layer: the minimal resolution, and the cobar complex that is
its oracle (tests/oracles/cobar.py).

Oracles used here:
  * closed forms: over an exterior family on primitive generators, Ext
    is polynomial on one degree-one class per generator, so cell dims
    are exponent-tuple counts with prescribed (s, t); Ext over A(1) at
    p = 2 is F_2[h0, h1, a, b]/(h0 h1, h1^3, h1 a, a^2 + h0^2 b),
  * the cobar complex: dims, class names and collisions of the
    resolution equal the cobar engine's on every family at p = 2, 3, 5,
  * per-column Euler characteristics: once s_max >= t the alternating
    sum of cochain dims equals that of Ext dims, with no rank input,
  * cofreeness: the family as a comodule over itself has Ext = F_p
    concentrated in bidegree (0, 0),
  * change of rings: Ext over a quotient family equals Ext over the
    larger family with cotensor coefficients (tests/oracles),
  * cobar word counts from Poincare series against the enumerated
    words,
  * the Milnor diagonal (tests/oracles/diagonal.py): the letters are
    the family's generator powers whose reduced diagonal dies,
  * the enumeration of every multiset of letters (oracles.cobar's
    _letter_products): the names and collisions of the products each
    cell extends from the cell one filtration below equal those of the
    multisets enumerated from scratch, over the same resolution,
  * the Wood cofibre sequence ko smash C(eta) = ku read at E2: the
    long exact sequence of h1 over A(1) gives Ext over E(1), which a
    second resolution computes,
  * Adams' relations in the sphere's Ext (J. F. Adams, "On the
    non-existence of elements of Hopf invariant one", Ann. Math. 1960):
    h0 h1 = h1 h2 = h0 h2^2 = 0, h1^3 = h0^2 h2 and h1^2 h3 = h2^3,
    while over A(1) h1^3 = 0.
"""

import pytest
from hypothesis import given, settings, strategies as st

from chromadefect import ext
from chromadefect.ext import (
    Resolution,
    _multiset_name,
    _Operators,
    cobar_letters,
    evenness_scan,
    ext_ranks,
    operator_pairs,
)
from chromadefect.gradedlin import PrimeFieldMatrix, vec_from_terms, vec_support
from chromadefect.steenrod import Profile, operator_product

from oracles.change_of_rings import change_of_rings_check
from oracles.cobar import CobarComplex, Comodule, _letter_products, cobar_dims
from oracles.cobar import ext_ranks as cobar_ext_ranks
from oracles.diagonal import DualMonomial, allows, monomials, reduced_coproduct, tau_gen, xi_gen
from oracles.linalg import row_action
from oracles.modules import coalgebra_self, comodule_suspend


def poly_dim(gen_degrees, s, t):
    """Number of exponent tuples e >= 0 with sum(e) = s and e.deg = t."""
    if not gen_degrees:
        return 1 if (s == 0 and t == 0) else 0
    d = gen_degrees[0]
    total = 0
    e = 0
    while e <= s and e * d <= t:
        total += poly_dim(gen_degrees[1:], s - e, t - e * d)
        e += 1
    return total


class TestCobarComplex:
    def test_single_exterior_generator_tower(self):
        # E(0) at p=2: polynomial tower on one class in (1,1)
        fam = Profile.E(2, 0)
        cx = CobarComplex(fam, Comodule.trivial(fam, [0]), 8, 8)
        for s in range(9):
            for t in range(9):
                assert cx.ext_dim(s, t) == (1 if s == t else 0)

    def test_single_exterior_generator_tower_odd(self):
        fam = Profile.E(3, 0)
        cx = CobarComplex(fam, Comodule.trivial(fam, [0]), 6, 6)
        for s in range(7):
            for t in range(7):
                assert cx.ext_dim(s, t) == (1 if s == t else 0)

    @pytest.mark.parametrize("p, n, s_max", [(2, 1, 8), (2, 2, 5), (3, 1, 8), (3, 2, 5)])
    def test_two_generator_closed_form(self, p, n, s_max):
        # the windows evenness_scan once ran the cobar engine on, through
        # stem 24: Ext is polynomial on the primitive letters, whose odd
        # degrees keep every class in an even stem
        fam = Profile.E(p, n)
        t_max = 24 + s_max
        degrees = [degree for _, degree, _ in cobar_letters(fam, t_max)]
        cx = CobarComplex(fam, Comodule.trivial(fam, [0]), s_max, t_max)
        for t in range(t_max + 1):
            for s in range(min(s_max, t) + 1):
                d = cx.ext_dim(s, t)
                assert d == poly_dim(degrees, s, t), (s, t)
                assert d == 0 or (t - s) % 2 == 0, (s, t)
            cx.release_column(t)

    def test_d_squared_zero(self):
        for fam, s_max, t_max in [
            (Profile.T(2, 1), 5, 12),
            (Profile.A(2, 1), 4, 10),
            (Profile.T(3, 1), 3, 14),
        ]:
            cx = CobarComplex(fam, Comodule.trivial(fam, [0]), s_max, t_max)
            for t in range(t_max + 1):
                for s in range(min(s_max, t) + 1):
                    d = cx.differential_matrix(s, t)
                    d_next = cx.differential_matrix(s + 1, t)
                    for row in d.rows:
                        assert row_action(d_next, row) == 0, (fam, s, t)

    def test_euler_characteristic_per_column(self):
        # with s_max >= t the whole column is present, so the alternating
        # sums must agree whatever the ranks are
        for fam in [Profile.A(2, 1), Profile.T(2, 1), Profile.E(3, 1)]:
            cx = CobarComplex(fam, Comodule.trivial(fam, [0]), 8, 8)
            for t in range(9):
                chain = sum((-1) ** s * cx.dim_cell(s, t) for s in range(t + 1))
                ext = sum((-1) ** s * cx.ext_dim(s, t) for s in range(t + 1))
                assert chain == ext, (fam, t)

    def test_coaction_must_factor_through_family(self):
        # the full height-(2,1) coalgebra does not corestrict to the
        # exterior family without killing terms, so revalidation fails
        big = coalgebra_self(Profile.A(2, 1), 6)
        with pytest.raises(ValueError):
            CobarComplex(Profile.E(2, 1), big, 3, 6)

    def test_prime_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CobarComplex(
                Profile.E(2, 1), Comodule.trivial(Profile.E(3, 1), [0]), 2, 4
            )

    def test_cofree_concentration(self):
        for fam, cap in [(Profile.A(2, 1), 6), (Profile.E(3, 1), 6)]:
            M = coalgebra_self(fam, cap)
            chart = cobar_ext_ranks(fam, M, 4, cap + 4)
            assert chart.dims == {(0, 0): 1}

    def test_suspension_shifts_internal_degree(self):
        fam = Profile.A(2, 1)
        M = coalgebra_self(fam, 6)
        plain = cobar_ext_ranks(fam, M, 3, 8)
        moved = cobar_ext_ranks(fam, comodule_suspend(M, 3), 3, 11)
        assert moved.dims == {(s, t + 3): d for (s, t), d in plain.dims.items()}

    @pytest.mark.parametrize(
        "fam, module, s_max, t_max",
        [
            (Profile.A(3, 1), None, 4, 24),
            (Profile.A(2, 1), None, 4, 12),
            (Profile.T(2, 1), None, 4, 10),
            (Profile.P(2, 1), None, 3, 14),
            (Profile.A(2, 1), [0, 1, 3], 3, 9),
            (Profile.A(2, 1), "self", 3, 9),
        ],
    )
    def test_series_word_counts(self, fam, module, s_max, t_max):
        if module == "self":
            M = coalgebra_self(fam, 4)
        else:
            M = Comodule.trivial(fam, module or (0,))
        rows = cobar_dims(fam, M, s_max, t_max)
        cx = CobarComplex(fam, M, s_max, t_max)
        assert rows == [
            [cx.dim_cell(s, t) for t in range(t_max + 1)] for s in range(s_max + 1)
        ]

    @settings(max_examples=15, deadline=None)
    @given(
        degrees=st.lists(st.integers(0, 3), min_size=1, max_size=3),
        k=st.integers(0, 2),
    )
    def test_suspension_property(self, degrees, k):
        fam = Profile.E(2, 1)
        M = Comodule.trivial(fam, degrees)
        plain = cobar_ext_ranks(fam, M, 3, 7)
        moved = cobar_ext_ranks(fam, comodule_suspend(M, k), 3, 7 + k)
        want = {
            (s, t + k): d for (s, t), d in plain.dims.items() if t + k <= 7 + k
        }
        assert moved.dims == want


class TestWords:
    @pytest.mark.parametrize(
        "fam", [Profile.A(2, 1), Profile.A(3, 1), Profile.T(2, 1)], ids=repr
    )
    @pytest.mark.parametrize("degrees", [(0,), (0, 2)])
    def test_words_are_letter_numbers_in_string_order(self, fam, degrees):
        M = Comodule.trivial(fam, degrees)
        cx = CobarComplex(fam, M, 4, 14)
        for s in range(5):
            for t in range(15):
                words = cx.words(s, t)
                for letters, name in words:
                    assert isinstance(letters, tuple) and len(letters) == s
                    assert all(
                        isinstance(a, int) and 0 <= a < len(cx.letters) for a in letters
                    )
                    degree = sum(cx.letters[a].degree() for a in letters)
                    assert degree + M.degree_of[name] == t
                assert len(set(words)) == len(words), (s, t)
                spelled = [([str(cx.letters[a]) for a in w[0]], w[1]) for w in words]
                assert spelled == sorted(spelled), (s, t)


def diagonal_letters(profile, t_max):
    """The generator powers xi_i^{p^j}, then tau_t, through t_max, that
    the family allows and whose reduced diagonal dies in it."""
    p = profile.p
    powers = []
    i = 1
    while xi_gen(p, i).degree() <= t_max:
        j = 0
        while xi_gen(p, i, p**j).degree() <= t_max:
            powers.append((f"h({i},{j})", xi_gen(p, i, p**j)))
            j += 1
        i += 1
    t = 0
    while p != 2 and tau_gen(p, t).degree() <= t_max:
        powers.append((f"a({t})", tau_gen(p, t)))
        t += 1
    return [
        (name, m)
        for name, m in powers
        if allows(profile, m) and not reduced_coproduct(m, profile)
    ]


def enumerated_naming(res, letters):
    """Names and collisions of every cell of a made resolution, each
    cell's candidates enumerated from scratch (oracles.cobar's
    _letter_products): a multiset's class is its first letter times its
    tail's class, driven through Resolution.times, cells in the order
    ext_ranks names them."""
    ops = [res.ops.number[res.ops.element(pair)] for _, _, pair in letters]
    products = {(): {0: 1}}
    names, collisions = {}, []
    for s, t in sorted(res.cells, key=lambda cell: (cell[1], cell[0])):
        seen = {}
        for multiset in _letter_products(letters, s, t):
            if multiset:
                x = products.get(multiset[1:])
                y = products[multiset] = res.times(ops[multiset[0]], s, t, x) if x else {}
            else:
                y = products[()]
            if not y:
                continue
            key = tuple(sorted(y.items()))
            name = _multiset_name(letters, multiset)
            if key in seen:
                collisions.append((seen[key], name, (s, t)))
            else:
                seen[key] = name
                names.setdefault((s, t), []).append(name)
    return names, collisions


class TestNaming:
    def test_letters_for_height_family(self):
        fam = Profile.T(2, 1)
        names = [n for n, _, _ in cobar_letters(fam, 14)]
        assert names == ["h(1,0)", "h(2,0)", "h(2,1)", "h(2,2)", "h(3,1)"]

    @pytest.mark.parametrize("family", [Profile.A, Profile.E, Profile.P, Profile.T])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_letters_match_the_diagonal(self, family, p):
        # the closed-form rule against the expanded diagonal: names,
        # monomials, degrees and order, and every generator power's
        # cross terms, each with coefficient 1, heights 0-4
        for n in range(5):
            fam = family(p, n)
            for t_max in (20, 80, 300):
                letters = cobar_letters(fam, t_max)
                want = diagonal_letters(fam, t_max)
                assert [(name, pair) for name, _, pair in letters] == [
                    (name, (m.xi, m.tau)) for name, m in want
                ], (fam, t_max)
                assert [d for _, d, _ in letters] == [m.degree() for _, m in want], (fam, t_max)
                powers = list(fam.generator_powers(t_max))
                monos = {key: DualMonomial(p, *pair) for key, _, pair, _ in powers}
                for key, degree, _, cross in powers:
                    assert degree == monos[key].degree(), (fam, key)
                    terms = {(monos[left], monos[right]): 1 for left, right in cross}
                    assert len(terms) == len(cross)
                    assert terms == reduced_coproduct(monos[key], fam), (fam, key)

    def test_named_classes_on_chart(self):
        fam = Profile.T(2, 1)
        chart = ext_ranks(fam, 4, 14)
        assert chart.names[(1, 1)] == ["h(1,0)"]
        assert chart.names[(1, 3)] == ["h(2,0)"]
        assert chart.names[(1, 6)] == ["h(2,1)"]
        assert chart.names[(1, 12)] == ["h(2,2)"]
        assert chart.names[(1, 14)] == ["h(3,1)"]
        assert chart.names[(2, 2)] == ["h(1,0)^2"]
        assert chart.collisions == []

    def test_named_classes_odd_prime(self):
        fam = Profile.T(3, 1)
        chart = ext_ranks(fam, 3, 12)
        assert chart.names[(1, 1)] == ["a(0)"]
        assert chart.names[(1, 5)] == ["a(1)"]
        assert chart.names[(2, 6)] == ["a(0)*a(1)"]

    def test_relation_kills_product_cell(self):
        # [xi1|xi2^2] cobounds, so the (2,7) cell of the height-(inf,2)
        # family chart is empty and no product name lands there
        fam = Profile.T(2, 1)
        chart = ext_ranks(fam, 4, 14)
        assert chart.dims.get((2, 7), 0) == 0
        assert (2, 7) not in chart.names

    def test_stem_cut_matches_a_narrower_window(self):
        # T(1) collides in stems 13 and 15; cutting at 13 keeps one of
        # them, and every kept cell reads as in the narrower window
        fam = Profile.T(2, 1)
        wide = ext_ranks(fam, 5, 20, 13)
        narrow = ext_ranks(fam, 5, 18, 13)
        assert wide.dims == narrow.dims
        assert wide.names == narrow.names
        assert wide.collisions == narrow.collisions != []
        cells = [*wide.dims, *wide.names, *(cell for *_, cell in wide.collisions)]
        assert max(t - s for s, t in cells) == 13

    def test_adams_relations_on_the_sphere(self):
        # T(0) at p = 2 is the whole dual Steenrod algebra, so this is the
        # Adams E2 page of the sphere; h_i is h(1,i) in (1, 2^i)
        chart = ext_ranks(Profile.T(2, 0), 3, 12)
        # h0 h1 = 0, h1 h2 = 0, h0 h2^2 = 0: the product cells are empty
        for cell in ((2, 3), (2, 6), (3, 9)):
            assert chart.dims.get(cell, 0) == 0, cell
            assert cell not in chart.names
        # h0^2 h2 = h1^3 spans (3, 6), and h1^2 h3 = h2^3 lies in (3, 12)
        assert chart.dims[(3, 6)] == 1
        assert chart.names[(3, 6)] == ["h(1,0)^2*h(1,2)"]
        assert ("h(1,0)^2*h(1,2)", "h(1,1)^3", (3, 6)) in chart.collisions
        assert chart.names[(3, 12)] == ["h(1,1)^2*h(1,3)"]
        assert ("h(1,1)^2*h(1,3)", "h(1,2)^3", (3, 12)) in chart.collisions
        # over A(1) h1^3 = 0, and no other class reaches (3, 6)
        a1 = ext_ranks(Profile.A(2, 1), 3, 12)
        assert a1.dims[(2, 4)] == 1 and a1.names[(2, 4)] == ["h(1,1)^2"]
        assert a1.dims.get((3, 6), 0) == 0

    @pytest.mark.parametrize(
        "family, p, n, stem_max, s_max",
        [
            (Profile.A, 2, 1, 40, 20),
            (Profile.A, 2, 0, 24, 12),
            (Profile.A, 2, 2, 40, 10),
            (Profile.T, 2, 0, 30, 6),
            (Profile.T, 2, 1, 40, 8),
            (Profile.A, 3, 1, 60, 8),
            (Profile.A, 5, 1, 100, 4),
            (Profile.T, 3, 1, 60, 4),
            (Profile.P, 2, 1, 30, 6),
            (Profile.E, 3, 2, 60, 4),
        ],
    )
    def test_names_match_the_enumeration(self, family, p, n, stem_max, s_max, monkeypatch):
        # each cell's products, extended from the cell one filtration
        # below, name what every multiset of the cell names, over the
        # same resolution
        made = []

        class Recorded(Resolution):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(ext, "Resolution", Recorded)
        fam = family(p, n)
        chart = ext_ranks(fam, s_max, stem_max + s_max, stem_max)
        names, collisions = enumerated_naming(made[0], cobar_letters(fam, stem_max + s_max))
        assert chart.names == names
        assert chart.collisions == collisions

    def test_polynomial_chart_collision_free(self):
        fam = Profile.E(2, 1)
        chart = ext_ranks(fam, 5, 15)
        assert chart.collisions == []
        assert chart.names[(2, 4)] == ["h(1,0)*h(2,0)"]


class TestColumnPass:
    def test_one_internal_degree_at_a_time(self, monkeypatch):
        # the oracle names only the column it holds, so even a named run
        # never holds words of two internal degrees at once
        held = []
        words = CobarComplex.words

        def traced(self, s, t):
            out = words(self, s, t)
            held.append({key[1] for key in self._words})
            return out

        monkeypatch.setattr(CobarComplex, "words", traced)
        fam = Profile.A(2, 1)
        chart = cobar_ext_ranks(fam, Comodule.trivial(fam, [0]), 6, 16)
        assert chart.names[(1, 1)] == ["h(1,0)"]
        assert max(len(degrees) for degrees in held) == 1

    @pytest.mark.parametrize("n, stem_max, s_max", [(1, 400, 8), (2, 600, 5)])
    def test_finite_family_stops_at_last_word(self, n, stem_max, s_max, monkeypatch):
        # no generator of F_s over a finite family lies past s times the
        # top operator degree, so the pass resolves no later column
        built = []
        column = Resolution.column

        def traced(self, t):
            built.append(t)
            return column(self, t)

        monkeypatch.setattr(Resolution, "column", traced)
        fam = Profile.E(2, n)
        t_max = stem_max + s_max
        chart = ext_ranks(fam, s_max, t_max)
        degrees = [degree for _, degree, _ in cobar_letters(fam, t_max)]
        for t in range(t_max + 1):
            for s in range(s_max + 1):
                assert chart.dims.get((s, t), 0) == poly_dim(degrees, s, t), (s, t)
        top = max(degree for degree, _ in fam.basis(t_max))
        assert max(built) == s_max * top



def a1_closed_form(s, t):
    """dim Ext_{A(1)}^{s,t}(F_2, F_2) from its presentation
    F_2[h0, h1, a, b]/(h0 h1, h1^3, h1 a, a^2 + h0^2 b): each class is
    b^l times one of h0^i, h1, h1^2 or a h0^i, with h0 in (s, t) =
    (1, 1), h1 in (1, 2), a in (3, 7) and b in (4, 12)."""
    bases = [(1, 2), (2, 4)]
    bases += [(i, i) for i in range(s + 1)]
    bases += [(3 + i, 7 + i) for i in range(s + 1)]
    return sum(
        1
        for l in range(s // 4 + 1)
        for bs, bt in bases
        if (bs + 4 * l, bt + 12 * l) == (s, t)
    )


def apply_d(res, s, terms):
    """d of an element of F_s (s >= 1), given as (operator, generator,
    coefficient) terms, as {(operator, generator of F_{s-1}): coef}."""
    p, ops = res.p, res.ops
    out = {}
    for op, g2, c in terms:
        for a, g, c2 in res.d[s][g2]:
            prod = ops.product(op, a)
            d = ops.degree[op] + ops.degree[a]
            for pos, c3 in vec_support(p, prod):
                key = (ops.by_degree[d][pos], g)
                out[key] = (out.get(key, 0) + c * c2 * c3) % p
    return {k: v for k, v in out.items() if v}


# (family, stem_max, s_max), each with Ext cells past the stem in its box
STEM_WINDOWS = [
    (Profile.A(2, 1), 7, 8), (Profile.A(3, 1), 11, 8), (Profile.A(5, 1), 37, 6),
    (Profile.A(2, 2), 13, 6), (Profile.T(2, 0), 16, 5), (Profile.T(3, 1), 44, 6),
    (Profile.E(3, 2), 15, 4), (Profile.P(2, 1), 20, 8),
]


class TestStemWindow:
    @pytest.mark.parametrize("fam, stem_max, s_max", STEM_WINDOWS, ids=repr)
    def test_equals_the_box_cut_at_the_stem(self, fam, stem_max, s_max):
        box = ext_ranks(fam, s_max, stem_max + s_max)
        window = ext_ranks(fam, s_max, stem_max + s_max, stem_max)
        assert window.stem_max == stem_max and box.stem_max is None
        assert max(t - s for s, t in box.dims) > stem_max
        cells = [*window.dims, *window.names, *(cell for *_, cell in window.collisions)]
        assert max(t - s for s, t in cells) <= stem_max

        def kept(cell):
            return cell[1] - cell[0] <= stem_max

        assert window.dims == {k: d for k, d in box.dims.items() if kept(k)}
        assert window.names == {k: v for k, v in box.names.items() if kept(k)}
        assert window.collisions == [c for c in box.collisions if kept(c[2])]

    @pytest.mark.parametrize("fam, stem_max, s_max", STEM_WINDOWS[:5], ids=repr)
    def test_generators_are_a_prefix_of_the_box(self, fam, stem_max, s_max):
        # the generators past the stem form a suffix of each F_s, and
        # every generator made has the box's differential
        t_max = stem_max + s_max
        box = Resolution(fam, s_max, t_max)
        window = Resolution(fam, s_max, t_max, stem_max)
        for t in range(t_max + 1):
            box.column(t)
            window.column(t)
        for s in range(1, s_max + 1):
            k = len(window.degrees[s])
            assert window.degrees[s] == box.degrees[s][:k]
            assert window.d[s] == box.d[s][:k]
            assert all(deg - s > stem_max for deg in box.degrees[s][k:])
            assert all(deg - s <= stem_max for deg in window.degrees[s])
        assert window.cells == {k: v for k, v in box.cells.items() if k[1] - k[0] <= stem_max}

    def test_forms_fewer_products(self, monkeypatch):
        # the box through t <= 36 forms 16,864 products, the window
        # through stem 30 fewer
        counts = []
        for stem_max in (None, 30):
            seen = set()

            def traced(p, a, b):
                seen.add((a, b))
                return operator_product(p, a, b)

            monkeypatch.setattr("chromadefect.ext.operator_product", traced)
            ext_ranks(Profile.T(2, 0), 6, 36, stem_max)
            counts.append(len(seen))
        assert counts[0] > counts[1] > 0


class TestResolution:
    def test_a1_through_stem_40(self):
        fam = Profile.A(2, 1)
        chart = ext_ranks(fam, 20, 60)
        cells = {
            (s, stem + s): a1_closed_form(s, stem + s)
            for stem in range(41)
            for s in range(21)
            if a1_closed_form(s, stem + s)
        }
        assert len(cells) == 126
        assert {k: v for k, v in chart.dims.items() if k[1] - k[0] <= 40} == cells

    @pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_exterior_koszul_form(self, p, n):
        # the closed form evenness_scan reads, through stem 60
        fam = Profile.E(p, n)
        s_max, t_max = 8, 68
        chart = ext_ranks(fam, s_max, t_max)
        degrees = [degree for _, degree, _ in cobar_letters(fam, t_max)]
        for t in range(t_max + 1):
            for s in range(s_max + 1):
                assert chart.dims.get((s, t), 0) == poly_dim(degrees, s, t), (s, t)

    @pytest.mark.parametrize(
        "family, p, n, stem_max, s_max",
        [
            ("A", 2, 1, 10, 5), ("E", 2, 2, 20, 4), ("P", 2, 1, 20, 4),
            ("T", 2, 1, 12, 5), ("T", 2, 0, 8, 4),
            ("A", 3, 1, 20, 3), ("E", 3, 1, 40, 4), ("P", 3, 1, 40, 3),
            ("T", 3, 1, 30, 4), ("T", 3, 0, 20, 3),
            ("A", 5, 1, 60, 2), ("E", 5, 1, 100, 3), ("P", 5, 1, 100, 2),
            ("T", 5, 1, 100, 3), ("T", 5, 0, 60, 2),
        ],
    )
    def test_matches_cobar(self, family, p, n, stem_max, s_max):
        fam = getattr(Profile, family)(p, n)
        t_max = stem_max + s_max
        chart = ext_ranks(fam, s_max, t_max)
        want = cobar_ext_ranks(fam, Comodule.trivial(fam, [0]), s_max, t_max)
        assert chart.dims == want.dims
        assert chart.names == want.names
        assert chart.collisions == want.collisions

    @pytest.mark.parametrize(
        "fam",
        [Profile.A(2, 1), Profile.T(2, 0), Profile.E(3, 1), Profile.T(3, 0), Profile.P(2, 1)],
        ids=repr,
    )
    def test_operators_are_the_family_monomials(self, fam):
        # each operator is the exponent pair of the family's own
        # monomial, halved in P(n) at p = 2, with the monomial's degree
        basis = monomials(fam, 24)
        ops = _Operators(fam, 24)
        if fam.even_only:
            assert ops.elements == [(tuple(e // 2 for e in m.xi), ()) for m in basis]
        else:
            assert ops.elements == [(m.xi, m.tau) for m in basis]
        assert ops.degree == [m.degree() for m in basis]

    @pytest.mark.parametrize("fam", [Profile.T(2, 1), Profile.A(3, 1), Profile.P(2, 1)], ids=repr)
    def test_d_squared_zero(self, fam):
        res = Resolution(fam, 5, 20)
        for t in range(21):
            res.column(t)
        assert any(res.d[5])
        for s in range(2, 6):
            for terms in res.d[s]:
                assert apply_d(res, s - 1, terms) == {}, (fam, s)

    def test_products_on_demand_below_the_cap(self, monkeypatch):
        # each product is formed once, and none past t_max
        seen = []

        def traced(p, a, b):
            seen.append((DualMonomial(p, *a), DualMonomial(p, *b)))
            return operator_product(p, a, b)

        monkeypatch.setattr("chromadefect.ext.operator_product", traced)
        fam = Profile.T(2, 0)
        t_max = 16
        ext_ranks(fam, 5, t_max)
        degrees = fam.poincare(t_max)
        assert seen and len(set(seen)) == len(seen)
        assert max(a.degree() + b.degree() for a, b in seen) <= t_max
        assert len(seen) < operator_pairs(fam, t_max)
        assert operator_pairs(fam, t_max) == sum(
            degrees[i] * degrees[j]
            for i in range(t_max + 1)
            for j in range(t_max + 1 - i)
        )

    @pytest.mark.parametrize("fam, stem_max, s_max", [
        (Profile.A(2, 1), 7, 8), (Profile.A(2, 2), 13, 6), (Profile.T(2, 0), 16, 5),
        (Profile.T(2, 1), 20, 4), (Profile.A(3, 1), 11, 8), (Profile.T(3, 0), 20, 4),
        (Profile.E(3, 2), 15, 4),
    ], ids=repr)
    def test_products_within_the_stem_bound(self, fam, stem_max, s_max, monkeypatch):
        # a resolution cut at stem N forms no product past degree
        # min(N + 2, t_max), the count the ext job's limit reads
        seen = set()

        def traced(p, a, b):
            seen.add((DualMonomial(p, *a), DualMonomial(p, *b)))
            return operator_product(p, a, b)

        monkeypatch.setattr("chromadefect.ext.operator_product", traced)
        t_max = stem_max + s_max
        ext_ranks(fam, s_max, t_max, stem_max)
        bound = min(stem_max + 2, t_max)
        assert seen and max(a.degree() + b.degree() for a, b in seen) <= bound
        assert len(seen) <= operator_pairs(fam, bound) < operator_pairs(fam, t_max)

    def test_operator_pairs(self):
        assert operator_pairs(Profile.A(2, 2), 50) == 64 * 64
        assert operator_pairs(Profile.T(2, 0), 48) == 187_288
        assert operator_pairs(Profile.T(2, 0), 507) > 10**13


class TestEvennessScan:
    @pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_exterior_families_certify(self, p, n):
        for stem_max in (1, 24, 1000):
            assert evenness_scan(n, p, stem_max) is None

    @pytest.mark.parametrize("stem_max, reason", [(1, "even degrees"), (8, "not exterior")])
    def test_non_exterior_family_is_refused(self, stem_max, reason, monkeypatch):
        # A(1) has the primitive xi_1^2 in degree 2, and xi_2 is not
        # primitive; through degree 2 its series is still exterior
        monkeypatch.setattr(Profile, "E", lambda p, n: Profile.A(2, 1))
        with pytest.raises(ValueError, match=reason):
            evenness_scan(1, 2, stem_max)


class TestChangeOfRings:
    def test_same_family_is_identity(self):
        fam = Profile.E(2, 1)
        equal, inner, outer = change_of_rings_check(
            fam, fam, Comodule.trivial(fam, [0]), 4, 8
        )
        assert equal
        assert inner == outer

    def test_exterior_inside_finite_family(self):
        A1 = Profile.A(2, 1)
        E1 = Profile.E(2, 1)
        equal, inner, outer = change_of_rings_check(
            A1, E1, Comodule.trivial(E1, [0]), 5, 15
        )
        assert equal
        assert inner[(1, 1)] == 1 and inner[(1, 3)] == 1

    def test_two_cell_module(self):
        A1 = Profile.A(2, 1)
        E1 = Profile.E(2, 1)
        equal, inner, outer = change_of_rings_check(
            A1, E1, Comodule.trivial(E1, [0, 1]), 4, 10
        )
        assert equal
        assert inner[(0, 0)] == 1 and inner[(0, 1)] == 1


def resolved(profile, s_max, t_max, stem_max):
    res = Resolution(profile, s_max, t_max, stem_max)
    for t in range(t_max + 1):
        res.column(t)
    return res


class TestWoodCofibre:
    def test_c_eta_over_a1_is_ext_over_e1(self):
        # ko smash C(eta) = ku at E2: H^*C(eta) = A(1)//E(1), so Ext_{E(1)}
        # is Ext_{A(1)} of the two cells 0 and 2, and the cofibre
        # sequence of eta, whose connecting map is h1, gives
        # dim Ext_{E(1)}^{s,t} = dim coker(h1: Ext^{s-1,t-2} -> Ext^{s,t})
        #                      + dim ker(h1: Ext^{s,t-2} -> Ext^{s+1,t})
        s_max, t_max, stem_max = 12, 60, 46
        a1 = resolved(Profile.A(2, 1), s_max + 1, t_max, stem_max)
        e1 = resolved(Profile.E(2, 1), s_max, t_max, stem_max)
        [h1] = [a1.ops.number[a1.ops.element(pair)]
                for name, _, pair in cobar_letters(Profile.A(2, 1), 2) if name == "h(1,1)"]

        def rank_h1(s, t):
            """Rank of h1: Ext_{A(1)}^{s,t} -> Ext_{A(1)}^{s+1,t+2}."""
            source, target = a1.cells.get((s, t), ()), a1.cells.get((s + 1, t + 2), ())
            rows = [
                vec_from_terms(2, [(g2 - target.start, c)
                                   for g2, c in a1.times(h1, s + 1, t + 2, {g: 1}).items()])
                for g in source
            ] if target else []
            return len(rows) - len(PrimeFieldMatrix(2, len(rows), len(target), rows).kernel_vectors())

        def dim(res, s, t):
            return len(res.cells.get((s, t), ()))

        cells = ranks = 0
        for s in range(s_max + 1):
            for t in range(s, min(t_max, s + stem_max) + 1):
                into, out = rank_h1(s - 1, t - 2), rank_h1(s, t - 2)
                coker, ker = dim(a1, s, t) - into, dim(a1, s, t - 2) - out
                assert dim(e1, s, t) == coker + ker, (s, t)
                cells += 1
                ranks += out
        assert cells == 611
        # h1 b^l for l <= 3 and h1^2 b^l for l <= 2 lie in the window:
        # the connecting map is no zero map
        assert ranks == 7


class TestDeterminism:
    def test_tsv_golden(self):
        fam = Profile.E(2, 0)
        chart = ext_ranks(fam, 3, 3)
        assert chart.to_tsv() == (
            f"# ext chart: Ext over {fam!r}\n"
            "# window: s <= 3, t <= 3\n"
            "s\tt\tstem\tdim\tclass-names\n"
            "0\t0\t0\t1\t1\n"
            "1\t1\t0\t1\th(1,0)\n"
            "2\t2\t0\t1\th(1,0)^2\n"
            "3\t3\t0\t1\th(1,0)^3\n"
        )
