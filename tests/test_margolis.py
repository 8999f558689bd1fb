"""Margolis homology layer.

Oracles used here:
  * binomial-coefficient actions on truncated projective spaces,
    expanded by hand and compared entry by entry,
  * composites of the single powers P^k x^j = C(j, k) x^(j + k(p-1))
    against the Milnor primitives of column two, whose actions come
    from Milnor's coaction formula instead,
  * Jordan block theory for a nilpotent operator over F_p: a finite
    F_p[d]/(d^k)-module is free iff ker d = im d^(k-1), so chain
    decompositions of the projective modules give exact homology dims,
  * rank divisibility: a free module's dimension is a multiple of the
    subalgebra dimension,
  * comodules turned into modules by dual_module, whose actions come
    from the Milnor diagonal instead of the Milnor product,
  * Ext over the same family: a comodule that cofree_decompose calls
    cofree has Ext concentrated in s = 0, on its cogenerators.

The builders and the cofreeness decision live in oracles/.
"""

import json
import time
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from chromadefect.ext import ext_ranks
from chromadefect.margolis import (
    DOUBLING_SHIFT,
    FiniteSteenrodModule,
    is_free_over,
    margolis_homology,
    operator_degree,
    parse_operator,
    subalgebra_dimension,
    subalgebra_operators,
)
from chromadefect.steenrod import Comodule, Profile

from oracles.cofree import cofree_decompose, dual_module
from oracles.modules import (
    coalgebra_self,
    comodule_suspend,
    comodule_sum,
    cp_module,
    direct_sum,
    free_module,
    module_json,
    ptzero_nontriviality,
    rp_module,
    subalgebra_module,
    suspend,
    tensor,
    thom_height_one,
    trivial_module,
    two_cell_module,
)


def graded_dims(module):
    out = {}
    for d in module.degree_of.values():
        out[d] = out.get(d, 0) + 1
    return out


class TestOperatorNames:
    def test_parse(self):
        assert parse_operator("P(3,1)") == ("P", 3, 1)
        assert parse_operator("P(1,0)") == ("P", 1, 0)
        assert parse_operator("Q(0)") == ("Q", 0, None)

    def test_parse_rejects(self):
        for bad in ("P(1)", "Q(1,2)", "Sq(2)", "P(0,1)x"):
            with pytest.raises(ValueError):
                parse_operator(bad)

    def test_degrees_two(self):
        got = [operator_degree(2, o) for o in
               ("P(1,0)", "P(2,0)", "P(2,1)", "P(3,0)", "P(3,1)", "P(1,1)")]
        assert got == [1, 3, 6, 7, 14, 2]

    def test_degrees_odd(self):
        assert operator_degree(3, "P(1,0)") == 4
        assert operator_degree(3, "P(2,0)") == 16
        assert operator_degree(3, "P(1,1)") == 12
        assert operator_degree(3, "Q(0)") == 1
        assert operator_degree(3, "Q(1)") == 5
        assert operator_degree(5, "Q(1)") == 9

    def test_exterior_names_are_odd_prime_only(self):
        with pytest.raises(ValueError):
            operator_degree(2, "Q(0)")

    def test_operator_tables_two(self):
        assert subalgebra_operators(2, "A", 0) == ["P(1,0)"]
        assert subalgebra_operators(2, "A", 1) == ["P(1,0)", "P(2,0)"]
        assert subalgebra_operators(2, "A", 2) == [
            "P(1,0)", "P(2,0)", "P(2,1)", "P(3,0)",
        ]
        assert subalgebra_operators(2, "A", 3) == [
            "P(1,0)", "P(2,0)", "P(2,1)", "P(3,0)", "P(3,1)", "P(4,0)",
        ]

    def test_operator_tables_even(self):
        # shifted level by level through the doubling table
        assert subalgebra_operators(2, "P", 0) == ["P(1,1)"]
        assert subalgebra_operators(2, "P", 1) == ["P(1,1)", "P(2,1)"]
        assert subalgebra_operators(2, "P", 3) == [
            "P(1,1)", "P(2,1)", "P(2,2)", "P(3,1)", "P(3,2)", "P(4,1)",
        ]
        for src, dst in DOUBLING_SHIFT.items():
            k, t, s = parse_operator(src)
            assert parse_operator(dst) == (k, t, s + 1)

    def test_doubling_table_is_finite(self):
        with pytest.raises(ValueError, match="levels 0..3"):
            subalgebra_operators(2, "P", 4)

    def test_operator_tables_odd(self):
        assert subalgebra_operators(3, "A", 0) == ["Q(0)"]
        assert subalgebra_operators(3, "A", 1) == ["Q(0)", "Q(1)", "P(1,0)"]
        assert subalgebra_operators(3, "P", 1) == ["P(1,0)", "P(2,0)"]

    def test_dimensions(self):
        assert subalgebra_dimension(2, "A", 0) == 2
        assert subalgebra_dimension(2, "A", 1) == 8
        assert subalgebra_dimension(2, "A", 2) == 64
        assert subalgebra_dimension(2, "P", 0) == 2
        assert subalgebra_dimension(3, "A", 1) == 12
        assert subalgebra_dimension(3, "P", 1) == 27


class TestModuleValidation:
    def test_even_only_needs_prime_two(self):
        with pytest.raises(ValueError, match="p = 2"):
            FiniteSteenrodModule(3, [("a", 0)], {}, even_only=True)

    def test_odd_operator_rejected_in_even_mode(self):
        with pytest.raises(ValueError, match="even subalgebra"):
            FiniteSteenrodModule(2, [("a", 0)], {"P(1,0)": {}}, even_only=True)

    def test_unknown_operator_name(self):
        with pytest.raises(ValueError):
            FiniteSteenrodModule(2, [("a", 0)], {"Sq(2)": {}})

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="degree-preserving"):
            FiniteSteenrodModule(
                2, [("a", 0), ("b", 3)], {"P(1,0)": {"a": [(1, "b")]}}
            )

    def test_unknown_target(self):
        with pytest.raises(ValueError, match="unknown element"):
            FiniteSteenrodModule(2, [("a", 0)], {"P(1,0)": {"a": [(1, "z")]}})

    def test_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            FiniteSteenrodModule(2, [("a", 0), ("a", 1)], {})

    def test_square_offender_is_named(self):
        with pytest.raises(ValueError, match="squared is nonzero on basis element a"):
            FiniteSteenrodModule(
                2,
                [("a", 0), ("b", 1), ("c", 2)],
                {"P(1,0)": {"a": [(1, "b")], "b": [(1, "c")]}},
            )

    def test_odd_prime_power_operators_have_order_p(self):
        # a chain of length 3 is fine at p = 3, its square is not zero
        chain = {"P(1,0)": {"a": [(1, "b")], "b": [(1, "c")]}}
        m = FiniteSteenrodModule(3, [("a", 0), ("b", 4), ("c", 8)], chain)
        sq = m.act("P(1,0)", m.act("P(1,0)", {"a": 1}))
        assert sq == {"c": 1}
        assert margolis_homology(m, "P(1,0)").is_zero()

    def test_cube_offender_is_named(self):
        with pytest.raises(ValueError, match="power 3 is nonzero on basis element a"):
            FiniteSteenrodModule(
                3,
                [("a", 0), ("b", 4), ("c", 8), ("d", 12)],
                {"P(1,0)": {"a": [(1, "b")], "b": [(1, "c")], "c": [(1, "d")]}},
            )

    def test_act_requires_declaration(self):
        m = trivial_module(2, ops=("P(1,0)",))
        with pytest.raises(ValueError, match="not declared"):
            m.act("P(2,0)", {"m0": 1})

    def test_coefficients_normalize_mod_p(self):
        m = FiniteSteenrodModule(3, [("a", 0), ("b", 4)], {"P(1,0)": {"a": [(3, "b")]}})
        assert m.actions["P(1,0)"] == {}
        assert m.act("P(1,0)", {"a": 1}) == {}


class TestMargolisHomology:
    def test_trivial_class_survives(self):
        h = margolis_homology(trivial_module(2, ops=("P(1,0)",)), "P(1,0)")
        assert h.dims == {0: 1}
        assert h.witnesses == {0: [{"m0": 1}]}
        assert not h.is_zero() and sum(h.dims.values()) == 1

    def test_trivial_class_survives_odd(self):
        h = margolis_homology(trivial_module(3, ops=("Q(0)",)), "Q(0)")
        assert h.dims == {0: 1}

    def test_two_cell_modules_are_acyclic(self):
        for op, p in (("P(1,0)", 2), ("P(1,1)", 2), ("Q(1)", 3)):
            m = two_cell_module(op, p=p)
            assert m.dim() == 2
            assert margolis_homology(m, op).is_zero()

    def test_even_mode_flips_on_for_even_operators(self):
        assert two_cell_module("P(1,1)").even_only
        assert not two_cell_module("P(1,0)").even_only

    def test_subalgebra_on_itself_vanishes(self):
        m = subalgebra_module(2, "A", 1)
        for op in subalgebra_operators(2, "A", 1):
            assert margolis_homology(m, op).is_zero()

    def test_level_two_subalgebra_all_four_operators(self):
        m = subalgebra_module(2, "A", 2)
        ops = subalgebra_operators(2, "A", 2)
        assert len(ops) == 4 and m.dim() == 64
        for op in ops:
            assert margolis_homology(m, op).is_zero()

    def test_truncated_real_projective_chains(self):
        # x^1 -> x^2 and x^3 -> x^4; dropping the top cell opens a gap
        h3 = margolis_homology(rp_module(3), "P(1,0)")
        assert h3.dims == {3: 1}
        assert h3.witnesses[3] == [{"x^3": 1}]
        assert margolis_homology(rp_module(4), "P(1,0)").is_zero()

    def test_odd_prime_jordan_blocks(self):
        # exponent chains mod 3: [x1,x3], [x5,x7,x9], [x2,x4,x6], [x8];
        # the length-3 blocks are free, the short blocks survive
        h = margolis_homology(cp_module(3, 9, ops=("P(1,0)",)), "P(1,0)")
        assert h.dims == {6: 1, 16: 1}
        assert h.witnesses[6] == [{"x^3": 1}]
        assert h.witnesses[16] == [{"x^8": 1}]

    def test_nilpotence_recheck_on_probe_operators(self):
        # P(1,1) may be declared on an ordinary module, but its
        # homology is undefined there since its square is not zero
        m = subalgebra_module(2, "A", 1, extra_ops=("P(1,1)",))
        with pytest.raises(ValueError, match="P\\(1,1\\) squared .* basis element 1"):
            margolis_homology(m, "P(1,1)")

    def test_requires_declared_operator(self):
        with pytest.raises(ValueError, match="not declared"):
            margolis_homology(rp_module(3), "P(2,0)")


class TestFreeness:
    def test_trivial_module_is_not_free(self):
        v = is_free_over(trivial_module(2, ops=("P(1,0)",)), "A(0)")
        assert not v.free and v.rank is None
        assert v.witness == ("P(1,0)", 0, {"m0": 1})

    def test_two_cell_module_over_even_level_zero(self):
        v = is_free_over(two_cell_module("P(1,1)"), "P(0)")
        assert v.free and v.rank == 1 and v.witness is None

    def test_complex_truncations_against_rank_divisibility(self):
        ops = ("P(1,1)",)
        for cells, free, rank in ((2, True, 1), (3, False, None), (4, True, 2)):
            m = cp_module(2, cells, ops=ops)
            v = is_free_over(m, "P(0)")
            assert (v.free, v.rank) == (free, rank)
            if free:
                assert m.dim() == rank * subalgebra_dimension(2, "P", 0)
        v3 = is_free_over(cp_module(2, 3, ops=ops), "P(0)")
        assert v3.witness == ("P(1,1)", 6, {"x^3": 1})

    def test_truncated_real_projective_over_level_zero(self):
        assert not is_free_over(rp_module(3), "A(0)").free
        v = is_free_over(rp_module(4), "A(0)")
        assert v.free and v.rank == 2

    def test_subalgebras_are_free_over_themselves(self):
        cases = [
            (2, "A", 1), (2, "A", 2), (2, "P", 1),
            (3, "A", 0), (3, "A", 1), (3, "P", 1),
        ]
        for p, kind, level in cases:
            m = subalgebra_module(p, kind, level)
            v = is_free_over(m, f"{kind}({level})")
            assert v.free and v.rank == 1, (p, kind, level)
            assert m.dim() == subalgebra_dimension(p, kind, level)

    def test_free_module_builder(self):
        v = is_free_over(free_module(2, "A", 1, (0, 5)), "A(1)")
        assert v.free and v.rank == 2
        v3 = is_free_over(free_module(3, "A", 0, (0,)), "A(0)")
        assert v3.free and v3.rank == 1

    def test_missing_operator_declaration(self):
        with pytest.raises(ValueError, match="does not declare P\\(2,0\\)"):
            is_free_over(rp_module(4), "A(1)")

    def test_even_subalgebra_needs_even_mode(self):
        with pytest.raises(ValueError, match="even-only"):
            is_free_over(two_cell_module("P(1,0)"), "P(0)")

    def test_unrecognized_subalgebra(self):
        m = trivial_module(2, ops=("P(1,0)",))
        with pytest.raises(ValueError, match="expected 'A\\(n\\)' or 'P\\(n\\)'"):
            is_free_over(m, "B(1)")

    def test_verdict_json(self):
        got = is_free_over(rp_module(3), "A(0)").to_json()
        assert got == {
            "subalgebra": "A(0)",
            "operators": ["P(1,0)"],
            "free": False,
            "rank": None,
            "homology": {"P(1,0)": {"3": 1}},
            "witness": {"operator": "P(1,0)", "degree": 3, "class": {"x^3": 1}},
        }


def _single_power_composites(p, m, words):
    """Sum of signed composites of single powers on x^1..x^m as
    {j: {j2: coef}}; a word (k_1, ..., k_r) applies k_r first.  The cells
    are RP^m at p = 2 (shift k) and CP^m at odd p (shift k(p-1))."""
    shift = 1 if p == 2 else p - 1
    out = {}
    for sign, word in words:
        for j in range(1, m + 1):
            coef, e = sign, j
            for k in reversed(word):
                coef *= comb(e, k)
                e += k * shift
            if e <= m and coef % p:
                row = out.setdefault(j, {})
                row[e] = (row.get(e, 0) + coef) % p
    return {j: {e: c for e, c in row.items() if c} for j, row in out.items() if any(row.values())}


class TestProjectiveSpaces:
    def test_real_action_tables(self):
        m = rp_module(4, ops=("P(1,0)", "P(2,0)"))
        assert m.actions["P(1,0)"] == {
            "x^1": ((1, "x^2"),),
            "x^3": ((1, "x^4"),),
        }
        # the degree 3 primitive sends the generator to its fourth power
        assert m.actions["P(2,0)"] == {"x^1": ((1, "x^4"),)}

    def test_complex_action_table_odd(self):
        m = cp_module(3, 4, ops=("P(1,0)",))
        assert m.actions["P(1,0)"] == {
            "x^1": ((1, "x^3"),),
            "x^2": ((2, "x^4"),),
        }

    def test_odd_degree_operators_die_on_even_complexes(self):
        m = cp_module(2, 6, ops=("P(2,0)",))
        assert m.actions["P(2,0)"] == {}
        assert sum(margolis_homology(m, "P(2,0)").dims.values()) == m.dim()

    @pytest.mark.parametrize(
        "p, words",
        [
            # Q(1) = Sq^1 Sq^2 + Sq^2 Sq^1 on RP^m
            (2, ((1, (1, 2)), (1, (2, 1)))),
            # P(2,0) = P^3 P^1 - P^1 P^3 on CP^m at p = 3
            (3, ((1, (3, 1)), (-1, (1, 3)))),
        ],
    )
    def test_column_two_primitive_from_single_powers(self, p, words):
        for m in range(1, 30):
            module = rp_module(m, ("P(2,0)",)) if p == 2 else cp_module(p, m, ("P(2,0)",))
            got = {
                int(src[2:]): {int(t[2:]): c for c, t in terms}
                for src, terms in module.actions["P(2,0)"].items()
            }
            assert got == _single_power_composites(p, m, words), m

    def test_large_operator_needs_no_solve(self):
        start = time.perf_counter()
        m = cp_module(5, 130, ("P(2,1)",))
        assert time.perf_counter() - start < 1.0
        want = {f"x^{j}": ((1, f"x^{j + 120}"),) for j in range(5, 10)}
        want["x^10"] = ((2, "x^130"),)
        assert m.actions["P(2,1)"] == want

    def test_nontriviality_probe(self):
        assert ptzero_nontriviality("RP^4", 1, 2)
        assert not ptzero_nontriviality("CP^1", 2, 2)
        assert ptzero_nontriviality("CP^9", 1, 3)
        assert ptzero_nontriviality("CP^9", 2, 3)
        assert not ptzero_nontriviality("CP^8", 2, 3)

    def test_probe_input_errors(self):
        with pytest.raises(ValueError, match="p = 2"):
            ptzero_nontriviality("RP^4", 1, 3)
        with pytest.raises(ValueError, match="unrecognized projective space"):
            ptzero_nontriviality("XP^4", 1, 2)


class TestTensor:
    def test_kunneth_dims(self):
        r3 = rp_module(3)
        h = margolis_homology(tensor(r3, r3), "P(1,0)")
        assert h.dims == {6: 1}
        assert h.witnesses[6] == [{"x^3|x^3": 1}]
        assert margolis_homology(tensor(r3, rp_module(4)), "P(1,0)").is_zero()

    def test_odd_prime_signs_validate(self):
        # the exterior generator sits in odd degree, so the Leibniz
        # action only squares to zero with the Koszul sign in place;
        # construction-time validation would reject a sign slip
        e = subalgebra_module(3, "A", 0)
        t = tensor(e, e)
        assert t.operators == ("Q(0)",)
        v = is_free_over(t, "A(0)")
        assert v.free and v.rank == 2

    def test_even_mode_pair(self):
        c = two_cell_module("P(1,1)")
        t = tensor(c, c)
        assert t.even_only
        v = is_free_over(t, "P(0)")
        assert v.free and v.rank == 2

    def test_default_operators_keep_only_derivations(self):
        c = cp_module(3, 4, ops=("P(1,0)",))
        assert tensor(c, c).operators == ()

    def test_non_primitive_rejected(self):
        f = free_module(2, "A", 2, (0,))
        with pytest.raises(ValueError, match="not primitive"):
            tensor(f, f, ops=("P(2,1)",))
        c = cp_module(3, 4, ops=("P(1,0)",))
        with pytest.raises(ValueError, match="not primitive"):
            tensor(c, c, ops=("P(1,0)",))

    def test_operator_needed_on_both_factors(self):
        with pytest.raises(ValueError, match="declared on both"):
            tensor(rp_module(3), two_cell_module("P(2,0)"), ops=("P(1,0)",))


class TestSumsAndSuspensions:
    def test_direct_sum_is_additive(self):
        s = direct_sum(rp_module(3), rp_module(4))
        h = margolis_homology(s, "P(1,0)")
        assert h.dims == {3: 1}
        assert h.witnesses[3] == [{"a.x^3": 1}]

    def test_suspension_shifts_homology(self):
        h = margolis_homology(suspend(rp_module(3), 5), "P(1,0)")
        assert h.dims == {8: 1}

    def test_free_summand_never_flips_a_verdict(self):
        base = trivial_module(2, ops=("P(1,0)",))
        padded = direct_sum(base, free_module(2, "A", 0, (2,)))
        v = is_free_over(padded, "A(0)")
        assert not v.free
        assert v.witness == ("P(1,0)", 0, {"a.m0": 1})

    def test_sum_of_free_modules_is_free(self):
        s = direct_sum(free_module(2, "A", 1, (0,)), free_module(2, "A", 1, (3,)))
        v = is_free_over(s, "A(1)")
        assert v.free and v.rank == 2


class TestJson:
    def test_round_trip(self):
        m = rp_module(4, ops=("P(1,0)", "P(2,0)"))
        data = json.loads(json.dumps(module_json(m)))
        back = FiniteSteenrodModule.from_json(data)
        assert module_json(back) == module_json(m)
        assert back.names == m.names
        assert back.actions == m.actions

    def test_round_trip_keeps_even_mode(self):
        c = two_cell_module("P(1,1)")
        assert FiniteSteenrodModule.from_json(module_json(c)).even_only

    def test_malformed_input(self):
        with pytest.raises(ValueError, match="malformed"):
            FiniteSteenrodModule.from_json({"prime": 2})


def _assert_same_up_to_shift(dual, alg, shift):
    """Equal graded dims and equal ranks of every operator in every
    degree, after moving the dual module up by shift."""
    assert dual.operators == alg.operators
    assert {d + shift: n for d, n in graded_dims(dual).items()} == graded_dims(alg)
    for op in alg.operators:
        assert margolis_homology(dual, op).is_zero()
        assert margolis_homology(alg, op).is_zero()
        for d in alg.degrees():
            assert (
                dual.operator_matrix(op, d - shift).rank()
                == alg.operator_matrix(op, d).rank()
            )


class TestComoduleCrossOracle:
    # the dual of a finite family's self-comodule is free of rank one on
    # its bottom class, so it matches the subalgebra over itself moved
    # up by the top degree

    def test_vanishing_report_agrees_on_level_one(self):
        dual = dual_module(coalgebra_self(Profile.A(2, 1), 6))
        assert set(dual.operators) == set(subalgebra_operators(2, "A", 1))
        _assert_same_up_to_shift(dual, subalgebra_module(2, "A", 1), 6)

    def test_vanishing_report_agrees_at_odd_primes(self):
        dual = dual_module(coalgebra_self(Profile.A(3, 0), 1))
        assert dual.operators == ("Q(0)",)
        _assert_same_up_to_shift(dual, subalgebra_module(3, "A", 0), 1)


class TestComoduleOddPrimes:
    # P(1,0) has cube zero at p = 3 but not square zero, so these need
    # the ker/im(op^(p-1)) homology

    @pytest.mark.parametrize(
        "p, kind, level, dim",
        [(3, "A", 1, 12), (3, "P", 0, 3), (3, "P", 1, 27), (5, "A", 1, 20)],
    )
    def test_self_comodule_is_free_of_rank_one(self, p, kind, level, dim):
        profile = getattr(Profile, kind)(p, level)
        dual = dual_module(coalgebra_self(profile, 200))
        assert dual.dim() == dim
        verdict = is_free_over(dual, f"{kind}({level})")
        assert verdict.free and verdict.rank == 1
        assert all(not h for h in verdict.homology.values())

    def test_p30_self_comodule_is_cofree(self):
        com = coalgebra_self(Profile.P(3, 0), 200)
        assert cofree_decompose(com) == (True, [0])

    def test_a31_self_comodule_with_odd_degrees_is_cofree(self):
        # the exterior generator tau_0 puts A(3,1) in odd degrees too
        com = coalgebra_self(Profile.A(3, 1), 200)
        assert any(d % 2 for d in com.degree_of.values())
        assert cofree_decompose(com) == (True, [0])
        assert cofree_decompose(comodule_sum(com, comodule_suspend(com, 1))) == (True, [0, 1])

    def test_p30_trivial_comodule_is_not_cofree(self):
        com = Comodule.trivial(Profile.P(3, 0), (0,))
        assert cofree_decompose(com) == (False, ("P(1,0)", 1))

    def test_cube_zero_operator_is_not_square_zero(self):
        dual = dual_module(coalgebra_self(Profile.P(3, 0), 200))
        x = {dual.names[0]: 1}
        assert dual.act("P(1,0)", dual.act("P(1,0)", x))
        assert not dual.act("P(1,0)", dual.act("P(1,0)", dual.act("P(1,0)", x)))


class TestGeneratedFamilies:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=3))
    def test_free_modules_have_vanishing_homology(self, degrees):
        m = free_module(2, "A", 1, tuple(degrees))
        v = is_free_over(m, "A(1)")
        assert v.free and v.rank == len(degrees)
        for op in m.operators:
            assert margolis_homology(m, op).is_zero()

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=4))
    def test_free_modules_odd_prime(self, degrees):
        m = free_module(3, "A", 0, tuple(degrees))
        v = is_free_over(m, "A(0)")
        assert v.free and v.rank == len(degrees)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_direct_sum_additivity(self, data):
        library = [
            rp_module(3),
            rp_module(4),
            trivial_module(2, ops=("P(1,0)",)),
            two_cell_module("P(1,0)"),
        ]
        left = suspend(data.draw(st.sampled_from(library)), data.draw(st.integers(0, 5)))
        right = suspend(data.draw(st.sampled_from(library)), data.draw(st.integers(0, 5)))
        hs = margolis_homology(direct_sum(left, right), "P(1,0)")
        hl = margolis_homology(left, "P(1,0)")
        hr = margolis_homology(right, "P(1,0)")
        degrees = set(hs.dims) | set(hl.dims) | set(hr.dims)
        for d in degrees:
            assert hs.dims.get(d, 0) == hl.dims.get(d, 0) + hr.dims.get(d, 0)

    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from(["trivial", "rp3", "rp4"]),
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=2),
    )
    def test_verdict_stable_under_free_padding(self, which, degrees):
        base = {
            "trivial": trivial_module(2, ops=("P(1,0)",)),
            "rp3": rp_module(3),
            "rp4": rp_module(4),
        }[which]
        padded = direct_sum(base, free_module(2, "A", 0, tuple(degrees)))
        assert is_free_over(padded, "A(0)").free == is_free_over(base, "A(0)").free


def _a31_self_plus_suspension():
    com = coalgebra_self(Profile.A(3, 1), 200)
    return comodule_sum(com, comodule_suspend(com, 1))


COFREE_CASES = {
    "P(2,0) self": (lambda: coalgebra_self(Profile.P(2, 0), 200), 3, 8),
    "P(2,1) self": (lambda: coalgebra_self(Profile.P(2, 1), 200), 2, 12),
    "Thom height 1": (lambda: thom_height_one(3), 3, 16),
    "P(3,0) self": (lambda: coalgebra_self(Profile.P(3, 0), 200), 3, 16),
    "A(3,0) self": (lambda: coalgebra_self(Profile.A(3, 0), 200), 3, 10),
    "A(3,1) self plus its suspension": (_a31_self_plus_suspension, 2, 16),
}


class TestCofreeAgainstExt:
    # Ext of a cofree comodule over its family is the cogenerators in
    # s = 0 and nothing above, so every (True, degrees) verdict of
    # cofree_decompose is checked against the cobar Ext chart

    @pytest.mark.parametrize("name", sorted(COFREE_CASES))
    def test_cofree_verdicts_match_ext(self, name):
        build, s_max, t_max = COFREE_CASES[name]
        com = build()
        ok, degrees = cofree_decompose(com)
        assert ok, name
        chart = ext_ranks(com.profile, com, s_max, t_max)
        assert chart.dims == {(0, t): degrees.count(t) for t in set(degrees) if t <= t_max}
