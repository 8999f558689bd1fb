"""Tests for the chromatic defect ledger.

Verdicts and evidence items are the plain JSON rows the `defect` job
writes, so every check reads their keys.  Oracles: hand values for the
classical catalogue (real K-theory at 2, the real Johnson-Wilson tower
doubling, cyclic fixed point theories via cyclotomic ramification),
plus cross-engine agreement between the formal inverse witness and the
EO closed form at matching heights, the element-by-element valuation
enumeration for each EO row of the catalogue, and the resolution's
Ext_{A(1)}^{1,2} for the letter behind ko's lower bound.  Every
catalogue row, at stem caps 1 through 1000, keeps the invariants of a
verdict: its logarithm matches its value, an exact row has evidence on
both sides, and an infinite row carries no value; the job's artifacts
are the table and the JSON bytes of those rows.
"""

import json

import pytest

from chromadefect import cli, defect, fgl
from chromadefect.charts import json_bytes
from chromadefect.defect import (
    assemble,
    catalogue,
    defect_job,
    documented_infinite,
    evidence,
    floor_log,
    verdict_eo,
    verdict_er,
    verdict_ko,
    verdict_ku,
    verdict_table,
    verdict_tmf,
)
from chromadefect.ext import ext_ranks
from chromadefect.fgl import er_defect_witness
from chromadefect.steenrod import Profile

from oracles.valuation import SubgroupSpec
from oracles.valuation import eo_defect as enumerated_eo_defect


def ev(kind, bound=None, engine="test", op="op", detail="d"):
    return evidence(engine, op, detail, kind, bound)


class TestFloorLog:
    def test_values(self):
        assert floor_log(2, 1) == 0
        assert floor_log(2, 2) == 1
        assert floor_log(2, 7) == 2
        assert floor_log(3, 27) == 3
        assert floor_log(5, 124) == 2

    def test_positive_required(self):
        with pytest.raises(ValueError):
            floor_log(2, 0)


class TestAssemble:
    def test_meeting_bounds_give_exact(self):
        v = assemble("x", [ev("upper", 4), ev("lower", 4)])
        assert v["status"] == "exact"
        assert v["phi"] == 4 and v["phi_p"] == 2

    def test_gap_gives_upper_bound_only(self):
        v = assemble("x", [ev("upper", 8), ev("lower", 2)])
        assert v["status"] == "upper-bound-only"
        assert v["phi"] == 8

    def test_exact_item_counts_for_both_sides(self):
        v = assemble("x", [ev("exact", 3)], prime=3)
        assert v["status"] == "exact" and v["phi"] == 3 and v["phi_p"] == 1

    def test_tightest_bounds_win(self):
        v = assemble("x", [ev("upper", 16), ev("upper", 4), ev("lower", 2), ev("lower", 4)])
        assert v["status"] == "exact" and v["phi"] == 4

    def test_contradiction_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            assemble("x", [ev("upper", 2), ev("lower", 4)])

    def test_upper_bound_required(self):
        with pytest.raises(ValueError, match="no upper bound"):
            assemble("x", [ev("lower", 2)])

    def test_facts_do_not_move_bounds(self):
        v = assemble("x", [ev("upper", 4), ev("fact")])
        assert v["status"] == "upper-bound-only"


class TestCatalogueEntries:
    def test_ku_is_orientable(self):
        v = verdict_ku()
        assert v["phi"] == 1 and v["phi_p"] == 0 and v["status"] == "exact"

    def test_ko_exact_two(self):
        v = verdict_ko(stem_cap=16)
        assert v["phi"] == 2 and v["phi_p"] == 1 and v["status"] == "exact"
        engines = {e["engine"] for e in v["evidence"]}
        assert engines == {"ext"}
        lower = [e for e in v["evidence"] if e["kind"] == "lower"][0]
        assert "h(1,1)" in lower["operation"]
        assert "convergence assumed" not in lower["detail"]

    def test_ko_lower_bound_class_is_ext_1_2(self):
        # the resolution oracle: h(1,1) spans Ext_{A(1)}^{1,2}
        chart = ext_ranks(Profile.A(2, 1), 1, 2)
        assert chart["dims"][(1, 2)] == 1
        assert chart["names"][(1, 2)] == ["h(1,1)"]

    def test_ko_without_h11_refuses(self, monkeypatch, tmp_path, capsys):
        letters = defect.cobar_letters

        def drop_h11(profile, t_max):
            return [letter for letter in letters(profile, t_max) if letter[0] != "h(1,1)"]

        monkeypatch.setattr(defect, "cobar_letters", drop_h11)
        with pytest.raises(ValueError, match="h\\(1,1\\)"):
            verdict_ko(stem_cap=8)
        out = tmp_path / "out"
        argv = ["defect", "--cap", "8", "--no-cache", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_COMPUTE
        assert "compute error" in capsys.readouterr().err
        assert not out.exists()

    def test_tmf_upper_bound_four(self):
        v = verdict_tmf(stem_cap=16)
        assert v["phi"] == 4 and v["phi_p"] == 2
        assert v["status"] == "upper-bound-only"
        assert any(e["kind"] == "fact" for e in v["evidence"])

    def test_er_tower(self):
        for n in (1, 2, 3):
            v = verdict_er(n, er_defect_witness(n))
            assert v["phi"] == 2**n and v["phi_p"] == n and v["status"] == "exact"
            kinds = sorted(e["kind"] for e in v["evidence"])
            assert kinds == ["lower", "upper"]

    def test_eo_prime_cyclic(self):
        for p, k in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]:
            v = verdict_eo(p, 1, k * (p - 1))
            assert v["phi"] == p**k and v["phi_p"] == k and v["status"] == "exact"
            assert v["prime"] == p

    def test_eo_prime_square_cyclic(self):
        assert verdict_eo(2, 2, 2)["phi"] == 4
        assert verdict_eo(3, 2, 6)["phi"] == 27

    def test_eo_trivial_group(self):
        v = verdict_eo(7, 0, 5)
        assert v["phi"] == 1 and v["status"] == "exact"

    def test_monotonicity_against_orientable_base(self):
        # the real theory sits over the complex one along a ring map,
        # so its defect can only be larger
        assert verdict_ko(stem_cap=16)["phi"] >= verdict_ku()["phi"] == 1

    def test_catalogue_eo_rows_match_the_enumeration(self):
        # each preset row of the table, not only the helper, against the
        # minimum over the group's p^m - 1 nontrivial elements
        rows = {v["subject"]: v for v in catalogue(stem_cap=8)}
        for p, m, h in defect.EO_PRESETS:
            report = enumerated_eo_defect(SubgroupSpec(p, m, h))
            v = rows[f"EO_{h}(C_{p**m}) at p={p}"]
            assert (v["prime"], v["phi"], v["phi_p"], v["status"]) == (p, report["phi"], report["phi_p"], "exact")
            [e] = v["evidence"]
            assert (e["engine"], e["kind"], e["bound"]) == ("valuation", "exact", report["phi"])
            assert e["operation"] == f"eo_defect(C_{report['order']}, height={h})"
            assert e["detail"] == f"N = height * max cyclotomic valuation = {report['N']}, an equality"

    def test_cross_engine_agreement(self):
        # the formal-inverse witness and the cyclotomic valuation see
        # the same defect for the order-2 group at heights 1..3
        for n in (1, 2, 3):
            assert verdict_er(n, er_defect_witness(n))["phi"] == verdict_eo(2, 1, n)["phi"] == 2**n


class TestDocumentedInfinite:
    def test_finite_spectra(self):
        v = documented_infinite("finite spectra (nontrivial)")
        assert v["subject"] == "finite spectra (nontrivial)"
        assert v["status"] == "documented-infinite"
        assert v["phi"] is None and v["phi_p"] is None

    def test_j(self):
        v = documented_infinite("j")
        assert v["status"] == "documented-infinite"
        assert len(v["evidence"]) == 2  # infinite defect plus the splitting corollary

    def test_unknown_subject(self):
        # the subject is the table's own name, with no aliases
        for subject in ("tmf", "finite", "J"):
            with pytest.raises(ValueError, match="unknown subject"):
                documented_infinite(subject)


class TestTableOutput:
    def test_catalogue_table_shape(self):
        rows = catalogue(stem_cap=16)
        table = verdict_table(rows)
        lines = table.strip().split("\n")
        assert lines[0] == "subject\tprime\tphi\tphi_p\tstatus"
        assert len(lines) == 1 + len(rows)
        body = "\n".join(lines[1:])
        assert "ko\t2\t2\t1\texact" in body
        assert "tmf\t2\t<=4\t<=2\tupper-bound-only" in body
        assert "ER(3)\t2\t8\t3\texact" in body
        assert "j\t2\tinf\tinf\tdocumented-infinite" in body

    def test_json_round_trip_fields(self):
        v = verdict_er(2, er_defect_witness(2))
        assert json.loads(json_bytes(v)) == v
        assert set(v) == {"subject", "prime", "phi", "phi_p", "status", "evidence"}
        assert v["subject"] == "ER(2)"
        assert v["phi"] == 4
        assert all({"engine", "operation", "detail", "kind", "bound"} == set(e) for e in v["evidence"])

    def test_deterministic(self):
        assert verdict_table(catalogue(stem_cap=16)) == verdict_table(catalogue(stem_cap=16))


class TestRowInvariants:
    @pytest.mark.parametrize("cap", [1, 8, 24, 1000])
    def test_every_row_is_a_consistent_verdict(self, cap):
        # the checks a verdict's constructor once made, on every row
        # that assemble and documented_infinite build for the table
        rows = catalogue(stem_cap=cap)
        for v in rows:
            kinds = {e["kind"] for e in v["evidence"]}
            assert kinds <= {"upper", "lower", "exact", "fact"}
            for e in v["evidence"]:
                if e["kind"] == "fact":
                    assert e["bound"] is None
                else:
                    assert type(e["bound"]) is int and e["bound"] >= 1
            if v["status"] == "documented-infinite":
                assert v["phi"] is None and v["phi_p"] is None
            else:
                assert v["status"] in ("exact", "upper-bound-only")
                assert v["phi_p"] == floor_log(v["prime"], v["phi"])
            if v["status"] == "exact":
                assert "exact" in kinds or {"upper", "lower"} <= kinds

    @pytest.mark.parametrize("cap", [1, 8, 24, 1000])
    def test_job_writes_the_rows(self, cap):
        rows = catalogue(stem_cap=cap)
        out = defect_job({"stem_cap": cap, "formats": ["json", "tsv"]}, None)
        assert out == {
            "defect_table.tsv": verdict_table(rows).encode("utf-8"),
            "defect_table.json": json_bytes(rows),
        }


class TestSharedWitness:
    def test_catalogue_solves_each_series_once(self, monkeypatch):
        # ER(1), ER(2) and ER(3) share [2](x) and [-1](x) at heights
        # 1..3, each solved once through degree 2^h + 1; per row it was 12
        solves = []
        solve = fgl.honda_multiple
        monkeypatch.setattr(fgl, "honda_multiple", lambda *a: solves.append(a) or solve(*a))
        catalogue()
        assert sorted(solves) == sorted((2, h, c, 2**h + 1) for h in (1, 2, 3) for c in (2, -1))

    def test_catalogue_rows_equal_the_per_row_verdicts(self):
        rows = {v["subject"]: v for v in catalogue()}
        for n in (1, 2, 3):
            assert rows[f"ER({n})"] == verdict_er(n, er_defect_witness(n))
            assert f"(cap {2**n + 8})" in rows[f"ER({n})"]["evidence"][0]["detail"]

    def test_catalogue_refuses_a_corrupted_solve(self, monkeypatch):
        solve = fgl._solve_log_multiple

        # degree 5 lies inside the series of heights 2 and 3
        def corrupted(log_terms, c, cap):
            f = solve(log_terms, c, cap)
            if cap >= 5:
                f[5] += 2
            return f

        monkeypatch.setattr(fgl, "_solve_log_multiple", corrupted)
        with pytest.raises(ValueError, match="log of the solved series .* in degree 5;"):
            catalogue()
