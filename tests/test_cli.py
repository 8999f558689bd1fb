"""Command-line contract: artifact bytes, exit codes and what a run writes.

The directories under tests/golden/ were written with

    python -m chromadefect.cli <argv> --out tests/golden/<name>

for each name and argv in GOLDEN: the fgl jobs and defect_cap8 by the
engine before the univariate defect witness replaced the bivariate one,
defect_cap24 by the engine before evenness_scan read the Koszul closed
form in place of the cobar complex, the A-family ext jobs and the
margolis jobs by the engine before comodule cofreeness moved onto
margolis_homology, and the may and ko-ss jobs (every format) by the
engine before SubquotientBasis moved onto PrimeFieldMatrix elimination.
The may E2 files (may_*_e2*) were added later, written by the general
page turner (page_turn on the E1 page, with the job's JSON shape, chart
and TSV writers) before may_e2 read E2 off the d1 matrices.  may_p3_n0,
whose d1 carries Koszul signs -1 from the exterior h letters at p = 3,
was written by the engine whose d1 multiplied whole elements through a
generic monomial product, before each Leibniz term was brought to
canonical form once.  The
T-family ext jobs (ext_t1_p2, ext_t1_p3) were written by the engine
whose cobar words held monomial objects, before words became tuples of
letter numbers.  Every ext_* directory was written again when the ext
job began to cut its chart at --stem-max: the stems past it, which
t <= stem-max + s-max computes only in part, left the T-family files,
and each TSV header gained the stem window.  Both defect_table.json
files were written again when ko's lower bound moved from the ko
chart's fourth page onto the letter h(1,1) of Ext over A(1): only ko's
lower-bound evidence row changed, and the TSVs kept their bytes.  ext_t0_p2 (the
sphere), ext_a1_p5 and ext_p1_p2 (the halved even-only operators) were
written by the engine whose Milnor product built a DualMonomial per
term, before products ran on exponent tuples.  The margolis
inputs live in tests/golden/inputs/, written by the builders in tests/oracles/modules.py
(free_a1.json is free_module(2, "A", 1, [0, 3]); rp4.json is
rp_module(4, ops=("P(1,0)", "P(2,0)")); cp9_p3.json is
cp_module(3, 9, ops=("P(1,0)",)), whose homology in degrees 6 and 16
pins the text order of the degree keys and the order-p image; empty.json
is the malformed module {}).  margolis_cp9_p3 was written by the engine
whose homology and verdict were classes, before they became plain
dicts.  Any change to the artifact bytes of those jobs fails here.
"""

import errno
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from chromadefect import cli, ext, margolis
from chromadefect.gradedlin import modp
from chromadefect.steenrod import Profile

GOLDEN_DIR = Path(__file__).parent / "golden"
INPUTS = GOLDEN_DIR / "inputs"
FORMATS = ["--format", "json", "--format", "tsv"]
GOLDEN = {
    "fgl_n1": ["fgl", "--n", "1", *FORMATS],
    "fgl_n2": ["fgl", "--n", "2", *FORMATS],
    "fgl_n3": ["fgl", "--n", "3", *FORMATS],
    "fgl_n4": ["fgl", "--n", "4", *FORMATS],
    "defect_cap8": ["defect", "--cap", "8", *FORMATS],
    "defect_cap24": ["defect", "--cap", "24", *FORMATS],
    "ext_a1_p2": ["ext", "--prime", "2", "--family", "A", "--n", "1",
                  "--stem-max", "8", "--s-max", "4", *FORMATS, "--format", "svg"],
    "ext_a1_p3": ["ext", "--prime", "3", "--family", "A", "--n", "1",
                  "--stem-max", "12", "--s-max", "3", *FORMATS, "--format", "svg"],
    "ext_t1_p2": ["ext", "--prime", "2", "--family", "T", "--n", "1",
                  "--stem-max", "12", "--s-max", "6", *FORMATS, "--format", "svg"],
    "ext_t1_p3": ["ext", "--prime", "3", "--family", "T", "--n", "1",
                  "--stem-max", "30", "--s-max", "4", *FORMATS, "--format", "svg"],
    "ext_t0_p2": ["ext", "--prime", "2", "--family", "T", "--n", "0",
                  "--stem-max", "20", "--s-max", "6", *FORMATS, "--format", "svg"],
    "ext_a1_p5": ["ext", "--prime", "5", "--family", "A", "--n", "1",
                  "--stem-max", "40", "--s-max", "3", *FORMATS, "--format", "svg"],
    "ext_p1_p2": ["ext", "--prime", "2", "--family", "P", "--n", "1",
                  "--stem-max", "20", "--s-max", "4", *FORMATS, "--format", "svg"],
    "margolis_free_a1": ["margolis", "--input", str(INPUTS / "free_a1.json"),
                         "--subalgebra", "A(1)", *FORMATS],
    "margolis_rp4": ["margolis", "--input", str(INPUTS / "rp4.json"),
                     "--subalgebra", "A(1)", *FORMATS],
    "margolis_cp9_p3": ["margolis", "--input", str(INPUTS / "cp9_p3.json"),
                        "--subalgebra", "P(0)", *FORMATS],
    "may_default": ["may", *FORMATS, "--format", "svg"],
    "may_p3_n1": ["may", "--prime", "3", "--n", "1", "--stem-max", "20",
                  "--s-max", "4", *FORMATS, "--format", "svg"],
    "may_p3_n0": ["may", "--prime", "3", "--n", "0", "--stem-max", "40",
                  "--s-max", "6", *FORMATS, "--format", "svg"],
    "ko_ss_polynomial": ["ko-ss", "--variant", "polynomial", *FORMATS,
                         "--format", "svg"],
    "ko_ss_laurent": ["ko-ss", "--variant", "laurent", *FORMATS, "--format", "svg"],
}


def run(argv, out):
    return cli.main([*argv, *FORMATS, "--out", str(out)])


def written(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_match_golden_bytes(name, tmp_path):
    out = tmp_path / "out"
    assert cli.main([*GOLDEN[name], "--no-cache", "--out", str(out)]) == cli.EXIT_OK
    assert written(out) == written(GOLDEN_DIR / name)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fgl", "--n", "3", "--cap", "4"], "cannot see degree 8"),
        (["fgl", "--n", "3", "--cap", "8"], "need at least 9"),
        (["fgl", "--n", "0"], "height must be positive"),
        (["fgl", "--n", "40"], "over the limit 16392"),
        (["fgl", "--n", "15"], "over the limit 16392"),
        (["fgl", "--n", "2", "--cap", "100000"], "cap 100000 is over the limit 16392"),
        (["fgl", "--n", "14", "--cap", "16393"], "cap 16393 is over the limit 16392"),
    ],
)
def test_bad_fgl_flags_exit_2(argv, message, tmp_path, capsys):
    start = time.perf_counter()
    assert run([*argv, "--no-cache"], tmp_path / "out") == cli.EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ext", "--prime", "4"], "4 is not prime"),
        (["may", "--prime", "1"], "1 is not prime"),
        # past float range: the gate must not convert p to a float
        (["ext", "--prime", str(10**400 + 1)], "0001 is not prime"),
        # passes every Miller-Rabin base the gate uses, so it cannot decide
        (["ext", "--prime", "3317044064679887385961981"], "too large for the primality gate"),
    ],
)
def test_bad_prime_exits_2(argv, message, tmp_path, capsys):
    start = time.perf_counter()
    assert run([*argv, "--no-cache"], tmp_path / "out") == cli.EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, need",
    [
        (["ext", "--prime", "2", "--family", "T", "--n", "0", "--stem-max", "500",
          "--s-max", "7"], "18075306175645 operator pairs"),
        (["ext", "--prime", "3", "--family", "T", "--n", "0", "--stem-max", "200",
          "--s-max", "4"], "2790811 operator pairs"),
    ],
)
def test_oversized_ext_exits_2(argv, need, tmp_path, capsys):
    start = time.perf_counter()
    assert run([*argv, "--no-cache"], tmp_path / "out") == cli.EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert need in err and "over the limit 200000" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "window",
    [["--prime", "3", "--stem-max", "20", "--s-max", "5"],
     ["--prime", "2", "--stem-max", "16", "--s-max", "6"],
     ["--prime", "3", "--stem-max", "20", "--s-max", "4"],
     ["--prime", "2", "--stem-max", "10", "--s-max", "6"],
     # refused by the cobar engine's size model
     ["--prime", "3", "--stem-max", "24", "--s-max", "5"],
     ["--prime", "2", "--stem-max", "20", "--s-max", "8"],
     ["--prime", "2", "--n", "2", "--stem-max", "16", "--s-max", "5"],
     # the resolution's targets
     ["--prime", "2", "--stem-max", "40", "--s-max", "20"],
     ["--prime", "2", "--n", "2", "--stem-max", "40", "--s-max", "10"],
     ["--prime", "3", "--stem-max", "60", "--s-max", "10"],
     # the T(0) window that took 37 s with an eager product table
     ["--family", "T", "--n", "0", "--stem-max", "40", "--s-max", "8"]],
)
def test_ext_limit_admits_measured_windows(window):
    args = cli.parse_args(["ext", "--family", "A", "--n", "1", *window])
    assert cli._config_from_args(args)[0]["family"] == args.family


@pytest.mark.parametrize("n, s_max", [("1", "20"), ("2", "10")], ids=["A(1)", "A(2)"])
def test_resolution_targets_run_in_seconds(n, s_max, tmp_path):
    argv = ["ext", "--prime", "2", "--family", "A", "--n", n, "--stem-max", "40",
            "--s-max", s_max, "--no-cache"]
    start = time.perf_counter()
    assert run(argv, tmp_path / "out") == cli.EXIT_OK
    assert time.perf_counter() - start < 2.0
    assert (tmp_path / "out" / f"ext_a{n}_p2.tsv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["may", "--n", "3", "--stem-max", "200", "--s-max", "40"],
         "the E1 page has 1575123 cells and monomials, over the limit 60000"),
        (["may", "--stem-max", "100000", "--s-max", "40"],
         "the E1 window has 4100041 cells, over the limit 60000"),
        (["ko-ss", "--window", "-2000", "2000", "-1000", "1000"],
         "the window has 8006001 cells, over the limit 250000"),
    ],
)
def test_oversized_may_and_ko_ss_exit_2(argv, message, tmp_path, capsys):
    start = time.perf_counter()
    assert run([*argv, "--no-cache"], tmp_path / "out") == cli.EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("prime", ["2", "3"])
def test_may_at_a_huge_height_matches_a_low_one(prime, tmp_path):
    # T(100000) and T(64) allow the same letters through stem 3, and the
    # may job must not pay for the height past them
    dims = {}
    for n in ("64", "100000"):
        argv = ["may", "--prime", prime, "--n", n, "--stem-max", "3", "--s-max", "2",
                "--format", "json", "--no-cache", "--out", str(tmp_path / n)]
        assert cli.main(argv) == cli.EXIT_OK
        dims[n] = [json.loads((tmp_path / n / f"may_n{n}_p{prime}_e{r}.json").read_text())["dims"]
                   for r in (1, 2)]
    assert dims["100000"] == dims["64"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ext", "--stem-max", "100000", "--s-max", "2"],
         "the Ext window has 300009 cells, over the limit 4096"),
        (["ext", "--stem-max", "1", "--s-max", "100000"],
         "the Ext window has 10000300002 cells, over the limit 4096"),
        (["defect", "--cap", "1000000000"], "stem cap 1000000000 is over the limit 1000"),
    ],
)
def test_oversized_ext_window_and_defect_cap_exit_2(argv, message, tmp_path, capsys):
    start = time.perf_counter()
    assert run([*argv, "--no-cache"], tmp_path / "out") == cli.EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["ext", "--family", family, "--n", "100000", "--stem-max", "1", "--s-max", "1"]
        for family in ("A", "E", "T")
    ]
    + [
        ["ext", "--prime", "3", "--family", "A", "--n", "100000", "--stem-max", "1",
         "--s-max", "1"],
        ["ext", "--family", "P", "--n", "3000"],
    ],
)
def test_huge_ext_height_exits_2(argv, tmp_path, capsys):
    start = time.perf_counter()
    assert run([*argv, "--no-cache"], tmp_path / "out") == cli.EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    assert "is over the limit 64" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("level", ["1000000", "9" * 5000], ids=["million", "5000_digits"])
def test_huge_margolis_level_exits_2(level, tmp_path, capsys):
    argv = ["margolis", "--input", str(INPUTS / "rp4.json"), "--subalgebra", f"A({level})",
            "--no-cache"]
    start = time.perf_counter()
    assert run(argv, tmp_path / "out") == cli.EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    assert f"subalgebra level {level} is over the limit 64" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "prime, op",
    [(2, f"P(1,{10**11})"), (2, f"P({10**11},0)"), (3, f"Q({10**11})")],
    ids=["p2_power", "p2_column", "p3_q"],
)
def test_huge_operator_index_exits_2(prime, op, tmp_path, capsys):
    # the operator's degree would be p to that index: refused unbuilt
    module = {"prime": prime, "basis": [{"name": "x", "degree": 0}], "operators": [op]}
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module))
    argv = ["margolis", "--input", str(path), "--subalgebra", "A(1)", "--no-cache"]
    start = time.perf_counter()
    assert run(argv, tmp_path / "out") == cli.EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    assert "has an index over the limit 65" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_ext_jobs_eliminate_each_matrix_once(tmp_path, monkeypatch):
    # each resolution step eliminates one matrix, once, through
    # subquotient, and names are read off the differentials with no
    # elimination of their own
    eliminated = []
    for name in ("gf2_eliminate", "fp_eliminate"):
        def traced(*args, _eliminate=getattr(modp, name)):
            # holding the rows keeps their ids unique across columns
            eliminated.append(next(a for a in args if isinstance(a, list)))
            return _eliminate(*args)

        monkeypatch.setattr(modp, name, traced)
    steps = []

    def traced_subquotient(*args):
        steps.append(args)
        return modp.subquotient(*args)

    monkeypatch.setattr(ext, "subquotient", traced_subquotient)
    for name in ("ext_a1_p2", "ext_a1_p3"):
        out = tmp_path / name
        assert cli.main([*GOLDEN[name], "--no-cache", "--out", str(out)]) == cli.EXIT_OK
        assert written(out) == written(GOLDEN_DIR / name)
    ids = [id(rows) for rows in eliminated]
    assert eliminated and len(set(ids)) == len(ids)
    assert len(steps) == len(eliminated)


@pytest.mark.parametrize("height", [1, 2], ids=["ko", "tmf"])
def test_non_exterior_scan_family_exits_3(height, tmp_path, capsys, monkeypatch):
    exterior = Profile.E
    monkeypatch.setattr(
        Profile, "E", lambda p, n: Profile.A(2, 1) if n == height else exterior(p, n)
    )
    assert run(["defect", "--cap", "8", "--no-cache"], tmp_path / "out") == cli.EXIT_COMPUTE
    assert "compute error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_defect_limit_admits_the_benchmark_cap():
    args = cli.parse_args(["defect", "--cap", "24"])
    assert cli._config_from_args(args)[0]["stem_cap"] == 24


def test_fgl_limit_admits_er12(tmp_path):
    # ER(12) at its default cap 4104, both bounds holding
    out = tmp_path / "out"
    assert cli.main(["fgl", "--n", "12", "--no-cache", "--out", str(out)]) == cli.EXIT_OK
    report = json.loads((out / "fgl_er12.json").read_bytes())
    assert report["cap"] == 4104 and report["inverse_deviation_degree"] == 4096
    assert report["upper_bound_ok"] and report["lower_bound_ok"]


def test_ext_limit_counts_products_through_the_stem():
    # T(0) through stem 40, s 10: 235,524 pairs in the box t <= 50, and
    # 90,339 through degree 42, the most the cut resolution can form
    args = cli.parse_args(["ext", "--prime", "2", "--family", "T", "--n", "0",
                           "--stem-max", "40", "--s-max", "10"])
    assert cli._config_from_args(args)[0]["stem_max"] == 40


def test_golden_argvs_pass_the_size_limits():
    for argv in GOLDEN.values():
        args = cli.parse_args(argv)
        params, _ = cli._config_from_args(args)
        assert set(params["formats"]) <= set(cli.SUBCOMMANDS[args.subcommand].formats)


@pytest.mark.parametrize("prime, stem_max, s_max", [("2", 12, 6), ("3", 30, 4)])
def test_ext_artifacts_stop_at_stem_max(prime, stem_max, s_max, tmp_path):
    # every kept cell is computed whole: a run two stems wider agrees on it
    def cells(stems, out):
        argv = ["ext", "--prime", prime, "--family", "T", "--n", "1",
                "--stem-max", str(stems), "--s-max", str(s_max), "--format", "svg"]
        assert run([*argv, "--no-cache"], out) == cli.EXIT_OK
        doc = json.loads((out / f"ext_t1_p{prime}.json").read_text())
        return {(c["s"], c["stem"]): c["dim"] for c in doc["cells"]}, out

    got, out = cells(stem_max, tmp_path / "narrow")
    wider, _ = cells(stem_max + 2, tmp_path / "wide")
    assert max(stem for _, stem in got) <= stem_max
    assert got == {k: d for k, d in wider.items() if k[1] <= stem_max}
    tsv = (out / f"ext_t1_p{prime}.tsv").read_text().splitlines()
    assert tsv[1].endswith(f", stem <= {stem_max}")
    assert all(int(row.split("\t")[2]) <= stem_max for row in tsv[3:])
    chart = (out / f"ext_t1_p{prime}_chart.tsv").read_text()
    assert all(int(row.split("\t")[2]) <= stem_max
               for row in chart.splitlines() if row.startswith("dot"))


def test_fgl_cap_limit_admits_er9_default():
    args = cli.parse_args(["fgl", "--n", "9"])
    assert cli._config_from_args(args)[0]["cap"] == 2**9 + 8


@pytest.mark.parametrize(
    "module, subalgebra, message",
    [
        ("empty.json", "A(1)", "malformed module data"),
        ("rp4.json", "B(1)", "unrecognized subalgebra"),
        ("rp4.json", "A(2)", "module does not declare"),
    ],
)
def test_bad_margolis_input_exits_2(module, subalgebra, message, tmp_path, capsys):
    argv = ["margolis", "--input", str(INPUTS / module), "--subalgebra", subalgebra,
            "--no-cache"]
    assert run(argv, tmp_path / "out") == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_deeply_nested_margolis_input_exits_2(tmp_path, capsys):
    # the decoder runs out of recursion on 5,000 nested arrays; that is
    # an unreadable file, not an engine crash
    path = tmp_path / "module.json"
    path.write_text('{"prime": 2, "basis": ' + "[" * 5000 + "]" * 5000 + "}")
    argv = ["margolis", "--input", str(path), "--subalgebra", "A(1)", "--no-cache"]
    assert run(argv, tmp_path / "out") == cli.EXIT_USAGE
    assert f"error: unreadable input {path}: maximum recursion depth" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("prime", [4, 9])
def test_composite_margolis_prime_exits_2(prime, tmp_path, capsys):
    # a verdict over Z/4 or Z/9 is no freeness verdict: nothing is written
    d = 2 * (prime - 1)
    module = {"prime": prime,
              "basis": [{"name": "x0", "degree": 0}, {"name": f"x{d}", "degree": d}],
              "operators": ["Q(0)"],
              "actions": [{"operator": "P(1,0)", "on": "x0",
                           "terms": [{"coef": 2, "to": f"x{d}"}]}]}
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module))
    argv = ["margolis", "--input", str(path), "--subalgebra", "P(0)"]
    assert run(argv, tmp_path / "out") == cli.EXIT_USAGE
    assert f"error: {prime} is not prime" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_repeated_margolis_action_exits_2(tmp_path, capsys):
    # a second row for one (operator, on) pair would silently replace
    # the first and change the verdict
    module = json.loads((INPUTS / "rp4.json").read_text())
    module["actions"].append(module["actions"][0])
    row = module["actions"][0]
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module))
    argv = ["margolis", "--input", str(path), "--subalgebra", "A(1)", "--no-cache"]
    assert run(argv, tmp_path / "out") == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: action of {row['operator']} on {row['on']} is declared twice" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: m.update(prime=2.9), "prime must be a JSON integer, got 2.9"),
        (lambda m: m.update(prime=True), "prime must be a JSON integer, got True"),
        (lambda m: m["basis"][1].update(degree=2.5), "degree must be a JSON integer, got 2.5"),
        (lambda m: m["actions"][0]["terms"][0].update(coef=1.5),
         "coef must be a JSON integer, got 1.5"),
        (lambda m: m.update(even_only="no"), "even_only must be a JSON boolean, got 'no'"),
        (lambda m: m.update(even_only=0), "even_only must be a JSON boolean, got 0"),
    ],
    ids=["prime-float", "prime-bool", "degree-float", "coef-float", "even-string", "even-int"],
)
def test_malformed_margolis_numbers_exit_2(edit, message, tmp_path, capsys):
    # int() and bool() would read these as another module than the file holds
    module = json.loads((INPUTS / "rp4.json").read_text())
    edit(module)
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module))
    argv = ["margolis", "--input", str(path), "--subalgebra", "A(1)", "--no-cache"]
    assert run(argv, tmp_path / "out") == cli.EXIT_USAGE
    assert f"error: malformed module data: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_margolis_engine_failure_exits_3(tmp_path, capsys, monkeypatch):
    def refuse(module, op):
        raise ValueError("homology refused to certify")

    monkeypatch.setattr(margolis, "margolis_homology", refuse)
    argv = ["margolis", "--input", str(INPUTS / "rp4.json"), "--subalgebra", "A(1)",
            "--no-cache"]
    assert run(argv, tmp_path / "out") == cli.EXIT_COMPUTE
    assert "compute error: homology refused to certify" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_removed_workers_flag_is_rejected(tmp_path):
    argv = ["fgl", "--n", "1", "--workers", "2", "--no-cache"]
    assert run(argv, tmp_path / "out") == cli.EXIT_USAGE
    assert not (tmp_path / "out").exists()


def test_smallest_fgl_cap_runs(tmp_path):
    out = tmp_path / "out"
    assert run(["fgl", "--n", "3", "--cap", "9", "--no-cache"], out) == cli.EXIT_OK
    assert json.loads((out / "fgl_er3.json").read_text())["cap"] == 9


def test_default_cap_spelled_out_writes_the_same_bytes(tmp_path):
    # --cap 16 is ER(3)'s default 2^3 + 8, which fgl_params resolves: one job
    assert run(["fgl", "--n", "3", "--cap", "16"], tmp_path / "out") == cli.EXIT_OK
    assert written(tmp_path / "out") == written(GOLDEN_DIR / "fgl_n3")


def test_format_order_and_repeats_write_the_same_bytes(tmp_path):
    # the same formats in another order, one of them repeated: one job
    first = ["fgl", "--n", "2", "--format", "json", "--format", "tsv"]
    again = ["fgl", "--n", "2", "--format", "tsv", "--format", "json", "--format", "tsv"]
    assert (cli._config_from_args(cli.parse_args(first))
            == cli._config_from_args(cli.parse_args(again)))
    assert cli.main([*first, "--out", str(tmp_path / "a")]) == cli.EXIT_OK
    assert cli.main([*again, "--out", str(tmp_path / "b")]) == cli.EXIT_OK
    assert written(tmp_path / "b") == written(tmp_path / "a") == written(GOLDEN_DIR / "fgl_n2")


def test_a_run_writes_only_its_artifacts(tmp_path):
    # the default path, without --no-cache, in a fresh interpreter: the
    # artifacts land in --out and nowhere else, with nothing on stderr,
    # and --no-cache changes no byte
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
           "HOME": str(tmp_path / "home"), "CHROMADEFECT_CACHE": str(tmp_path / "cache")}
    (tmp_path / "home").mkdir()
    (tmp_path / "cache").mkdir()
    runs = {}
    for name, switch in (("default", []), ("no-cache", ["--no-cache"])):
        (tmp_path / name).mkdir()
        runs[name] = subprocess.run(
            [sys.executable, "-m", "chromadefect.cli", "fgl", "--n", "1", *switch, "--out", "out"],
            cwd=tmp_path / name, env=env, capture_output=True, timeout=120,
        )
        assert runs[name].returncode == cli.EXIT_OK
        assert runs[name].stderr == b""
    made = sorted(path.relative_to(tmp_path).as_posix() for path in tmp_path.rglob("*"))
    assert made == ["cache", "default", "default/out", "default/out/fgl_er1.json", "home",
                    "no-cache", "no-cache/out", "no-cache/out/fgl_er1.json"]
    assert runs["default"].stdout == runs["no-cache"].stdout == b"wrote out/fgl_er1.json\n"
    assert written(tmp_path / "default" / "out") == written(tmp_path / "no-cache" / "out")


@pytest.mark.parametrize("out, shown, lands", [
    (".", "", ""),
    ("", "", ""),
    ("./x", "x/", "x"),
    ("a//b/", "a/b/", "a/b"),
    ("x/../y", "x/../y/", "y"),
    ("ABS//abs/", "ABS/abs/", "abs"),
    # POSIX keeps exactly two leading slashes, and pathlib with it
    ("/ABS/two", "/ABS/two/", "two"),
    ("//ABS/three", "ABS/three/", "three"),
], ids=["dot", "empty", "dot-slash", "doubled-and-trailing-slash", "dot-dot", "absolute",
        "two-leading-slashes", "three-leading-slashes"])
def test_wrote_lines_name_the_out_dir_as_pathlib_does(out, shown, lands, tmp_path, capsys,
                                                      monkeypatch):
    # one `wrote` line per artifact, its directory spelled as
    # str(pathlib.Path(--out)) spells it; the files land in that directory
    monkeypatch.chdir(tmp_path)
    out, shown = (s.replace("ABS", str(tmp_path)) for s in (out, shown))
    assert run(["fgl", "--n", "1", "--no-cache"], out) == cli.EXIT_OK
    assert capsys.readouterr().out == f"wrote {shown}fgl_er1.json\nwrote {shown}fgl_er1.tsv\n"
    assert written(tmp_path / lands if lands else tmp_path) == written(GOLDEN_DIR / "fgl_n1")
    if out == "x/../y":
        assert list((tmp_path / "x").iterdir()) == []


@pytest.mark.parametrize("where", [
    "file", "below-a-file", "artifact-is-a-directory", "later-artifact-is-a-directory",
])
def test_unwritable_out_exits_2(where, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    if where.endswith("artifact-is-a-directory"):
        # artifacts are written in name order: fgl_er1.json, then fgl_er1.tsv
        taken = "fgl_er1.tsv" if where.startswith("later") else "fgl_er1.json"
        (blocker / taken).mkdir(parents=True)
        out = blocker
    else:
        blocker.write_text("kept")
        out = blocker if where == "file" else blocker / "out"
    assert run(["fgl", "--n", "1", "--no-cache"], out) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write to --out {out}: ")
    if where.endswith("artifact-is-a-directory"):
        # no artifact and no temporary file is left beside the directory
        assert [path.name for path in blocker.iterdir()] == [taken]
    else:
        assert blocker.read_text() == "kept"


def faulty_open(fails):
    """open for cli's writer, raising ENOSPC once the file is made on
    each path that fails(path) accepts, as a full disk would."""
    def call(path, mode):
        file = open(path, mode)
        if fails(path):
            file.close()
            raise OSError(errno.ENOSPC, "No space left on device")
        return file

    return call


@pytest.mark.parametrize("fault", [("open", 1), ("open", 2), ("replace", 1)],
                         ids=["first-write", "second-write", "first-rename"])
def test_failed_write_leaves_nothing(fault, tmp_path, capsys, monkeypatch):
    # faults at the writer's own primitives; the temporaries are
    # written, then renamed, in name order
    calls = []

    def nth(primitive):
        calls.append(primitive)
        return (primitive, calls.count(primitive)) == fault

    replace = os.replace

    def faulty_replace(src, dst):
        if nth("replace"):
            raise OSError(errno.ENOSPC, "No space left on device")
        return replace(src, dst)

    monkeypatch.setattr(cli, "open", faulty_open(lambda path: nth("open")), raising=False)
    monkeypatch.setattr(cli.os, "replace", faulty_replace)
    out = tmp_path / "out"
    assert run(["fgl", "--n", "1", "--no-cache"], out) == cli.EXIT_USAGE
    assert calls.count(fault[0]) == fault[1]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write to --out {out}: ")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["fgl", "--n", "1", *FORMATS, "--no-cache", "--out", "out"],
                                  ["--help"]],
                         ids=["job", "help"])
def test_closed_stdout_exits_0(argv, unbuffered, tmp_path):
    # a reader that quits before the first line, as `| head -0` does:
    # no traceback, exit 0, and the artifacts stand
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "chromadefect.cli", *argv], cwd=tmp_path,
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == cli.EXIT_OK
    assert err == b""
    if argv[0] == "fgl":
        assert written(tmp_path / "out") == written(GOLDEN_DIR / "fgl_n1")
