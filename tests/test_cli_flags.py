"""The flag table against the argparse parser it replaced, and the real
entry point.

Every GOLDEN argv and every spelling below must give `cli.parse_args`
the namespace the argparse oracle gives; every refusal below must make
the oracle exit 2 and `cli.main` return 2 with nothing written.  The
entry point runs as `python -m chromadefect.cli` in a fresh interpreter,
so `main()` reads sys.argv itself, and its imports are listed by
`-X importtime`.  The import surface is read in a fresh interpreter as
the modules a job adds to those `site` had already loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chromadefect import cli

from oracles.cli_argparse import build_parser
from test_cli import GOLDEN

SPELLINGS = {
    "equals": ["ext", "--prime=3", "--family=A"],
    "prefix": ["ext", "--stem", "10", "--s-", "4", "--no", "--fam", "E"],
    "repeated": ["fgl", "--n", "1", "--n", "3", "--cap", "20", "--cap=30"],
    "formats": ["fgl", "--format", "json", "--format", "tsv", "--fo=json"],
    "negative-window": ["ko-ss", "--window", "-6", "10", "-2", "8"],
    "window-twice": ["ko-ss", "--window", "0", "1", "0", "1", "--window", "-1", "2", "-3", "4"],
    "negative-int": ["fgl", "--n", "-3", "--cap=-1"],
    "dash-values": ["margolis", "--input", "-", "--out", "- x", "--sub", "P(2)"],
    "dash-numbers": ["margolis", "--input", "-1.5", "--out", "-.5", "--sub", "-5"],
    "dash-unicode-digit": ["fgl", "--n", "-\u0663", "--out", "-\u0663"],
}
REFUSALS = {
    "workers": ["fgl", "--n", "1", "--workers", "2"],
    "not-an-int": ["ext", "--prime", "x"],
    "family": ["ext", "--family", "Q"],
    "format": ["fgl", "--format", "pdf"],
    "missing-value": ["fgl", "--n"],
    "short-window": ["ko-ss", "--window", "1", "2", "3"],
    "switch-with-value": ["fgl", "--no-cache=yes"],
    "margolis-without-input": ["margolis"],
    "no-subcommand": [],
    "unknown-subcommand": ["frobnicate", "--n", "1"],
    "ambiguous-prefix": ["ext", "--s", "3"],
    "stray-word": ["defect", "24"],
    "dash-word": ["fgl", "--out", "-x"],
    "dash-trailing-dot": ["fgl", "--out", "-1."],
}


@pytest.mark.parametrize(
    "argv",
    [pytest.param(argv, id=name) for name, argv in {**GOLDEN, **SPELLINGS}.items()],
)
def test_same_namespace_as_argparse(argv):
    assert vars(cli.parse_args(argv)) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [pytest.param(v, id=k) for k, v in REFUSALS.items()])
def test_refused_like_argparse(argv, tmp_path, capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    capsys.readouterr()
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def entry(tmp_path, *argv, via=("-X", "importtime", "-m", "chromadefect.cli")):
    """`python -X importtime -m chromadefect.cli argv` in tmp_path, or
    `python <via> argv`."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
           cli.CACHE_ENV: str(tmp_path / "cache")}
    return subprocess.run(
        [sys.executable, *via, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )


def test_entry_point(tmp_path):
    done = entry(tmp_path, "fgl", "--n", "1", "--no-cache", "--out", "out")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["wrote", "out/fgl_er1.json"]
    imported = {line.split("|")[-1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    assert "chromadefect.fgl" in imported
    assert not {"argparse", "gettext", "locale"} & imported

    done = entry(tmp_path, "fgl", "--n", "0", "--no-cache", "--out", "refused")
    assert done.returncode == 2 and done.stdout == ""
    assert "error: height must be positive" in done.stderr
    assert not (tmp_path / "refused").exists()

    done = entry(tmp_path, "--help")
    assert done.returncode == 0
    assert all(name in done.stdout for name in cli.SUBCOMMANDS)
    assert "Exit codes: 0 done (or help), 2 bad input" in done.stdout
    assert "3 an engine refused to certify" in done.stdout
    assert f"${cli.CACHE_ENV}" in done.stdout and "--no-cache" in done.stdout
    # a subcommand's help names its own formats and default
    assert "--format {tsv,json}  output format; repeatable (default: json)" in cli._help("fgl")
    done = entry(tmp_path, "ext", "--help")
    assert done.returncode == 0
    flags = {**cli.SUBCOMMANDS["ext"].flags, **cli.COMMON_FLAGS}
    assert all(flag in done.stdout for flag in flags)


# the exit code of importing chromadefect.cli and running main(argv),
# the modules that adds to those loaded when the script starts (by
# site, say), and every module loaded at the end
IMPORTS_OF = """
import json, sys
before = set(sys.modules)
from chromadefect import cli
code = cli.main(sys.argv[1:]) if sys.argv[1:] else None
print(json.dumps([code, sorted(set(sys.modules) - before), sorted(sys.modules)]))
"""
LAZY = {
    "chromadefect.may",
    "chromadefect.margolis",
    "chromadefect.ssq",
    "chromadefect.gradedlin.integers",
    "hashlib",
    "base64",
    "fractions",
    "decimal",
    "_decimal",
    "numbers",
}
# compiled on import, so that no job pays for them
EAGER = {"chromadefect.ext", "chromadefect.fgl", "chromadefect.defect"}
RP4 = str(Path(__file__).parent / "golden" / "inputs" / "rp4.json")


@pytest.mark.parametrize("argv, loads", [
    pytest.param([], set(), id="import"),
    pytest.param(["fgl", "--n", "1", "--no-cache"], set(), id="fgl"),
    pytest.param(["ext", "--stem-max", "4", "--s-max", "2", "--no-cache"], set(), id="ext"),
    pytest.param(["defect", "--cap", "8", "--no-cache"], set(), id="defect"),
    pytest.param(["ko-ss", "--window", "0", "4", "0", "4", "--no-cache"],
                 {"chromadefect.ssq", "chromadefect.gradedlin.integers"}, id="ko-ss"),
    pytest.param(["fgl", "--n", "1"], {"hashlib", "base64"}, id="fgl-cached"),
    pytest.param(["may", "--stem-max", "4", "--s-max", "2", "--no-cache"],
                 {"chromadefect.may"}, id="may"),
    pytest.param(["margolis", "--input", RP4, "--no-cache"],
                 {"chromadefect.margolis"}, id="margolis"),
])
def test_jobs_import_only_their_engines(argv, loads, tmp_path):
    out = ["--out", "out"] if argv else []
    done = entry(tmp_path, *argv, *out, via=("-c", IMPORTS_OF))
    assert done.returncode == 0, done.stderr
    code, added, loaded = json.loads(done.stdout.splitlines()[-1])
    assert code in (None, cli.EXIT_OK), done.stderr
    assert not (LAZY - loads) & set(added)
    assert loads <= set(loaded)
    assert EAGER <= set(added)
