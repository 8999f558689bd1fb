"""Tests of the benchmark itself; kept out of tier-1.

    python3 -m pytest benchmark/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import BY_NAME, WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Real outputs of every workload at full size: {name: directory}."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    dirs = {}
    for w in WORKLOADS:
        out = tmp_path_factory.mktemp(w.name)
        env["CHROMADEFECT_CACHE"] = str(out / "cache")
        subprocess.run(
            [sys.executable, "-m", "chromadefect.cli", *w.argv, "--no-cache", "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        dirs[w.name] = out
    return dirs


def tampered(outputs, tmp_path, name):
    dst = tmp_path / name
    shutil.copytree(outputs[name], dst)
    return dst


def edit(path, old, new):
    text = path.read_text()
    assert old in text, f"{old!r} not in {path.name}"
    path.write_text(text.replace(old, new, 1))


@pytest.mark.parametrize("name", sorted(BY_NAME))
def test_checker_passes_on_real_outputs(outputs, name):
    w = BY_NAME[name]
    assert w.check(outputs[name], w.argv) == []


def test_ext_p2_rejects_changed_dim(outputs, tmp_path):
    out = tampered(outputs, tmp_path, "ext-a1-p2")
    edit(out / "ext_a1_p2.tsv", "4\t12\t8\t1", "4\t12\t8\t2")
    assert BY_NAME["ext-a1-p2"].check(out, BY_NAME["ext-a1-p2"].argv)


def test_ext_p2_rejects_h1_cubed(outputs, tmp_path):
    out = tampered(outputs, tmp_path, "ext-a1-p2")
    path = out / "ext_a1_p2.tsv"
    path.write_text(path.read_text() + "3\t6\t3\t1\t\n")
    problems = BY_NAME["ext-a1-p2"].check(out, BY_NAME["ext-a1-p2"].argv)
    assert any("h1^3" in p for p in problems)


def test_ext_p2_rejects_json_disagreeing_with_tsv(outputs, tmp_path):
    out = tampered(outputs, tmp_path, "ext-a1-p2")
    doc = json.loads((out / "ext_a1_p2.json").read_text())
    doc["cells"][0]["dim"] = 2
    (out / "ext_a1_p2.json").write_text(json.dumps(doc))
    assert BY_NAME["ext-a1-p2"].check(out, BY_NAME["ext-a1-p2"].argv)


def test_ext_p3_rejects_changed_dim(outputs, tmp_path):
    out = tampered(outputs, tmp_path, "ext-a1-p3")
    edit(out / "ext_a1_p3.tsv", "2\t9\t7\t1", "2\t9\t7\t2")
    assert BY_NAME["ext-a1-p3"].check(out, BY_NAME["ext-a1-p3"].argv)


def test_ext_checker_ignores_added_columns(outputs, tmp_path):
    out = tampered(outputs, tmp_path, "ext-a1-p3")
    path = out / "ext_a1_p3.tsv"
    lines = [
        line if line.startswith("#") else line + "\textra"
        for line in path.read_text().splitlines()
    ]
    path.write_text("\n".join(lines) + "\n")
    assert BY_NAME["ext-a1-p3"].check(out, BY_NAME["ext-a1-p3"].argv) == []


def test_fgl_rejects_wrong_deviation(outputs, tmp_path):
    out = tampered(outputs, tmp_path, "fgl-er4")
    path = out / "fgl_er4.json"
    report = json.loads(path.read_text())
    report["inverse_deviation_degree"] = 8
    path.write_text(json.dumps(report))
    assert BY_NAME["fgl-er4"].check(out, BY_NAME["fgl-er4"].argv)


def test_fgl_rejects_failed_bound(outputs, tmp_path):
    out = tampered(outputs, tmp_path, "fgl-er4")
    path = out / "fgl_er4.json"
    report = json.loads(path.read_text())
    report["lower_bound_ok"] = False
    path.write_text(json.dumps(report))
    assert BY_NAME["fgl-er4"].check(out, BY_NAME["fgl-er4"].argv)


@pytest.mark.parametrize("subject, field, value", [
    ("ER(2)", "phi", 2),
    ("ku", "phi", 2),
    ("ko", "status", "upper-bound-only"),
    ("tmf", "phi", 8),
])
def test_defect_rejects_changed_verdict(outputs, tmp_path, subject, field, value):
    out = tampered(outputs, tmp_path, "defect-cap24")
    path = out / "defect_table.json"
    verdicts = json.loads(path.read_text())
    next(v for v in verdicts if v["subject"] == subject)[field] = value
    path.write_text(json.dumps(verdicts))
    assert BY_NAME["defect-cap24"].check(out, BY_NAME["defect-cap24"].argv)


def test_defect_rejects_missing_subject(outputs, tmp_path):
    out = tampered(outputs, tmp_path, "defect-cap24")
    path = out / "defect_table.json"
    verdicts = [v for v in json.loads(path.read_text()) if v["subject"] != "j"]
    path.write_text(json.dumps(verdicts))
    assert BY_NAME["defect-cap24"].check(out, BY_NAME["defect-cap24"].argv)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmark/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", sorted(BY_NAME))
def test_tiny_run_completes(name):
    proc = run_bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    *_, env_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in run.spec()["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    environment = json.loads(env_line)["environment"]
    assert environment["workload"] == name and environment["seed"] == 3
    assert environment["backend"] in ("pure", "compiled")


def test_tiny_traced_run_reports_every_layer_metric():
    proc = run_bench("--workload", "ext-a1-p2", "--seed", "0", "--seconds", "0", "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["attempted"] == 2
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in run.spec()["per_layer"]}
    for name in ("ext.words.count", "ext.differential_matrix.s", "gradedlin.rank.calls",
                 "charts.svg_bytes", "cli.artifact_bytes"):
        assert metrics[name]["value"] > 0, name
    assert metrics["fgl.honda_fgl.s"]["value"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "fgl-er4", "--seed", "0", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == run.spec()
