"""Benchmark of the chromadefect CLI: fixed jobs, end-to-end and layer metrics.

    python3 benchmark/run.py --workload ext-a1-p2 --seed 0 --seconds 25 --trace 0
    python3 benchmark/run.py --all [--seconds 25] [--trace 0|1] [--tiny]

A run is a closed loop with one client: it runs the workload's CLI job
in a fresh child process, waits for it, checks its outputs, and starts
the next one until `--seconds` have passed.  Only this process and one
child are alive at a time.  Jobs get `--no-cache` and an empty
`CHROMADEFECT_CACHE`, and never `--workers`.  The job's inputs are
fixed parameters; the seed is recorded and changes nothing.

Before the first job and after each one, a calibration child imports
the package (a `setup_s` sample) and times a fixed loop
(child.calibrate).  `--trace 0` reports the end-to-end metrics `job_s`
and `setup_s`, the medians of each time divided by its calibration (for
a job, the mean of the two around it) and multiplied by
CALIBRATION_REF_S, and the median `peak_rss_mb`; README.md says why
times are rescaled.  The environment line records the raw wall medians.
`--trace 1` runs the job once untraced and once with the layers wrapped
from outside (layers.py) and reports the per-layer metrics plus
`trace_overhead_s` (raw wall seconds).  The last stdout line is the
result object; the line before it records the run environment.  `--all`
runs every workload, prints each metric with its unit, and rewrites
BENCHMARK.json from `spec()`.  Scratch files live under `.bench_tmp/`
and span dumps under `.bench_out/`, both in the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import BY_NAME, WORKLOADS  # noqa: E402

RUN_SECONDS = 25
# child.calibrate() seconds on a quiet reference host: job_s and setup_s
# read in that host's seconds, whatever the current host speed
CALIBRATION_REF_S = 0.12
RUN_BUDGET_S = 170  # a run, with its last job, ends within this
END_TO_END = (
    # name, unit, better, bound
    ("job_s", "s", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)
PER_LAYER = (
    # name, unit, better, layer (layers.TARGETS key), stat
    ("ext.words.count", "count", "lower", "ext.words", "count"),
    ("ext.words.s", "s", "lower", "ext.words", "s"),
    ("ext.differential_matrix.s", "s", "lower", "ext.differential_matrix", "s"),
    ("ext.differential_matrix.nnz", "count", "lower", "ext.differential_matrix", "nnz"),
    ("steenrod.reduced_coproduct.calls", "count", "lower", "steenrod.reduced_coproduct", "calls"),
    ("steenrod.reduced_coproduct.s", "s", "lower", "steenrod.reduced_coproduct", "s"),
    ("steenrod.positive_basis.s", "s", "lower", "steenrod.positive_basis", "s"),
    ("ext.ext_ranks.s", "s", "lower", "ext.ext_ranks", "s"),
    ("ext.cell_basis.s", "s", "lower", "ext.cell_basis", "s"),
    ("ext.evenness_scan.s", "s", "lower", "ext.evenness_scan", "s"),
    ("gradedlin.rank.calls", "count", "lower", "gradedlin.rank", "calls"),
    ("gradedlin.rank.s", "s", "lower", "gradedlin.rank", "s"),
    ("gradedlin.rank.entries", "count", "lower", "gradedlin.rank", "entries"),
    ("gradedlin.rank.yield", "ratio", "higher", "gradedlin.rank", "yield"),
    ("gradedlin.kernel.s", "s", "lower", "gradedlin.kernel", "s"),
    ("gradedlin.subquotient.s", "s", "lower", "gradedlin.subquotient", "s"),
    ("gradedlin.snf.calls", "count", "lower", "gradedlin.snf", "calls"),
    ("gradedlin.snf.s", "s", "lower", "gradedlin.snf", "s"),
    ("ssq.build_e1.s", "s", "lower", "ssq.build_e1", "s"),
    ("ssq.turn_page.s", "s", "lower", "ssq.turn_page", "s"),
    ("fgl.honda_fgl.s", "s", "lower", "fgl.honda_fgl", "s"),
    ("fgl.compositional_inverse.s", "s", "lower", "fgl.compositional_inverse", "s"),
    ("fgl.substitute.calls", "count", "lower", "fgl.substitute", "calls"),
    ("fgl.substitute.s", "s", "lower", "fgl.substitute", "s"),
    ("fgl.formal_inverse.s", "s", "lower", "fgl.formal_inverse", "s"),
    ("fgl.m_series.s", "s", "lower", "fgl.m_series", "s"),
    ("defect.verdict_ko.s", "s", "lower", "defect.verdict_ko", "s"),
    ("defect.verdict_tmf.s", "s", "lower", "defect.verdict_tmf", "s"),
    ("defect.verdict_er.s", "s", "lower", "defect.verdict_er", "s"),
    ("charts.render_chart.s", "s", "lower", "charts.render_chart", "s"),
    ("charts.svg_bytes", "bytes", "lower", "charts.render_chart", "bytes"),
    ("cli.write_s", "s", "lower", "cli.write", "s"),
    ("cli.artifact_bytes", "bytes", "lower", "cli.write", "bytes"),
    ("trace_overhead_s", "s", "lower", None, None),
)


def spec():
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "benchmark/run.py"],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _, _ in PER_LAYER
        ],
    }


def git_sha():
    """HEAD of the checkout when it is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Runs child processes for one workload inside a scratch directory."""

    def __init__(self, workload, argv, scratch):
        self.workload = workload
        self.argv = list(argv)
        self.scratch = scratch
        self.started = time.monotonic()
        self.jobs = 0
        self.problems = []

    def _child(self, args, cache):
        """One child.py process; returns its record, or None if it failed."""
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        env["CHROMADEFECT_CACHE"] = str(cache)
        left = RUN_BUDGET_S - (time.monotonic() - self.started)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), *args],
                cwd=self.scratch, env=env, capture_output=True, text=True,
                timeout=max(left, 1),
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"child {args[:3]} timed out")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            self.problems.append(f"child exited {proc.returncode}: {tail[0]}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def calibration(self):
        return self._child(["--calibrate"], self.scratch / "cache-calibrate")

    def job(self, trace_path=None):
        """Run the CLI job once and check its outputs; returns the record."""
        k = self.jobs
        self.jobs += 1
        out = self.scratch / f"out{k}"
        cache = self.scratch / f"cache{k}"
        opts = ["--trace", str(trace_path)] if trace_path else []
        rec = self._child([*opts, "--", *self.argv, "--no-cache", "--out", str(out)], cache)
        if rec is None:
            return None
        problems = []
        if rec["exit_code"] != 0:
            problems = [f"exit code {rec['exit_code']}"]
        else:
            try:
                problems = self.workload.check(out, self.argv)
            except Exception as exc:  # a malformed output fails the check
                problems = [f"output check raised {exc!r}"]
        rec["failed"] = bool(problems)
        self.problems.extend(f"job {k}: {p}" for p in problems)
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(cache, ignore_errors=True)
        print(f"job {k}: job_s={rec['job_s']:.3f} peak_rss_mb={rec['peak_rss_mb']:.1f}"
              f"{' FAILED' if problems else ''}", file=sys.stderr)
        return rec


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(workload, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (environment, result)."""
    argv = workload.tiny_argv if tiny else workload.argv
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_tmp") as tmp:
        runner = Runner(workload, argv, Path(tmp))
        runner.calibration()  # warm-up: bytecode and page cache, not counted
        records = []
        jobs = None
        if trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            plain = runner.job()
            traced = runner.job(out_dir / f"spans-{workload.name}-seed{seed}.json")
            records = [r for r in (plain, traced) if r is not None]
            metrics = {}
            if plain is not None and traced is not None:
                layers = traced["layers"]
                for name, unit, _, layer, stat in PER_LAYER:
                    if layer is None:
                        value = traced["job_s"] - plain["job_s"]
                    else:
                        value = layers.get(layer, {}).get(stat, 0)
                    metrics[name] = {"value": value, "unit": unit}
        else:
            # calibrations bracket every job: c0 job0 c1 job1 c2 ...
            calibrations = [runner.calibration()]
            jobs_run = []
            while True:
                jobs_run.append(runner.job())
                calibrations.append(runner.calibration())
                if time.monotonic() - runner.started >= seconds:
                    break
            records = [r for r in jobs_run if r is not None]
            cals = [c for c in calibrations if c is not None]
            ratios = [
                r["job_s"] / ((a["calib_s"] + b["calib_s"]) / 2)
                for r, a, b in zip(jobs_run, calibrations, calibrations[1:])
                if r is not None and a is not None and b is not None
            ]
            jobs = {
                "count": len(records),
                "median_job_s": _median([r["job_s"] for r in records]),
                "median_setup_s": _median([c["setup_s"] for c in cals]),
                "median_calib_s": _median([c["calib_s"] for c in cals]),
            }
            values = {
                "job_s": _median(ratios) * CALIBRATION_REF_S,
                "setup_s": _median([c["setup_s"] / c["calib_s"] for c in cals]) * CALIBRATION_REF_S,
                "peak_rss_mb": _median([r["peak_rss_mb"] for r in records]),
            }
            metrics = {
                name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END
            }
    failed = runner.jobs - sum(1 for r in records if not r["failed"])
    environment = {
        "workload": workload.name,
        "seed": seed,
        "argv": list(argv),
        "trace": trace,
        "backend": records[0]["backend"] if records else None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "fail_rate": failed / runner.jobs,
        "jobs": jobs,
    }
    for problem in runner.problems:
        print(problem, file=sys.stderr)
    result = {
        "correct": not runner.problems and bool(metrics),
        "attempted": runner.jobs,
        "failed": failed,
        "metrics": metrics,
    }
    return environment, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test job sizes; numbers are not comparable")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chromadefect" / "cli.py").is_file():
        print(f"error: no chromadefect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.all:
        for workload in WORKLOADS:
            environment, result = run_workload(workload, args.seed, args.seconds, args.trace, args.tiny)
            print(json.dumps({"environment": environment}))
            print(f"{workload.name}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("give --workload or --all")
    environment, result = run_workload(BY_NAME[args.workload], args.seed, args.seconds,
                                       args.trace, args.tiny)
    print(json.dumps({"environment": environment}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
