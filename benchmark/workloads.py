"""The benchmark's fixed CLI jobs and the checks that read their outputs.

Each workload is one `chromadefect` command line.  Its inputs are fixed
mathematical parameters, so every seed runs the same job.  A check reads
the values in the job's TSV/JSON files rather than hashing their bytes:
added columns or renamed classes still pass, wrong numbers fail.  A
check returns a list of problems; an empty list means the outputs are
correct.
"""

import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Callable

# nonzero Ext^{s,t} dims (s, t) -> dim, recorded from the initial engine
# import over the full workload windows
EXT_A1_P2 = {
    (0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1, (4, 4): 1, (5, 5): 1,
    (6, 6): 1, (1, 2): 1, (2, 4): 1, (3, 7): 1, (4, 8): 1, (5, 9): 1,
    (6, 10): 1, (4, 12): 1, (5, 13): 1, (6, 14): 1, (5, 14): 1, (6, 16): 1,
}
EXT_A1_P3 = {
    (0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1, (4, 4): 1, (1, 4): 1,
    (2, 9): 1, (2, 12): 1, (3, 13): 1, (3, 15): 1, (4, 16): 1, (3, 16): 1,
    (4, 19): 1, (4, 21): 1, (4, 24): 1,
}
# every subject of the defect catalogue; later catalogues may add more
DEFECT_SUBJECTS = (
    "ku", "ko", "tmf", "ER(1)", "ER(2)", "ER(3)",
    "EO_1(C_2) at p=2", "EO_2(C_2) at p=2", "EO_2(C_3) at p=3",
    "EO_4(C_3) at p=3", "EO_4(C_5) at p=5", "EO_2(C_4) at p=2",
    "EO_6(C_9) at p=3", "finite spectra (nontrivial)", "j",
)


def flag(argv, name):
    """Integer value of `name` in a CLI argv."""
    return int(argv[argv.index(name) + 1])


def _read_ext_tsv(path):
    """{(s, t): dim} from an ext chart TSV, located by its header row."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split("\t")
    s_col, t_col, dim_col = (header.index(c) for c in ("s", "t", "dim"))
    cells = {}
    for line in lines[1:]:
        row = line.split("\t")
        dim = int(row[dim_col])
        if dim:
            cells[(int(row[s_col]), int(row[t_col]))] = dim
    return cells


def _compare_cells(got, expected, s_max, t_max):
    """Problems where `got` differs from `expected` inside the window."""
    want = {(s, t): d for (s, t), d in expected.items() if s <= s_max and t <= t_max}
    problems = []
    for cell in sorted(set(got) | set(want)):
        if got.get(cell, 0) != want.get(cell, 0):
            problems.append(
                f"Ext^{cell} has dim {got.get(cell, 0)}, expected {want.get(cell, 0)}"
            )
    return problems


def _check_ext(out, argv, expected):
    """(problems, cells) for an ext job's TSV, and its JSON and SVG if made."""
    family = argv[argv.index("--family") + 1].lower()
    p, n = flag(argv, "--prime"), flag(argv, "--n")
    s_max = flag(argv, "--s-max")
    t_max = flag(argv, "--stem-max") + s_max
    base = out / f"ext_{family}{n}_p{p}"
    cells = _read_ext_tsv(base.with_suffix(".tsv"))
    problems = _compare_cells(cells, expected, s_max, t_max)
    if "json" in argv:
        doc = json.loads(base.with_suffix(".json").read_text())
        from_json = {(c["s"], c["t"]): c["dim"] for c in doc["cells"] if c["dim"]}
        if from_json != cells:
            problems.append("JSON cells disagree with the TSV cells")
    if "svg" in argv:
        root = ET.parse(base.with_suffix(".svg")).getroot()
        if root.tag != "{http://www.w3.org/2000/svg}svg":
            problems.append(f"SVG root element is {root.tag}")
    return problems, cells


def check_ext_a1_p2(out, argv):
    problems, cells = _check_ext(out, argv, EXT_A1_P2)
    # independent of the recorded table: the known Ext_{A(1)} classes.
    # h1^3 = 0 over A(1), so (3, 6) must stay empty.
    s_max = flag(argv, "--s-max")
    known = {(k, k): f"h0^{k}" for k in range(s_max + 1)}
    known.update({(1, 2): "h1", (2, 4): "h1^2", (3, 7): "the stem-4 class"})
    for cell, name in known.items():
        if cell[0] <= s_max and cells.get(cell) != 1:
            problems.append(f"{name} missing at (s, t) = {cell}")
    if s_max >= 3 and (3, 6) in cells:
        problems.append("h1^3 is nonzero at (s, t) = (3, 6)")
    return problems


def check_ext_a1_p3(out, argv):
    return _check_ext(out, argv, EXT_A1_P3)[0]


def check_fgl(out, argv):
    n = flag(argv, "--n")
    base = out / f"fgl_er{n}"
    report = json.loads(base.with_suffix(".json").read_text())
    problems = []
    for key in ("upper_bound_ok", "lower_bound_ok"):
        if report.get(key) is not True:
            problems.append(f"{key} is {report.get(key)!r}")
    for h in range(1, n + 1):
        got = report["doubling_degrees"].get(str(h))
        if got != 2**h:
            problems.append(f"doubling degree at height {h} is {got}, expected {2**h}")
    if report.get("inverse_deviation_degree") != 2**n:
        problems.append(
            f"inverse deviates in degree {report.get('inverse_deviation_degree')}, "
            f"expected {2**n}"
        )
    rows = base.with_suffix(".tsv").read_text().splitlines()
    header = rows[0].split("\t")
    h_col, d_col = header.index("height"), header.index("doubling-degree")
    from_tsv = {r.split("\t")[h_col]: int(r.split("\t")[d_col]) for r in rows[1:]}
    if from_tsv != report["doubling_degrees"]:
        problems.append("TSV doubling degrees disagree with the JSON report")
    return problems


def check_defect(out, argv):
    verdicts = json.loads((out / "defect_table.json").read_text())
    by_subject = {v["subject"]: v for v in verdicts}
    problems = [f"subject {s!r} missing" for s in DEFECT_SUBJECTS if s not in by_subject]

    def phi(subject):
        return by_subject.get(subject, {}).get("phi")

    if phi("ku") != 1:
        problems.append(f"ku phi is {phi('ku')}, expected 1")
    if phi("ko") != 2 or by_subject.get("ko", {}).get("status") != "exact":
        problems.append("ko is not exactly 2")
    if not isinstance(phi("tmf"), int) or phi("tmf") > 4:
        problems.append(f"tmf phi is {phi('tmf')}, expected at most 4")
    for n in (1, 2, 3):
        if phi(f"ER({n})") != 2**n:
            problems.append(f"ER({n}) phi is {phi(f'ER({n})')}, expected {2**n}")
    rows = (out / "defect_table.tsv").read_text().splitlines()
    header = rows[0].split("\t")
    subj_col = header.index("subject")
    if {r.split("\t")[subj_col] for r in rows[1:]} != set(by_subject):
        problems.append("TSV subjects disagree with the JSON table")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: tuple
    tiny_argv: tuple  # same job at smoke-test size, for the benchmark's own tests
    check: Callable


WORKLOADS = (
    Workload(
        "ext-a1-p2",
        "A(1) Ext at p=2 with SVG: cobar word enumeration and differential assembly "
        "dominate; shows a new Ext engine or word encoding",
        ("ext", "--prime", "2", "--family", "A", "--n", "1", "--stem-max", "10",
         "--s-max", "6", "--format", "tsv", "--format", "json", "--format", "svg"),
        ("ext", "--prime", "2", "--family", "A", "--n", "1", "--stem-max", "6",
         "--s-max", "3", "--format", "tsv", "--format", "json", "--format", "svg"),
        check_ext_a1_p2,
    ),
    Workload(
        "ext-a1-p3",
        "A(1) Ext at p=3: dense F_3 elimination dominates and memory peaks; a p=2 "
        "gain that costs odd primes shows here",
        ("ext", "--prime", "3", "--family", "A", "--n", "1", "--stem-max", "20",
         "--s-max", "4", "--format", "tsv"),
        ("ext", "--prime", "3", "--family", "A", "--n", "1", "--stem-max", "10",
         "--s-max", "2", "--format", "tsv"),
        check_ext_a1_p3,
    ),
    Workload(
        "fgl-er4",
        "ER(4) formal-inverse witness: bivariate Fraction series in honda_fgl; "
        "never touches ext or gradedlin",
        ("fgl", "--n", "4", "--format", "json", "--format", "tsv"),
        ("fgl", "--n", "2", "--format", "json", "--format", "tsv"),
        check_fgl,
    ),
    Workload(
        "defect-cap24",
        "the paper's defect table: dims-only evenness scans, ko descent pages, "
        "ER witnesses and EO valuations",
        ("defect", "--cap", "24", "--format", "tsv", "--format", "json"),
        ("defect", "--cap", "8", "--format", "tsv", "--format", "json"),
        check_defect,
    ),
)
BY_NAME = {w.name: w for w in WORKLOADS}
