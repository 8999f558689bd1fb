"""The chromatic defect ledger.

A defect verdict records, for one named theory, the smallest n for
which tensoring with the rank filtration stage X(n) gives a complex
orientable spectrum, together with the machine evidence for each bound.
Verdicts are exact only when an upper and a lower bound meet; bounds
come from the other engines (the Koszul closed form of Ext over
exterior families, the primitive that detects eta in Adams filtration
one, formal inverse witnesses, the closed form of the cyclic fixed
point defect), and impossibility facts for which no computation exists
are carried as documented entries, never as computed ones.  A verdict
and each of its evidence items are plain dicts, the JSON rows that the
`defect` job (defect_job) writes for the catalogue's table.
"""

from .charts import json_bytes
from .ext import cobar_letters, evenness_scan
from .fgl import er_defect_witnesses
from .gradedlin import check_prime
from .steenrod import Profile

__all__ = [
    "evidence",
    "assemble",
    "documented_infinite",
    "verdict_ku",
    "verdict_ko",
    "verdict_tmf",
    "verdict_er",
    "eo_defect",
    "verdict_eo",
    "catalogue",
    "defect_job",
    "verdict_table",
]


def floor_log(p: int, value: int) -> int:
    if value < 1:
        raise ValueError("value must be positive")
    e = 0
    while p ** (e + 1) <= value:
        e += 1
    return e


def evidence(engine: str, operation: str, detail: str, kind: str, bound=None) -> dict:
    """One engine-backed bound or catalogued fact, as the table's row.

    kind "upper"/"lower" carry a bound; "exact" supplies both sides at
    once (an equality theorem); "fact" is a documented note with no
    bound arithmetic attached.
    """
    return dict(engine=engine, operation=operation, detail=detail, kind=kind, bound=bound)


def assemble(subject: str, items, prime: int = 2) -> dict:
    """Tightest consistent verdict from verified evidence items.

    The upper bound is the minimum over upper and exact items, the
    lower bound the maximum over lower and exact items; equality makes
    the verdict exact.  A lower bound above the upper bound means two
    engines contradict each other and is an error.
    """
    items = list(items)
    uppers = [e["bound"] for e in items if e["kind"] in ("upper", "exact")]
    lowers = [e["bound"] for e in items if e["kind"] in ("lower", "exact")]
    if not uppers:
        raise ValueError(f"{subject}: no upper bound evidence, cannot state a value")
    upper = min(uppers)
    lower = max(lowers) if lowers else None
    if lower is not None and lower > upper:
        raise ValueError(f"{subject}: lower bound {lower} exceeds upper bound {upper}")
    return {
        "subject": subject,
        "prime": prime,
        "phi": upper,
        "phi_p": floor_log(prime, upper),
        "status": "exact" if lower == upper else "upper-bound-only",
        "evidence": items,
    }


def verdict_ku() -> dict:
    """Complex K-theory is complex orientable, so its defect is 1."""
    e = evidence(
        "catalogue",
        "complex-orientation",
        "carries a complex orientation, so already the first stage suffices",
        "exact",
        1,
    )
    return assemble("ku", [e], prime=2)


def verdict_ko(stem_cap: int = 24) -> dict:
    """Real connective K-theory: defect exactly 2.

    Upper bound: Ext over the height-1 exterior family with trivial
    coefficients is polynomial on classes of odd internal degree
    (Koszul duality), so no class lies in an odd stem through the cap,
    which places the defect at or below 2.  Lower bound: the unit of a
    complex orientable ring spectrum factors through MU, and pi_1 MU =
    0, so eta would map to zero in ko = ko smash X(1).  But eta is
    detected by h1 = [xi_1^2] in Ext_{A(1)}^{1,2}: Ext^1 is the
    primitives of A(1)_*, the reduced cobar complex has no
    1-coboundaries, and a class in Adams filtration one is never a
    boundary (J. F. Adams, "Stable Homotopy and Generalised Homology",
    1974).  So X(1) does not suffice, with no convergence assumption.
    """
    evenness_scan(1, 2, stem_cap)
    upper = evidence(
        "ext",
        f"evenness_scan(n=1, stems<={stem_cap})",
        "no odd obstruction classes over the height-1 exterior family",
        "upper",
        2,
    )
    if "h(1,1)" not in [name for name, _, _ in cobar_letters(Profile.A(2, 1), 2)]:
        raise ValueError("expected the primitive h(1,1) detecting eta in Ext_A(1)^{1,2}")
    lower = evidence(
        "ext",
        "cobar_letters(A(1), t<=2): h(1,1)",
        "eta is detected by the primitive h(1,1) = [xi_1^2] in Ext^{1,2}, "
        "Adams filtration 1, which no differential hits; a complex "
        "orientation would send eta through pi_1 MU = 0",
        "lower",
        2,
    )
    return assemble("ko", [upper, lower], prime=2)


def verdict_tmf(stem_cap: int = 24) -> dict:
    """Topological modular forms: machine upper bound 4.

    The Koszul closed form of Ext over the height-2 exterior family
    puts no class in an odd stem through the cap, giving defect <= 4.
    The matching lower bound is a documented fact with no computation
    behind it here, so the verdict stays a bound with a note.
    """
    evenness_scan(2, 2, stem_cap)
    upper = evidence(
        "ext",
        f"evenness_scan(n=2, stems<={stem_cap})",
        "no odd obstruction classes over the height-2 exterior family",
        "upper",
        4,
    )
    note = evidence(
        "catalogue",
        "defect-of-tmf",
        "the value is known to be exactly 4; the lower bound is not machine-checked here",
        "fact",
    )
    return assemble("tmf", [upper, note], prime=2)


def verdict_er(n: int, report) -> dict:
    """Real Johnson-Wilson theory at height n: defect exactly 2^n.

    Both bounds come from the formal inverse witness on the height-n
    law in characteristic 2, the report of er_defect_witness(n):
    the doubling series and obstructed inverses below level n give the
    upper bound, the first deviation of the formal inverse in degree
    exactly 2^n gives the lower bound.
    """
    target = 2**n
    if not report["upper_bound_ok"]:
        raise ValueError(f"doubling-degree evidence failed: {report}")
    if not report["lower_bound_ok"]:
        raise ValueError(f"inverse-deviation evidence failed: {report}")
    upper = evidence(
        "fgl",
        f"er_defect_witness({n})",
        "doubling degrees hit 2^h with obstructed inverses through level "
        f"{n} (cap {report['cap']})",
        "upper",
        target,
    )
    lower = evidence(
        "fgl",
        f"er_defect_witness({n})",
        f"formal inverse first deviates from the identity in degree {target}",
        "lower",
        target,
    )
    return assemble(f"ER({n})", [upper, lower], prime=2)


def eo_defect(p: int, m: int, height: int):
    """N with defect p^N for the fixed points of height-h Morava
    E-theory under a cyclic group of order p^m, or None for the trivial
    group, whose fixed points are complex orientable.

    N is h * max v(g - 1) over the nontrivial elements g, for the
    valuation with v(p) = 1.  An element of order p^k is a primitive
    p^k-th root of unity, and Q_p of it is totally ramified of degree
    p^(k-1)(p-1), so v(g - 1) = 1/(p^(k-1)(p-1)).  The largest
    valuation therefore belongs to the elements of order p, which every
    nontrivial cyclic p-group has: it is 1/(p-1) whatever m is, and
    N = h/(p-1).  The group embeds in the endomorphism division algebra
    exactly when its generator's degree p^(m-1)(p-1) divides h
    (C. Hewett, "Finite subgroups of division algebras over local
    fields", 1995), which makes the quotient exact.
    """
    check_prime(p)
    if m < 0:
        raise ValueError("the order exponent must be nonnegative")
    if height < 1:
        raise ValueError("height must be positive")
    if m == 0:
        return None
    degree = p ** (m - 1) * (p - 1)
    if height % degree:
        raise ValueError(
            f"no embedding: the cyclotomic degree {degree} does not "
            f"divide the height {height}"
        )
    return height // (p - 1)


def verdict_eo(p: int, m: int, height: int) -> dict:
    """Fixed points of height-h Morava E-theory under a cyclic group of
    order p^m: the closed form of eo_defect gives the defect."""
    N = eo_defect(p, m, height)
    if N is None:
        detail, bound = "the trivial group leaves the theory complex orientable", 1
    else:
        detail, bound = f"N = height * max cyclotomic valuation = {N}, an equality", p**N
    e = evidence("valuation", f"eo_defect(C_{p**m}, height={height})", detail, "exact", bound)
    return assemble(f"EO_{height}(C_{p**m}) at p={p}", [e], prime=p)


# the notes behind each documented-infinite subject, keyed by the
# subject as the table writes it: (operation, detail) per fact
INFINITE = {
    "finite spectra (nontrivial)": [
        ("finite-spectra", "every nontrivial finite spectrum has infinite defect"),
    ],
    "j": [
        ("image-of-j", "the connective image of J spectrum has infinite defect"),
        (
            "image-of-j",
            "hence no finite complex with projective homology makes it "
            "complex orientable",
        ),
    ],
}


def documented_infinite(subject: str) -> dict:
    """Catalogued infinite-defect subjects; nothing is computed."""
    if subject not in INFINITE:
        raise ValueError(f"unknown subject {subject!r}")
    notes = [evidence("catalogue", op, detail, "fact") for op, detail in INFINITE[subject]]
    return {
        "subject": subject,
        "prime": 2,
        "phi": None,
        "phi_p": None,
        "status": "documented-infinite",
        "evidence": notes,
    }


EO_PRESETS = [
    # (p, m, height): cyclic C_{p^m} at the matched heights
    (2, 1, 1),
    (2, 1, 2),
    (3, 1, 2),
    (3, 1, 4),
    (5, 1, 4),
    (2, 2, 2),
    (3, 2, 6),
]


def catalogue(stem_cap: int = 24) -> list:
    """The preset verdict table: the worked examples plus the
    documented impossibilities.  The ER rows share one witness run,
    which solves and certifies height h's series once, through degree
    2^h + 1; each row names its cap 2^n + 8, and its answers hold
    through it."""
    rows = [verdict_ku(), verdict_ko(stem_cap), verdict_tmf(stem_cap)]
    for n, report in er_defect_witnesses(dict.fromkeys((1, 2, 3))).items():
        rows.append(verdict_er(n, report))
    for p, m, h in EO_PRESETS:
        rows.append(verdict_eo(p, m, h))
    rows.extend(documented_infinite(subject) for subject in INFINITE)
    return rows


def verdict_table(verdicts) -> str:
    """TSV table, one verdict per row."""
    lines = ["subject\tprime\tphi\tphi_p\tstatus"]
    for v in verdicts:
        status = v["status"]
        if status == "documented-infinite":
            phi, phi_p = "inf", "inf"
        elif status == "upper-bound-only":
            phi, phi_p = f"<={v['phi']}", f"<={v['phi_p']}"
        else:
            phi, phi_p = str(v["phi"]), str(v["phi_p"])
        lines.append(f"{v['subject']}\t{v['prime']}\t{phi}\t{phi_p}\t{status}")
    return "\n".join(lines) + "\n"


def defect_job(params, payload) -> dict:
    """The `defect` job's artifacts, {filename: bytes}: the catalogue
    through the validated stem cap."""
    verdicts = catalogue(stem_cap=params["stem_cap"])
    out = {}
    if "tsv" in params["formats"]:
        out["defect_table.tsv"] = verdict_table(verdicts).encode("utf-8")
    if "json" in params["formats"]:
        out["defect_table.json"] = json_bytes(verdicts)
    return out
