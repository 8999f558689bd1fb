"""The full-cap ER(n) defect witness: the reference for
`chromadefect.fgl.er_defect_witnesses`.

This is the package's earlier witness.  It solves each height's [2](x)
and [-1](x) once, at the largest cap asked for, and reads every field
of a report off the series through the report's own cap, so nothing in
it depends on where the answers are first decided.  The series come
from the package's `honda_multiple`, which the rational solver in
`honda_series.py` and the bivariate law in `fgl_law.py` check in turn.
"""

from chromadefect.fgl import honda_multiple


def _first_difference(f, g):
    """Lowest degree where two coefficient lists differ, up to the
    shorter one's top degree, or None."""
    return next((k for k, (a, b) in enumerate(zip(f, g)) if a != b), None)


def er_defect_witnesses(caps):
    """{n: report} for a map {n: cap}, a cap of None meaning 2^n + 8,
    with both series of every height solved through the largest cap."""
    caps = {n: 2**n + 8 if cap is None else cap for n, cap in caps.items()}
    top = max(caps.values())
    series = [(honda_multiple(2, h, 2, top), honda_multiple(2, h, -1, top))
              for h in range(1, max(caps) + 1)]
    reports = {}
    for n, cap in caps.items():
        target = 2**n
        x = [0, 1] + [0] * (cap - 1)
        doubling = {}
        obstructed = {}
        for h, (two, inv) in enumerate(series[:n], 1):
            doubling[h] = _first_difference(two, [0] * (cap + 1))
            obstructed[h] = inv[: target + 1] != x[: target + 1]
        deviation = _first_difference(inv, x)
        reports[n] = {
            "n": n, "cap": cap, "doubling_degrees": doubling, "inverse_obstructed": obstructed,
            "inverse_deviation_degree": deviation,
            "upper_bound_ok": all(doubling[h] == 2**h and obstructed[h] for h in doubling),
            "lower_bound_ok": inv[:target] == x[:target] and deviation == target,
        }
    return reports
