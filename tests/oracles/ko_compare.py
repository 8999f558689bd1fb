"""The comparison map from the polynomial ko chart to the Laurent one.

The identity on monomials induces a map of pages; on the second page
it must be an isomorphism in positive filtrations and onto in
filtration zero, and the two charts must carry their length-three
differentials from the same cells.  compare_maps reads those verdicts
off two pages the package computed.
"""

from math import gcd

from chromadefect.ssq import cell, d3, differential_sources, is_interior


def _map_verdict(src, dst) -> str:
    """Verdict for the cellwise comparison map between two cells,
    induced by the identity on monomials: "iso", "epi", or "none"."""
    _, _, src_cycle, src_boundary = src
    _, _, dst_cycle, dst_boundary = dst
    if not src_cycle and not dst_cycle:
        return "iso"
    if not src_cycle:
        return "none"
    if not dst_cycle:
        return "epi"
    if src_cycle % dst_cycle:
        return "none"  # image is not even contained in the cycles
    if src_boundary and (dst_boundary == 0 or src_boundary % dst_boundary):
        return "none"  # source relations do not map to relations
    image = gcd(src_cycle, dst_boundary)
    epi = image == dst_cycle
    if dst_boundary == 0:
        kernel = 0
    else:
        kernel = src_cycle * (dst_boundary // gcd(src_cycle, dst_boundary))
    injective = kernel == 0 if src_boundary == 0 else kernel % src_boundary == 0
    if epi and injective:
        return "iso"
    if epi:
        return "epi"
    return "none"


def compare_maps(polynomial_page, laurent_page) -> dict:
    """Cellwise comparison from the polynomial chart to the laurent one.

    Verdicts cover every interior lattice spot of the laurent page; the
    polynomial side contributes the dead cell where it has no monomial.
    The differential ledger lists interior cells in filtrations >= 0
    that support a nonzero length-three differential on each side.
    """
    if polynomial_page["variant"] != "polynomial" or laurent_page["variant"] != "laurent":
        raise ValueError("expected the polynomial page first, the laurent page second")
    if polynomial_page["page"] != laurent_page["page"]:
        raise ValueError("page mismatch")
    if polynomial_page["window"] != laurent_page["window"]:
        raise ValueError("window mismatch")
    dead = cell(0, 0, 0, 0)
    verdicts = {}
    for (s, f), lcell in sorted(laurent_page["cells"].items()):
        if is_interior(laurent_page["window"], s, f):
            pcell = polynomial_page["cells"].get((s, f), dead)
            verdicts[(s, f)] = _map_verdict(pcell, lcell)
    left = differential_sources(polynomial_page, 3, d3, min_fil=0, radius=3)
    right = differential_sources(laurent_page, 3, d3, min_fil=0, radius=3)
    return {
        "page": polynomial_page["page"],
        "verdicts": verdicts,
        "iso_in_positive_filtrations": all(
            v == "iso" for (s, f), v in verdicts.items() if f >= 1
        ),
        "epi_in_filtration_zero": all(
            v in ("epi", "iso") for (s, f), v in verdicts.items() if f == 0
        ),
        "d3_sources_polynomial": left,
        "d3_sources_laurent": right,
        "d3_sources_matched": left == right,
    }
