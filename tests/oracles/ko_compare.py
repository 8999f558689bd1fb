"""The comparison map from the polynomial ko chart to the Laurent one.

The identity on monomials induces a map of pages; on the second page
it must be an isomorphism in positive filtrations and onto in
filtration zero, and the two charts must carry their length-three
differentials from the same cells.  compare_maps reads those verdicts
off two pages the package computed.
"""

from math import gcd

from chromadefect.ssq import Cell, PageSnapshot, d3, differential_sources


def _map_verdict(src: Cell, dst: Cell) -> str:
    """Verdict for the cellwise comparison map, induced by the identity
    on monomials: "iso", "epi", or "none"."""
    if not src.alive and not dst.alive:
        return "iso"
    if not src.alive:
        return "none"
    if not dst.alive:
        return "epi"
    if src.cycle % dst.cycle:
        return "none"  # image is not even contained in the cycles
    if src.boundary and (dst.boundary == 0 or src.boundary % dst.boundary):
        return "none"  # source relations do not map to relations
    image = gcd(src.cycle, dst.boundary)
    epi = image == dst.cycle
    if dst.boundary == 0:
        kernel = 0
    else:
        kernel = src.cycle * (dst.boundary // gcd(src.cycle, dst.boundary))
    injective = kernel == 0 if src.boundary == 0 else kernel % src.boundary == 0
    if epi and injective:
        return "iso"
    if epi:
        return "epi"
    return "none"


def compare_maps(polynomial_page: PageSnapshot, laurent_page: PageSnapshot) -> dict:
    """Cellwise comparison from the polynomial chart to the laurent one.

    Verdicts cover every interior lattice spot of the laurent page; the
    polynomial side contributes the dead cell where it has no monomial.
    The differential ledger lists interior cells in filtrations >= 0
    that support a nonzero length-three differential on each side.
    """
    if polynomial_page.variant != "polynomial" or laurent_page.variant != "laurent":
        raise ValueError("expected the polynomial page first, the laurent page second")
    if polynomial_page.page != laurent_page.page:
        raise ValueError("page mismatch")
    if polynomial_page.window != laurent_page.window:
        raise ValueError("window mismatch")
    dead = Cell(0, 0, 0, 0)
    verdicts = {}
    for (s, f), lcell in laurent_page.interior_items(3):
        pcell = polynomial_page.cells.get((s, f), dead)
        verdicts[(s, f)] = _map_verdict(pcell, lcell)
    left = differential_sources(polynomial_page, 3, d3, min_fil=0, radius=3)
    right = differential_sources(laurent_page, 3, d3, min_fil=0, radius=3)
    return {
        "page": polynomial_page.page,
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
