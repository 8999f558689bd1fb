"""Change of rings: the Shapiro lemma as an oracle for cobar Ext.

For a quotient family inner of outer and a comodule M over inner,
Ext_inner(F_p, M) = Ext_outer(F_p, outer box_inner M).  The cotensor
comodule is built degree by degree as the kernel of the cotensor
condition, and change_of_rings_check compares the two Ext charts.
"""

from chromadefect.gradedlin import PrimeFieldMatrix, vec_from_terms, vec_support
from chromadefect.steenrod import elt_add_term

from oracles.cobar import Comodule, ext_ranks
from oracles.diagonal import allows, coproduct, monomials


def _le(a, b):
    """Height comparison where None means infinity."""
    if b is None:
        return True
    if a is None:
        return False
    return a <= b


def is_quotient_of(inner, outer):
    """True when inner kills at least everything outer kills."""
    if inner.p != outer.p or inner.even_only != outer.even_only:
        return False
    span = max(len(inner.heights), len(outer.heights)) + 1
    for i in range(1, span + 1):
        if not _le(inner.height(i), outer.height(i)):
            return False
    if inner.p != 2:
        if outer.tau == "all":
            return True
        if inner.tau == "all":
            return False
        return inner.tau <= outer.tau
    return True


def vec_entry(p, v, i):
    return dict(vec_support(p, v)).get(i, 0)


def solve(mat, v):
    """x with x.M = v, or None when v is not in the row space of M.

    A kernel vector of M with v appended as a last row whose last
    coordinate c is nonzero says x.M + c v = 0; scaling x by -1/c
    solves it.
    """
    p, m = mat.p, mat.nrows
    grown = PrimeFieldMatrix(p, m + 1, mat.ncols, mat.rows + [v])
    for kv in grown.kernel_vectors():
        c = vec_entry(p, kv, m)
        if not c:
            continue
        f = -pow(c, p - 2, p)
        return vec_from_terms(p, [(k, f * x) for k, x in vec_support(p, kv) if k < m])
    return None


def cotensor_comodule(outer, inner, module, cap):
    """Cotensor product (outer family) box_(inner family) module, through
    total degree cap, as a comodule over the outer family.

    inner must be a further quotient of outer and module a comodule over
    inner.  Basis elements are named c{degree}_{k}.
    """
    if not is_quotient_of(inner, outer):
        raise ValueError("inner family must be a quotient of the outer one")
    if module.profile.p != outer.p:
        raise ValueError("prime mismatch")
    p = outer.p
    amb = monomials(outer, cap)
    # pairs (a, m) graded by total degree
    pairs_by_deg = {}
    for a in amb:
        for name in module.names:
            d = a.degree() + module.degree_of[name]
            if d <= cap:
                pairs_by_deg.setdefault(d, []).append((a, name))
    for v in pairs_by_deg.values():
        v.sort(key=lambda t: (str(t[0]), t[1]))

    # cotensor condition per degree: (1 (x) pi (x) 1)(psi_B (x) 1) = (1 (x) psi_M)
    kernels = {}
    for d in sorted(pairs_by_deg):
        pairs = pairs_by_deg[d]
        index = {pm: i for i, pm in enumerate(pairs)}
        triples = {}

        def tcol(key):
            if key not in triples:
                triples[key] = len(triples)
            return triples[key]

        rows = []
        for a, name in pairs:
            terms = {}
            for (b1, b2), c in coproduct(a, outer).items():
                if allows(inner, b2):
                    elt_add_term(p, terms, (b1, b2, name), c)
            for mono, c, target in module.coaction[name]:
                elt_add_term(p, terms, (a, mono, target), -c)
            rows.append([(tcol(k), c) for k, c in terms.items()])
        mat = PrimeFieldMatrix.from_terms(
            p,
            len(pairs),
            max(len(triples), 1),
            [(i, j, c) for i, row in enumerate(rows) for j, c in row],
        )
        kern = mat.kernel_vectors()
        if kern:
            kernels[d] = (pairs, index, kern)

    basis = []
    vectors = {}
    for d in sorted(kernels):
        _, _, kern = kernels[d]
        for k, vec in enumerate(kern):
            name = f"c{d}_{k}"
            basis.append((name, d))
            vectors[name] = (d, vec)

    # coaction: apply psi_B to the left slot and re-express in the kernel basis
    solvers = {}
    for d, (pairs, index, kern) in kernels.items():
        mat = PrimeFieldMatrix(p, len(kern), len(pairs), list(kern))
        solvers[d] = (mat, pairs, index)

    coaction = {}
    for name, (d, vec) in vectors.items():
        pairs, index, _ = kernels[d]
        # accumulate left-monomial -> component vector in lower degree
        by_left = {}
        for i, c0 in vec_support(p, vec):
            a, mname = pairs[i]
            for (b1, b2), c in coproduct(a, outer).items():
                elt_add_term(p, by_left.setdefault(b1, {}), (b2, mname), c0 * c)
        terms = []
        for b1 in sorted(by_left, key=lambda m: (m.degree(), str(m))):
            comp = by_left[b1]
            if not comp:
                continue
            d2 = d - b1.degree()
            if d2 not in solvers:
                raise ValueError("cotensor coaction leaves the computed window")
            mat, pairs2, index2 = solvers[d2]
            target = vec_from_terms(p, [(index2[key], c) for key, c in comp.items()])
            combo = solve(mat, target)
            if combo is None:
                raise ValueError("cotensor coaction misses the kernel basis")
            for k, c in vec_support(p, combo):
                terms.append((b1, c, f"c{d2}_{k}"))
        coaction[name] = terms
    return Comodule(outer, basis, coaction)


def change_of_rings_check(outer, inner, module, s_max, t_max):
    """Ext_inner(F_p, M) vs Ext_outer(F_p, cotensor) through the caps.

    Returns (equal, inner_dims, outer_dims).
    """
    inner_chart = ext_ranks(inner, module, s_max, t_max)
    coinduced = cotensor_comodule(outer, inner, module, t_max)
    outer_chart = ext_ranks(outer, coinduced, s_max, t_max)
    return (
        inner_chart.dims == outer_chart.dims,
        inner_chart.dims,
        outer_chart.dims,
    )
