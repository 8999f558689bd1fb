"""Comodule cofreeness through Margolis homology.

A finite comodule over a finite profile quotient becomes a module over
the family's Margolis operations (dual_module), each acting by slicing
the coaction at its dual monomial; the comodule is cofree exactly when
every one of those homologies vanishes (cofree_decompose).  The tests
check this against Ext over the same family.
"""

from chromadefect.margolis import FiniteSteenrodModule, family_margolis_indices, margolis_homology

from oracles.diagonal import tau_gen, xi_gen


def _dual_operations(profile):
    """(operator name, dual monomial) per Margolis operation of a finite
    family, in family_margolis_indices order."""
    p = profile.p
    xi_ops, tau_ops = family_margolis_indices(profile)
    step = 2 if profile.even_only else 1
    out = []
    for t, s in xi_ops:
        name = f"P({t},{s + 1})" if profile.even_only else f"P({t},{s})"
        out.append((name, xi_gen(p, t, step * p**s)))
    for t in tau_ops:
        out.append((f"Q({t})", tau_gen(p, t)))
    return out


def dual_module(comodule):
    """A finite comodule as a module over its family's Margolis operations.

    One operator per entry of family_margolis_indices: P(t,s) dual to
    xi_t^(p^s) (named P(t,s+1) and dual to xi_t^(2^(s+1)) in the
    even-only case) and Q(t) dual to tau_t.  Each acts by slicing the
    coaction at its monomial: it sends m to the sum of c * m' over the
    coaction terms (monomial, c, m').  The dual operations lower
    comodule degree, so the basis is graded by the negated comodule
    degree.
    """
    profile = comodule.profile
    actions = {}
    for op, mono in _dual_operations(profile):
        actions[op] = {
            src: [(c, tgt) for m, c, tgt in comodule.coaction[src] if m == mono]
            for src in comodule.names
        }
    basis = [(n, -comodule.degree_of[n]) for n in comodule.names]
    return FiniteSteenrodModule(profile.p, basis, actions, even_only=profile.even_only)


def cofree_decompose(comodule):
    """Decide cofreeness of a comodule over a finite family (even-only
    at p = 2).

    The comodule is cofree exactly when every Margolis homology of its
    dual_module vanishes; at odd primes the P(t,s) homology is taken
    against the (p-1)-fold power, as in margolis_homology.  Returns
    (True, sorted cogenerator degrees) or (False, witness), where
    witness is (operator, total homology dimension) for the first
    operation in family_margolis_indices order with nonvanishing
    homology.  Cogenerator degrees come from dividing Poincare series.
    """
    profile = comodule.profile
    if profile.p == 2 and not profile.even_only:
        raise ValueError("expected an even-only family at p = 2")
    module = dual_module(comodule)
    for op, _ in _dual_operations(profile):
        total = sum(map(len, margolis_homology(module, op).values()))
        if total:
            return False, (op, total)
    top = max(comodule.degree_of.values(), default=0)
    fam = profile.poincare(top)
    work = comodule.poincare(top)
    cogens = []
    for d in range(len(work)):
        c = work[d]
        if c < 0:
            return False, ("series", d)
        if not c:
            continue
        cogens.extend([d] * c)
        for k, b in enumerate(fam):
            if d + k < len(work):
                work[d + k] -= c * b
    if any(work):
        return False, ("series", "remainder")
    return True, cogens
