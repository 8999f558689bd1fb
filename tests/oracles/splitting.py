"""X(n) splitting toys: relative dual coalgebras, conjugation and the
Poincare series identities of the Thom splittings.

No CLI job runs these; they are the reference for a Thom comodule
check.  Elements are dicts {DualMonomial: coefficient mod p}, as in
oracles.diagonal.
"""

from functools import lru_cache

from chromadefect.steenrod import Profile, elt_add_term

from oracles.diagonal import DualMonomial, allows, monomials, reduced_coproduct, times, xi_gen


def elt_mul(p, x, y):
    out = {}
    for ma, ca in x.items():
        for mb, cb in y.items():
            sign, m = times(ma, mb)
            if sign:
                elt_add_term(p, out, m, sign * ca * cb)
    return out


@lru_cache(maxsize=None)
def conjugate_xi(p, k):
    """chi(xi_k) as an element dict, from sum xi_{k-i}^{p^i} chi(xi_i) = 0."""
    if k == 0:
        return {DualMonomial(p): 1}
    acc = {}
    for i in range(k):
        factor = {xi_gen(p, k - i, p**i): 1}
        for m, c in elt_mul(p, factor, conjugate_xi(p, i)).items():
            elt_add_term(p, acc, m, -c)
    return acc


# ---------------------------------------------------------------------------
# quotient coalgebras relative to a Thom-range ideal


def relative_dual_coalgebra(p, m, cap):
    """Quotient of the dual Steenrod algebra by the Thom-range ideal of
    width m, with its distinguished primitives through degree cap.

    Requires p^n <= m < p^{n+1} for some n >= 0; the quotient is then
    the height-n family.  Returns (profile, basis, primitives) where
    primitives is a list of (power, element, ok) for the reduced
    conjugate-generator powers zeta_{n+1}^{2^{k+1}} (p = 2) or
    zeta_{n+1}^{p^k} (odd p), ok = nonzero and diagonal-primitive.
    """
    if m < 1:
        raise ValueError("width must be at least 1")
    n = 0
    while p ** (n + 1) <= m:
        n += 1
    profile = Profile.T(p, n)
    basis = monomials(profile, cap)
    zeta = conjugate_xi(p, n + 1)
    if p == 2:
        base = elt_mul(p, zeta, zeta)
    else:
        base = zeta
    # working in the quotient throughout is valid: reduction is a ring map
    power = {m: c for m, c in base.items() if allows(profile, m)}
    primitives = []
    exp = 1
    while power:
        deg = next(iter(power)).degree()
        if deg > cap:
            break
        cop = {}
        for mono, coef in power.items():
            for (l, r), c in reduced_coproduct(mono, profile).items():
                elt_add_term(p, cop, (l, r), c * coef)
        primitives.append((exp, dict(power), not cop))
        nxt = power
        for _ in range(p - 1):
            nxt = {m: c for m, c in elt_mul(p, nxt, power).items() if allows(profile, m)}
        power = nxt
        exp *= p
    return profile, basis, primitives


# ---------------------------------------------------------------------------
# Poincare series identities


def polynomial_series(gen_degrees, cap):
    """Coefficients of prod 1/(1 - q^d) through degree cap."""
    series = [0] * (cap + 1)
    series[0] = 1
    for d in gen_degrees:
        if d <= 0:
            raise ValueError("generator degrees must be positive")
        for k in range(d, cap + 1):
            series[k] += series[k - d]
    return series


def poincare_identity_check(gens_a, gens_b, cap):
    sa = polynomial_series(sorted(gens_a), cap)
    sb = polynomial_series(sorted(gens_b), cap)
    return sa == sb, sa, sb


def splitting_generator_degrees(p, n, m):
    """Generator degrees for the finite Thom splitting: the width-m
    homology against the height-n family plus polynomial complement.

    Valid for p^n <= m < p^{n+1}; returns (lhs, rhs) degree lists.
    """
    if not (p**n <= m < p ** (n + 1)):
        raise ValueError("width is not in the height-n range")
    lhs = [2 * i for i in range(1, m)]
    family = [2 * (p**j - 1) for j in range(1, n + 1)]
    skips = {p**j - 1 for j in range(1, n + 1)}
    complement = [2 * i for i in range(1, m) if i not in skips]
    return lhs, family + complement


def stable_splitting_generator_degrees(p, n, m):
    """Degreewise form of the stable splitting of the width filtration:
    height-m family against height-n family with adjoined classes in
    degrees 2(p^i - 1), n < i <= m."""
    if not 0 <= n <= m:
        raise ValueError("need 0 <= n <= m")
    lhs = [2 * (p**j - 1) for j in range(1, m + 1)]
    rhs = [2 * (p**j - 1) for j in range(1, n + 1)]
    rhs += [2 * (p**i - 1) for i in range(n + 1, m + 1)]
    return lhs, rhs
