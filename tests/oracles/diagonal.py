"""The Milnor diagonal of the dual Steenrod algebra, and the recursive
Milnor-matrix enumeration: the references the package's product and
letters are checked against.

DualMonomial (with xi_gen and tau_gen) is the oracles' monomial type,
validated, hashable, named and ordered by degree then name.  The
package holds a monomial as its bare exponent pair (xi, tau) beside
its degree; monomials reads Profile.basis back as DualMonomials.

The diagonal of a monomial is the product of its generators' diagonals
(J. Milnor, "The Steenrod algebra and its dual", 1958),

    psi(xi_k)  = sum_i xi_{k-i}^{p^i} (x) xi_i,
    psi(tau_k) = tau_k (x) 1 + sum_i xi_{k-i}^{p^i} (x) tau_i,

expanded term by term in B (x) B with the Koszul sign.  A product
coefficient of milnor_product must equal the matching coefficient of
the diagonal under the dual pairing, the cross terms that
Profile.generator_powers lists for a generator power must be its
reduced diagonal in the family, and a letter of ext.cobar_letters is a
family monomial whose reduced diagonal vanishes in the family.

allows is the family's membership rule, read monomial by monomial off
the heights and the tau set: the oracles' quotient map, against which
Profile.basis and Profile.generator_powers, built from
Profile._generators, are checked.

_p_part_products is the enumeration the package used before it stepped
through the matrices in place: each row's entries are filled
recursively, and a matrix whose column sums overrun S is discarded.
milnor_product reads the package's product on exponent pairs,
steenrod.operator_product, as a product of dual monomials, the form
the oracles and tests compare.
"""

from math import comb

from chromadefect.steenrod import elt_add_term, operator_product


# ---------------------------------------------------------------------------
# dual monomials


class DualMonomial:
    """Monomial xi_1^{e_1} ... xi_k^{e_k} * tau_{t_1} ... tau_{t_r}.

    xi: tuple of exponents, index i-1 storing the exponent of xi_i,
    trailing zeros stripped.  tau: strictly increasing tuple of indices
    (always empty at p = 2).
    """

    __slots__ = ("p", "xi", "tau", "_degree", "_str")

    def __init__(self, p, xi=(), tau=()):
        xi = tuple(xi)
        while xi and xi[-1] == 0:
            xi = xi[:-1]
        if any(e < 0 for e in xi):
            raise ValueError("negative exponent")
        tau = tuple(tau)
        if tuple(sorted(set(tau))) != tau:
            raise ValueError("tau indices must be strictly increasing")
        if p == 2 and tau:
            raise ValueError("no tau generators at p = 2")
        self.p = p
        self.xi = xi
        self.tau = tau
        self._degree = None
        self._str = None

    def degree(self):
        if self._degree is None:
            p = self.p
            if p == 2:
                d = sum(e * (2 ** (i + 1) - 1) for i, e in enumerate(self.xi))
            else:
                d = sum(2 * e * (p ** (i + 1) - 1) for i, e in enumerate(self.xi))
                d += sum(2 * p**t - 1 for t in self.tau)
            self._degree = d
        return self._degree

    def __eq__(self, other):
        return (
            isinstance(other, DualMonomial)
            and self.p == other.p
            and self.xi == other.xi
            and self.tau == other.tau
        )

    def __hash__(self):
        return hash((self.p, self.xi, self.tau))

    def __lt__(self, other):
        return (self.degree(), str(self)) < (other.degree(), str(other))

    def __str__(self):
        if self._str is None:
            parts = []
            for i, e in enumerate(self.xi):
                if e == 1:
                    parts.append(f"xi{i + 1}")
                elif e:
                    parts.append(f"xi{i + 1}^{e}")
            parts.extend(f"tau{t}" for t in self.tau)
            self._str = "*".join(parts) if parts else "1"
        return self._str

    def __repr__(self):
        return f"DualMonomial({self.p}, {self})"


def xi_gen(p, i, power=1):
    return DualMonomial(p, (0,) * (i - 1) + (power,))


def tau_gen(p, t):
    return DualMonomial(p, (), (t,))


def _multinomial(p, parts):
    """The multinomial coefficient of parts, mod p."""
    total = 0
    acc = 1
    for c in parts:
        total += c
        acc = acc * comb(total, c) % p
        if not acc:
            return 0
    return acc


def milnor_product(a, b):
    """Product of the Milnor basis elements dual to two monomials:
    {DualMonomial: coef}, each key read as the element Q_E P(R) dual to
    its xi^R tau_E; steenrod.operator_product states the sign
    convention."""
    if a.p != b.p:
        raise ValueError("prime mismatch")
    terms = operator_product(a.p, (a.xi, a.tau), (b.xi, b.tau))
    return {DualMonomial(a.p, xi, tau): c for (xi, tau), c in terms.items()}


def allows(profile, mono):
    """Whether a dual monomial survives in the family: each xi_i
    exponent below p^h (h the height of xi_i), as a power of xi_i^2 in
    an even-only family, and each tau_t among the surviving tau."""
    if mono.p != profile.p:
        raise ValueError("prime mismatch")
    for i, e in enumerate(mono.xi):
        if not e:
            continue
        if profile.even_only:
            # heights cap powers of the squared generator xi_i^2
            if e % 2:
                return False
            e //= 2
        h = profile.height(i + 1)
        if h is not None and e >= profile.p**h:
            return False
    return all(profile.tau_allowed(t) for t in mono.tau)


def monomials(profile, max_degree):
    """Profile.basis as DualMonomials, in its order."""
    return [DualMonomial(profile.p, xi, tau) for _, (xi, tau) in profile.basis(max_degree)]


def times(a, b):
    """Product of two dual monomials with its Koszul sign: (coef,
    monomial), or (0, None) when an exterior generator repeats."""
    if a.p != b.p:
        raise ValueError("prime mismatch")
    n = max(len(a.xi), len(b.xi))
    xi = tuple(
        (a.xi[i] if i < len(a.xi) else 0) + (b.xi[i] if i < len(b.xi) else 0)
        for i in range(n)
    )
    if set(a.tau) & set(b.tau):
        return 0, None
    inversions = sum(1 for x in a.tau for y in b.tau if x > y)
    return (-1) ** inversions, DualMonomial(a.p, xi, tuple(sorted(a.tau + b.tau)))


def _xi_coproduct_terms(p, k):
    """psi(xi_k) = sum xi_{k-i}^{p^i} (x) xi_i, with xi_0 = 1."""
    unit = DualMonomial(p)
    out = []
    for i in range(k + 1):
        left = xi_gen(p, k - i, p**i) if k - i else unit
        right = xi_gen(p, i) if i else unit
        out.append((left, right))
    return out


def _tau_coproduct_terms(p, k):
    """psi(tau_k) = tau_k (x) 1 + sum_i xi_{k-i}^{p^i} (x) tau_i."""
    unit = DualMonomial(p)
    out = [(tau_gen(p, k), unit)]
    for i in range(k + 1):
        left = xi_gen(p, k - i, p**i) if k - i else unit
        out.append((left, tau_gen(p, i)))
    return out


def _tensor_mul(p, x, y):
    """Product in B (x) B with the Koszul sign (-1)^{|aR| |bL|}."""
    out = {}
    for (al, ar), ca in x.items():
        for (bl, br), cb in y.items():
            sl, left = times(al, bl)
            if not sl:
                continue
            sr, right = times(ar, br)
            if not sr:
                continue
            koszul = -1 if (len(ar.tau) & 1 and len(bl.tau) & 1) else 1
            elt_add_term(p, out, (left, right), ca * cb * sl * sr * koszul)
    return out


def _xi_power_coproduct(p, k, e, reduce_pair=None):
    """psi(xi_k^e) expanded with multinomial coefficients: one term per
    way of writing e as a sum of k + 1 parts, the part c_i raising the
    i-th term of psi(xi_k) to the power c_i.

    reduce_pair: optional hook returning None to discard a tensor term.
    """
    basis_terms = _xi_coproduct_terms(p, k)
    unit = DualMonomial(p)
    out = {}

    def rec(parts, remaining):
        if len(parts) + 1 < len(basis_terms):
            for c in range(remaining + 1):
                rec(parts + [c], remaining - c)
            return
        parts = parts + [remaining]
        coef = _multinomial(p, parts)
        if not coef:
            return
        left = right = unit
        for (tl, tr), c in zip(basis_terms, parts):
            if c:
                _, left = times(left, DualMonomial(p, tuple(x * c for x in tl.xi)))
                _, right = times(right, DualMonomial(p, tuple(x * c for x in tr.xi)))
        key = (left, right)
        if reduce_pair is None or reduce_pair(key):
            elt_add_term(p, out, key, coef)

    rec([], e)
    return out


def coproduct(mono, profile=None):
    """Full Milnor diagonal of a dual monomial, optionally reduced.

    Returns {(left, right): coef}.  With a profile, terms with a factor
    killed by the profile are dropped.
    """
    p = mono.p
    keep = None
    if profile is not None:
        def keep(key):
            return allows(profile, key[0]) and allows(profile, key[1])

    unit = DualMonomial(p)
    acc = {(unit, unit): 1}
    for i, e in enumerate(mono.xi):
        if not e:
            continue
        factor = _xi_power_coproduct(p, i + 1, e, keep)
        acc = _tensor_mul(p, acc, factor)
        if keep is not None:
            acc = {k: v for k, v in acc.items() if keep(k)}
    for t in mono.tau:
        factor = {}
        for left, right in _tau_coproduct_terms(p, t):
            elt_add_term(p, factor, (left, right), 1)
        acc = _tensor_mul(p, acc, factor)
        if keep is not None:
            acc = {k: v for k, v in acc.items() if keep(k)}
    return acc


def reduced_coproduct(mono, profile=None):
    """Diagonal minus the two primitive-forcing terms m(x)1 and 1(x)m."""
    p = mono.p
    unit = DualMonomial(p)
    out = dict(coproduct(mono, profile))
    for key in ((mono, unit), (unit, mono)):
        elt_add_term(p, out, key, -1)
    return out


def _p_part_products(p, R, S):
    """Milnor matrix expansion of P(R) P(S): yields (coef, T)."""
    rows = len(R)
    cols = len(S)
    results = []
    # x[i][j] for 1 <= i <= rows, 0 <= j <= cols, row sums sum_j p^j x = r_i
    x = [[0] * (cols + 1) for _ in range(rows)]

    def rec_row(i):
        if i == rows:
            finish()
            return
        target = R[i]

        # fill columns cols..1 then dump the rest in column 0
        def rec_col0(j, remaining):
            if j == 0:
                x[i][0] = remaining
                rec_row(i + 1)
                x[i][0] = 0
                return
            unit = p**j
            c = 0
            while c * unit <= remaining:
                x[i][j] = c
                rec_col0(j - 1, remaining - c * unit)
                c += 1
            x[i][j] = 0

        rec_col0(cols, target)

    def finish():
        # top margin x[0][j] = s_j - column sums
        top = []
        for j in range(1, cols + 1):
            used = sum(x[i][j] for i in range(rows))
            v = S[j - 1] - used
            if v < 0:
                return
            top.append(v)
        coef = 1
        T = []
        for k in range(1, rows + cols + 1):
            diag = []
            if 1 <= k <= cols:
                diag.append(top[k - 1])
            for i in range(1, rows + 1):
                j = k - i
                if 0 <= j <= cols:
                    diag.append(x[i - 1][j])
            coef = coef * _multinomial(p, diag) % p
            if not coef:
                return
            T.append(sum(diag))
        while T and T[-1] == 0:
            T.pop()
        results.append((coef, tuple(T)))

    rec_row(0)
    return results
