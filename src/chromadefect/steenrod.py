"""Dual Steenrod algebra in the Milnor basis, with profile quotients.

Dual monomials are products of polynomial generators xi_i and, at odd
primes, exterior generators tau_t.  At p = 2 the degree of xi_i is
2^i - 1; at odd p the degrees are |xi_i| = 2(p^i - 1) and
|tau_t| = 2 p^t - 1.  A monomial xi^R tau_E is held as its exponent
pair (xi, tau): xi the exponents of xi_1, xi_2, ... with no trailing
zero, tau the strictly increasing indices of its tau_t (empty at
p = 2).  A profile hands out each pair beside its degree, which its
builder tracks, so no consumer computes a degree again.  Quotient
families are described by a height function: height h at index i
imposes xi_i^{p^h} = 0 (h = None means no relation), together with a
set of surviving tau indices at odd primes.  Even-only families (the
p = 2 sub-Hopf-algebras generated by the squares xi_i^2) use the same
pairs with the evenness constraint enforced by the profile.

The operator side (the Milnor basis of the Steenrod algebra itself)
needs no type of its own: the basis element Q_E P(R) is dual to the
monomial xi^R tau_E, so its exponents (R, E) name it.
operator_product, at the bottom of the module, multiplies two such
exponent pairs by Milnor's matrix formula and returns exponent pairs,
so a family's operators are its own monomials and the Ext engine
resolves over them.

Profile._generators is the one statement of which generators a family
keeps and of their exponent caps: basis multiplies out their powers,
poincare reads their generating function, and generator_powers lists
the powers xi_i^{p^j} and tau_t with the cross terms of their closed
form diagonal.  No job expands the diagonal or asks whether a given
monomial survives: tests/oracles/diagonal.py holds a monomial type
with names and ordering, the full Milnor diagonal and the membership
rule allows, and the test suite checks the product, the bases and the
cross terms against them.
"""

from bisect import bisect_right
from math import comb

__all__ = [
    "Profile",
    "MAX_FAMILY_HEIGHT",
    "operator_product",
    "elt_add_term",
]


# elements are sparse dicts {key: coefficient mod p}; the keys are May
# monomials, the basis names of a finite module, or the test oracles'
# dual monomials


def elt_add_term(p, acc, key, coef):
    coef %= p
    if not coef:
        return
    cur = (acc.get(key, 0) + coef) % p
    if cur:
        acc[key] = cur
    else:
        acc.pop(key, None)


# ---------------------------------------------------------------------------
# profiles

# largest family height a command line may ask for.  Profile._validate
# is quadratic in the height: on a 2 vCPU host Profile.A(3, 1000) takes
# 1.1 s and Profile.P(2, 3000) 3.8 s, and heights near 10^5 hang before
# any window check.  64 loses nothing: at p = 2 no xi_i with i >= 12
# (degree 2^i - 1 >= 4095) has degree inside a 4096-cell ext window,
# whose internal degrees stop at 2047, and odd-prime degrees are larger
MAX_FAMILY_HEIGHT = 64


class Profile:
    """Quotient family of the dual Steenrod algebra.

    heights: explicit heights for xi_1, xi_2, ...; tail: the height of
    every later generator (0 kills it, None leaves it free).  tau is
    'all', or an iterable of surviving indices, or None at p = 2.
    even_only marks the p = 2 sub-Hopf-families generated by squares.
    """

    def __init__(self, p, heights=(), tail=None, tau=None, even_only=False, label=None):
        self.p = p
        self.heights = tuple(heights)
        if tail not in (0, None):
            raise ValueError("tail height must be 0 or None")
        self.tail = tail
        if p == 2:
            if tau not in (None, frozenset(), ()):
                raise ValueError("tau data requires an odd prime")
            self.tau = None
        else:
            if tau == "all":
                self.tau = "all"
            else:
                self.tau = frozenset(tau or ())
        self.even_only = bool(even_only)
        if even_only and p != 2:
            raise ValueError("even-only families only arise at p = 2")
        self.label = label
        self._validate()

    # family constructors -------------------------------------------------

    @classmethod
    def T(cls, p, n):
        """Dual algebra of the X(p^n) Thom quotient: first n polynomial
        generators become exterior (p = 2) or die (p odd)."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        if p == 2:
            return cls(p, (1,) * n, None, label=f"T({n})-quotient,p=2")
        return cls(p, (0,) * n, None, "all", label=f"T({n})-quotient,p={p}")

    @classmethod
    def A(cls, p, n):
        """Dual of the subalgebra generated by the first n+1 Steenrod
        power operations (and the Bockstein at odd p)."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        if p == 2:
            return cls(p, tuple(n + 2 - i for i in range(1, n + 2)), 0, label=f"A({n})*,p=2")
        heights = tuple(n + 1 - i for i in range(1, n + 1))
        return cls(p, heights, 0, frozenset(range(n + 1)), label=f"A({n})*,p={p}")

    @classmethod
    def E(cls, p, n):
        """Exterior family: E(xi_1..xi_{n+1}) at p = 2, E(tau_0..tau_n) odd."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        if p == 2:
            return cls(p, (1,) * (n + 1), 0, label=f"E({n})*,p=2")
        return cls(p, (0,), 0, frozenset(range(n + 1)), label=f"E({n})*,p={p}")

    @classmethod
    def P(cls, p, n):
        """Polynomial family: duals of the quotients by the Bockstein
        ideal; at p = 2 the even sub-family on xi_i^2."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        heights = tuple(n + 2 - i for i in range(1, n + 2))
        if p == 2:
            return cls(p, heights, 0, even_only=True, label=f"P({n})*,p=2")
        return cls(p, heights, 0, frozenset(), label=f"P({n})*,p={p}")

    # structure ------------------------------------------------------------

    def height(self, i):
        if i <= 0:
            raise ValueError("generator indices start at 1")
        if i <= len(self.heights):
            return self.heights[i - 1]
        return self.tail

    def tau_allowed(self, t):
        if self.p == 2:
            return False
        if self.tau == "all":
            return True
        return t in self.tau

    def _validate(self):
        """Closure of the defining ideal under the Milnor diagonal.

        For xi_i^{p^h} = 0 every diagonal term xi_{i-j}^{p^{j+h}} (x)
        xi_j^{p^h} must die on one side; same shape for killed tau_t.
        """
        finite = [h for h in self.heights if h is not None]
        max_h = max(finite, default=0)
        bound = len(self.heights) + max_h + 2
        for i in range(1, bound + 1):
            h = self.height(i)
            if h is None:
                continue
            for j in range(1, i):
                left_dead = _le_num(self.height(i - j), j + h)
                right_dead = _le_num(self.height(j), h)
                if not (left_dead or right_dead):
                    raise ValueError(
                        f"heights do not define a coideal: xi_{i}^{{p^{h}}} "
                        f"has a surviving diagonal term at j={j}"
                    )
        if self.p != 2 and self.tau != "all":
            tau_bound = bound + max(self.tau, default=0) + 2
            for t in range(tau_bound + 1):
                if self.tau_allowed(t):
                    continue
                for j in range(t):
                    xi_dead = _le_num(self.height(t - j), j)
                    tau_dead = not self.tau_allowed(j)
                    if not (xi_dead or tau_dead):
                        raise ValueError(
                            f"tau set does not define a coideal: killed tau_{t} "
                            f"has a surviving diagonal term at j={j}"
                        )

    def generator_powers(self, max_degree):
        """(key, degree, pair, cross) per generator power the family
        allows through max_degree, pair its exponent pair: xi_i^{p^j}, key
        ("h", i, j), by i then j, then tau_t, key ("a", t, None).  Its
        diagonal (J. Milnor, "The Steenrod algebra and its dual", 1958)
        has distinct terms of coefficient 1,

            psi(xi_i^{p^j}) = sum_{0<=k<=i} xi_{i-k}^{p^{k+j}} (x) xi_k^{p^j},
            psi(tau_t)      = tau_t (x) 1 + sum_{0<=k<=t} xi_{t-k}^{p^k} (x) tau_k,

        and cross keys those, 0 < k < i or 0 <= k < t, whose two factors
        (of lower degree) the family allows.  The powers of a generator
        of _generators are those below its cap; in an even-only family
        the generator is xi_i^2, so its powers start at j = 1."""
        p = self.p
        xis, taus = self._generators(max_degree)
        first = 1 if self.even_only else 0
        powers = {}
        for i, d, cap in xis:
            k = 0
            while d * p**k <= max_degree and (cap is None or p**k < cap):
                powers["h", i, first + k] = d * p**k, ((0,) * (i - 1) + (p ** (first + k),), ())
                k += 1
        for t, d in taus:
            powers["a", t, None] = d, ((), (t,))
        for (kind, i, j), (d, pair) in powers.items():
            if kind == "h":
                cross = [(("h", i - k, k + j), ("h", k, j)) for k in range(1, i)]
            else:
                cross = [(("h", i - k, k), ("a", k, None)) for k in range(i)]
            yield (kind, i, j), d, pair, [c for c in cross if c[0] in powers and c[1] in powers]

    # bases ----------------------------------------------------------------

    def _generators(self, max_degree):
        """The surviving generators of degree <= max_degree: (i, degree,
        exponent cap or None) per xi_i, read as the square xi_i^2 in an
        even-only family, and (t, degree) per tau_t."""
        p = self.p
        step = 2 if self.even_only else 1
        xis = []
        i = 1
        while (d := step * (2**i - 1) if p == 2 else 2 * (p**i - 1)) <= max_degree:
            h = self.height(i)
            if h != 0:
                xis.append((i, d, None if h is None else p**h))
            i += 1
        taus = []
        t = 0
        while p != 2 and (d := 2 * p**t - 1) <= max_degree:
            if self.tau_allowed(t):
                taus.append((t, d))
            t += 1
        return xis, taus

    def basis(self, max_degree):
        """All family monomials of degree <= max_degree as (degree, (xi,
        tau)), sorted by degree, then by name: each generator's powers
        below its cap, multiplied onto the monomials built so far within
        the degree budget."""
        step = 2 if self.even_only else 1
        xis, taus = self._generators(max_degree)
        # (xi exponents, tau indices, degree)
        built = [((), (), 0)]
        for t, d in taus:
            built += [(xi, tau + (t,), deg + d) for xi, tau, deg in built if deg + d <= max_degree]
        for i, d, cap in xis:
            grown = []
            for xi, tau, deg in built:
                grown.append((xi, tau, deg))
                # a positive exponent pads xi to xi_i; zero leaves it bare
                xi += (0,) * (i - 1 - len(xi))
                e = 1
                while deg + e * d <= max_degree and (cap is None or e < cap):
                    grown.append((xi + (e * step,), tau, deg + e * d))
                    e += 1
            built = grown
        return sorted(((deg, (xi, tau)) for xi, tau, deg in built),
                      key=lambda m: (m[0], _monomial_name(*m[1])))

    def poincare(self, max_degree):
        """Family dims by degree through max_degree, from the generating
        function: a factor (1 - q^{cd}) / (1 - q^d) per generator of
        degree d, c being its exponent cap (2 for tau; a free xi drops
        the numerator)."""
        xis, taus = self._generators(max_degree)
        dims = [1] + [0] * max_degree
        for d, cap in [(d, cap) for _, d, cap in xis] + [(d, 2) for _, d in taus]:
            if cap is not None and cap * d <= max_degree:
                for k in range(max_degree, cap * d - 1, -1):
                    dims[k] -= dims[k - cap * d]
            for k in range(d, max_degree + 1):
                dims[k] += dims[k - d]
        return dims

    def __repr__(self):
        return self.label or (
            f"Profile(p={self.p}, heights={self.heights}, tail={self.tail})"
        )


def _monomial_name(xi, tau):
    """The name that orders a degree of the basis: xi1^2*xi3*tau0*tau2,
    1 for the unit."""
    parts = [f"xi{i}" if e == 1 else f"xi{i}^{e}" for i, e in enumerate(xi, 1) if e]
    parts += [f"tau{t}" for t in tau]
    return "*".join(parts) or "1"


def _le_num(a, b):
    """a <= b with None (= infinity) handled, b finite."""
    if a is None:
        return False
    return a <= b


# ---------------------------------------------------------------------------
# operator side: the Milnor product, on the exponent tuples of dual monomials


# each Milnor matrix shape's diagonals and column weights, by (p, rows,
# cols): read-only tuples that depend on the key alone
_SHAPES = {}


def _p_part_products(p, R, S):
    """Milnor matrix expansion of P(R) P(S): [(coef, T)].

    The matrices x, rows 0..len(R) and columns 0..len(S), stored flat
    (x[i][j] at i * cols + j) with x[0][0] unused, row sums
    sum_j p^j x[i][j] = r_i and column sums sum_i x[i][j] = s_j, are
    stepped through in place (Milnor's enumeration, as in SageMath's
    milnor_multiplication): the next matrix moves one unit into the
    first entry (i, j) that can take it from its column above and p^j
    from its row's left part, and resets every entry before (i, j).
    Diagonal n gives t_n, with the multinomial coefficient of its
    entries, folded entry by entry as comb(running total, entry); at
    p = 2 that is 1 when no two entries share a bit (Lucas) and 0
    otherwise.
    """
    rows = len(R) + 1
    cols = len(S) + 1
    shape = _SHAPES.get((p, rows, cols))
    if shape is None:
        # diagonal n >= 1 as the flat cells i * cols + j with i + j = n
        cells = [[i * cols + n - i for i in range(rows) if 0 <= n - i < cols]
                 for n in range(1, rows + cols - 1)]
        shape = _SHAPES[p, rows, cols] = tuple(map(tuple, cells)), tuple(p**j for j in range(cols))
    diagonals, powers = shape
    x = [0, *S]
    for r in R:
        x += [r] + [0] * (cols - 1)
    results = []
    while True:
        T = []
        coef = 1
        for cells in diagonals:
            total = 0
            for c in cells:
                e = x[c]
                if not e:
                    continue
                if p == 2:
                    if total & e:
                        coef = 0
                        break
                    total |= e
                else:
                    total += e
                    coef = coef * comb(total, e) % p
                    if not coef:
                        break
            if not coef:
                break
            T.append(total)
        if coef:
            while T and T[-1] == 0:
                T.pop()
            results.append((coef, tuple(T)))
        for base in range(cols, rows * cols, cols):
            left = x[base]
            for j in range(1, cols):
                # units in column j above this row, the top margin included
                if left >= powers[j] and any(x[j:base:cols]):
                    break
                left += x[base + j] * powers[j]
            else:
                continue
            # rows above and this row left of j go back to their start:
            # each row's weight in column 0, each column's units on top
            for above in range(cols, base, cols):
                for c in range(1, cols):
                    x[c] += x[above + c]
                    x[above + c] = 0
                x[above] = R[above // cols - 1]
            for c in range(1, j):
                x[c] += x[base + c]
                x[base + c] = 0
            x[j] -= 1
            x[base + j] += 1
            x[base] = left - powers[j]
            break
        else:
            return results


def operator_product(p, a, b):
    """Product of the Milnor basis elements named by two exponent pairs
    (xi, tau): {(xi, tau): coef}, each pair read as the element
    Q_E P(R) dual to the monomial xi^R tau_E (at p = 2, where tau is
    empty, Sq(R) dual to xi^R), its xi without trailing zeros and its
    tau strictly increasing.

    Sign convention: this is the dual of the diagonal under the
    unsigned tensor pairing <a (x) b, x' (x) x''> = a(x') b(x''); every
    Koszul sign lives on the coalgebra side.  The usual relations hold:
    exterior generators anticommute, the Bockstein squares to zero, and
    Q_{k+1} = P(p^k) Q_k - Q_k P(p^k).
    """
    (R, qs), (S, fs) = a, b
    # move each exterior factor of b leftwards through P(R):
    # P(R) Q_f = sum_j Q_{f+j} P(R - p^f e_j), the j = 0 term leaving R
    # alone.  Q_q joins the sorted Q's left of the len(qs) - k larger
    # ones, k = bisect_right(qs, q), and a repeated Q_q kills the term
    states = [(1, qs, R)]
    for f in fs:
        need = p**f
        grown = []
        for coef, qs, R in states:
            for j in range(len(R) + 1):
                if j and R[j - 1] < need:
                    continue
                R2 = R[: j - 1] + (R[j - 1] - need,) + R[j:] if j else R
                while R2 and R2[-1] == 0:
                    R2 = R2[:-1]
                k = bisect_right(qs, f + j)
                if k and qs[k - 1] == f + j:
                    continue
                sign = -coef if (len(qs) - k) & 1 else coef
                grown.append((sign, qs[:k] + (f + j,) + qs[k:], R2))
        states = grown
    out = {}
    for sign, qs, R in states:
        for coef, T in _p_part_products(p, R, S):
            key = T, qs
            c = (out.get(key, 0) + sign * coef) % p
            if c:
                out[key] = c
            else:
                del out[key]
    return out
