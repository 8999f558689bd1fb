"""Cyclotomic ramification valuations and defect formulas for fixed
point theories of Morava E-theory under finite cyclic subgroups: the
element-by-element enumeration the package used before it read the
defect off its closed form.  `chromadefect.defect.eo_defect` must give
the N and the refusal of this module's SubgroupSpec, group_N and
eo_defect on every spec.

The ambient facts: the p^n-th cyclotomic extension of the p-adics is
totally ramified of degree p^(n-1)(p-1), the valuation normalized by
v(p) = 1 gives v(zeta - 1) = 1/(p^(n-1)(p-1)) for a primitive root,
and a cyclic subgroup of the endomorphism units of a height-h formal
group exists exactly when that degree divides h.  The defect of the
fixed point theory is then p to the integer h * max v(g - 1) over the
nontrivial subgroup elements.

Every such valuation is a unit fraction 1/e, with e the ramification
degree of the subfield g generates, so a valuation is carried as the
integer e and everything is integer arithmetic: the largest
valuation is the smallest degree, and N = h / e is an exact quotient.
"""

from chromadefect.gradedlin import check_prime


class CycloElement:
    """A power zeta^k of the chosen primitive p^n-th root of unity."""

    __slots__ = ("p", "n", "k")

    def __init__(self, p: int, n: int, k: int):
        check_prime(p)
        if n < 1:
            raise ValueError("root order exponent must be at least 1")
        self.p = p
        self.n = n
        self.k = k % p**n

    def __repr__(self):
        return f"CycloElement(zeta_{self.p}^{self.n} power {self.k})"

    def __eq__(self, other):
        return (
            isinstance(other, CycloElement)
            and (self.p, self.n, self.k) == (other.p, other.n, other.k)
        )

    def __hash__(self):
        return hash((self.p, self.n, self.k))


def cyclo_valuation(e: CycloElement) -> int:
    """The degree d with v(zeta^k - 1) = 1/d, under the normalization
    v(p) = 1.

    zeta^k is a primitive p^(n-j)-th root for j the p-adic valuation
    of k, and the extension is totally ramified, so the valuation is
    1/(p^(n-1-j)(p-1)) and d = p^(n-1-j)(p-1) is the ramification
    degree of Q_p(zeta^k).  k = 0 names the element zero and has no
    finite valuation here.
    """
    if e.k == 0:
        raise ValueError("zeta^k = 1; the difference is zero and has no valuation")
    p, k = e.p, e.k
    j = 0
    while k % p == 0:
        k //= p
        j += 1
    return p ** (e.n - 1 - j) * (p - 1)


def embedding_admissible(degree: int, height: int) -> bool:
    """Whether a p-adic field of the given degree embeds into the
    endomorphism division algebra at the given height: the degree must
    divide the height."""
    if degree < 1 or height < 1:
        raise ValueError("degree and height must be positive")
    return height % degree == 0


class SubgroupSpec:
    """A cyclic group of order p^m acting on a height-h formal group.

    The group is generated by a primitive p^m-th root of unity inside
    the endomorphism algebra, which exists exactly when p^(m-1)(p-1)
    divides the height.  `valuations` maps each exponent k of a
    nontrivial element to the degree cyclo_valuation gives: the
    element's valuation is its reciprocal.
    """

    __slots__ = ("p", "m", "height", "valuations")

    def __init__(self, p: int, m: int, height: int):
        check_prime(p)
        if m < 0:
            raise ValueError("the order exponent must be nonnegative")
        if height < 1:
            raise ValueError("height must be positive")
        self.p = p
        self.m = m
        self.height = height
        if m == 0:
            self.valuations = {}
            return
        ramification = p ** (m - 1) * (p - 1)
        if not embedding_admissible(ramification, height):
            raise ValueError(
                f"no embedding: the cyclotomic degree {ramification} does not "
                f"divide the height {height}"
            )
        self.valuations = {
            k: cyclo_valuation(CycloElement(p, m, k)) for k in range(1, p**m)
        }

    @property
    def order(self) -> int:
        return self.p**self.m

    def __repr__(self):
        return f"SubgroupSpec(C_{self.order} at height {self.height})"


def group_N(G: SubgroupSpec) -> int:
    """height * max element valuation, certified to be an integer.

    The largest valuation 1/e belongs to the smallest degree e, so N is
    height / e.  The Serre divisibility makes the quotient exact for
    every constructible spec; the remainder check stays as a tripwire
    against a wrong valuation.
    """
    if not G.valuations:
        raise ValueError(
            "the trivial group has no elements away from the identity; "
            "its fixed points are complex orientable with defect 1"
        )
    degree = min(G.valuations.values())
    N, rem = divmod(G.height, degree)
    if rem:
        raise ValueError(
            f"N = {G.height}/{degree} is not an integer; the table is inconsistent"
        )
    return N


def eo_defect(G: SubgroupSpec) -> dict:
    """The defect p^N of the fixed point theory, with its p-logarithm.

    The trivial group gives complex orientable fixed points: defect 1,
    logarithm 0, no N.
    """
    if not G.valuations:
        return {
            "p": G.p,
            "order": 1,
            "height": G.height,
            "N": None,
            "phi": 1,
            "phi_p": 0,
        }
    N = group_N(G)
    return {
        "p": G.p,
        "order": G.order,
        "height": G.height,
        "N": N,
        "phi": G.p**N,
        "phi_p": N,
    }
