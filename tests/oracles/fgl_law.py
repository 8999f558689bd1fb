"""The bivariate Honda formal group law: the reference for the
univariate series that `chromadefect.fgl` solves.

Series are exact and capped by total degree; the cap is part of the
value and every binary operation insists on matching caps.  The group
law type validates unitality, commutativity and associativity modulo
the cap at construction.  `honda_fgl` exponentiates the Honda logarithm
over the rationals, substitutes log(x) + log(y), and reduces mod p
behind an integrality gate; `m_series` and `formal_inverse` then read
[m](x) and [-1](x) off the validated law.  None of this shares code
with the package's dense-list solver.
"""

import math
from fractions import Fraction


class RationalField:
    """Exact rational coefficients."""

    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"cannot interpret {value!r} as a rational")

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def is_zero(self, a):
        return not a

    def is_unit(self, a):
        return bool(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "RationalField()"


class PrimeField:
    """Integers mod p, elements stored as ints in [0, p)."""

    zero = 0
    one = 1

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.characteristic = p

    def coerce(self, value):
        if isinstance(value, int):
            return value % self.characteristic
        raise TypeError(f"cannot interpret {value!r} mod {self.characteristic}")

    def add(self, a, b):
        return (a + b) % self.characteristic

    def neg(self, a):
        return (-a) % self.characteristic

    def mul(self, a, b):
        return (a * b) % self.characteristic

    def inv(self, a):
        return pow(a, -1, self.characteristic)

    def is_zero(self, a):
        return a % self.characteristic == 0

    def is_unit(self, a):
        return a % self.characteristic != 0

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.characteristic == self.characteristic

    def __hash__(self):
        return hash(("prime_field", self.characteristic))

    def __repr__(self):
        return f"PrimeField({self.characteristic})"


def _mul_raw(ring, cap, a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            mono = tuple(i + j for i, j in zip(ea, eb))
            if sum(mono) > cap:
                continue
            v = ring.add(out.get(mono, ring.zero), ring.mul(ca, cb))
            if ring.is_zero(v):
                out.pop(mono, None)
            else:
                out[mono] = v
    return out


def _subs_raw(ring, cap, outer, reps, arity):
    """Sum of coef * prod reps[i]^e_i over the outer terms; each rep is
    a raw dict in arity variables with zero constant term."""
    unit = {(0,) * arity: ring.one}
    powers = [[unit, dict(rep)] for rep in reps]

    def power(i, e):
        while len(powers[i]) <= e:
            powers[i].append(_mul_raw(ring, cap, powers[i][-1], powers[i][1]))
        return powers[i][e]

    acc = {}
    for mono, coef in outer.items():
        piece = unit
        for i, e in enumerate(mono):
            if e:
                piece = _mul_raw(ring, cap, piece, power(i, e))
                if not piece:
                    break
        for m2, c2 in piece.items():
            v = ring.add(acc.get(m2, ring.zero), ring.mul(coef, c2))
            if ring.is_zero(v):
                acc.pop(m2, None)
            else:
                acc[m2] = v
    return acc


class TruncatedSeries:
    """Power series in one or two variables, truncated at a total degree.

    terms maps exponent tuples to nonzero ring elements; nothing above
    the cap is ever stored.
    """

    __slots__ = ("ring", "cap", "variables", "terms")

    def __init__(self, ring, cap, variables, terms):
        variables = tuple(variables)
        if cap < 1:
            raise ValueError("cap must be at least 1")
        if not 1 <= len(variables) <= 2 or len(set(variables)) != len(variables):
            raise ValueError("series take one or two distinct variables")
        clean = {}
        for mono, coef in terms.items():
            mono = (mono,) if isinstance(mono, int) else tuple(mono)
            if len(mono) != len(variables) or any(e < 0 for e in mono):
                raise ValueError(f"monomial {mono} does not fit variables {variables}")
            if sum(mono) > cap:
                raise ValueError(f"monomial {mono} lies above the cap {cap}")
            coef = ring.coerce(coef)
            if not ring.is_zero(coef):
                clean[mono] = coef
        self.ring = ring
        self.cap = cap
        self.variables = variables
        self.terms = clean

    @classmethod
    def _make(cls, ring, cap, variables, raw):
        obj = object.__new__(cls)
        obj.ring = ring
        obj.cap = cap
        obj.variables = tuple(variables)
        obj.terms = {
            m: c for m, c in raw.items() if sum(m) <= cap and not ring.is_zero(c)
        }
        return obj

    @classmethod
    def zero(cls, ring, cap, variables=("x",)):
        return cls._make(ring, cap, variables, {})

    @classmethod
    def variable(cls, ring, cap, name="x", variables=None):
        variables = tuple(variables) if variables else (name,)
        idx = variables.index(name)
        mono = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls._make(ring, cap, variables, {mono: ring.one})

    def coefficient(self, mono):
        mono = (mono,) if isinstance(mono, int) else tuple(mono)
        return self.terms.get(mono, self.ring.zero)

    def constant_term(self):
        return self.coefficient((0,) * len(self.variables))

    def min_degree(self):
        """Smallest total degree carrying a term, None for the zero series."""
        if not self.terms:
            return None
        return min(sum(m) for m in self.terms)

    def truncate(self, cap):
        if cap > self.cap:
            raise ValueError("can only lower the cap")
        return TruncatedSeries._make(self.ring, cap, self.variables, self.terms)

    def _guard(self, other):
        if self.ring != other.ring:
            raise ValueError("coefficient rings differ")
        if self.cap != other.cap:
            raise ValueError(f"cap mismatch: {self.cap} vs {other.cap}")
        if self.variables != other.variables:
            raise ValueError("variable sets differ")

    def __add__(self, other):
        self._guard(other)
        ring = self.ring
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = ring.add(out.get(m, ring.zero), c)
            if ring.is_zero(v):
                out.pop(m, None)
            else:
                out[m] = v
        return TruncatedSeries._make(ring, self.cap, self.variables, out)

    def __neg__(self):
        ring = self.ring
        return TruncatedSeries._make(
            ring, self.cap, self.variables, {m: ring.neg(c) for m, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        ring = self.ring
        c = ring.coerce(c)
        return TruncatedSeries._make(
            ring, self.cap, self.variables, {m: ring.mul(c, v) for m, v in self.terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._guard(other)
            raw = _mul_raw(self.ring, self.cap, self.terms, other.terms)
            return TruncatedSeries._make(self.ring, self.cap, self.variables, raw)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def substitute(self, *reps):
        """Plug one series per variable; the replacements must share the
        ring and cap, agree on variables among themselves, and have no
        constant term."""
        if len(reps) != len(self.variables):
            raise ValueError(f"need {len(self.variables)} replacement series")
        first = reps[0]
        for rep in reps:
            if rep.ring != self.ring:
                raise ValueError("coefficient rings differ")
            if rep.cap != self.cap:
                raise ValueError(f"cap mismatch: {self.cap} vs {rep.cap}")
            if rep.variables != first.variables:
                raise ValueError("replacement series disagree on variables")
            if not self.ring.is_zero(rep.constant_term()):
                raise ValueError("substitution needs a zero constant term")
        raw = _subs_raw(
            self.ring,
            self.cap,
            self.terms,
            [rep.terms for rep in reps],
            len(first.variables),
        )
        return TruncatedSeries._make(self.ring, self.cap, first.variables, raw)

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.ring == other.ring
            and self.cap == other.cap
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.cap, self.variables, frozenset(self.terms)))

    def __repr__(self):
        return f"TruncatedSeries({self.terms}; cap {self.cap})"


def jet_equal(f: TruncatedSeries, g: TruncatedSeries, n: int) -> bool:
    """Coefficientwise agreement through total degree n.

    The caps may differ but both must reach n, otherwise agreement
    beyond what is stored would be asserted blindly.
    """
    if f.ring != g.ring or f.variables != g.variables:
        raise ValueError("jet comparison needs a common ring and variables")
    if n < 0:
        raise ValueError("jet degree must be nonnegative")
    if f.cap < n or g.cap < n:
        raise ValueError(f"jet degree {n} exceeds a cap")
    for mono in set(f.terms) | set(g.terms):
        if sum(mono) <= n and f.terms.get(mono) != g.terms.get(mono):
            return False
    return True


def compositional_inverse(f: TruncatedSeries) -> TruncatedSeries:
    """g with f(g(x)) = x to the cap, solved degree by degree.

    f must be univariate with zero constant term and a unit linear
    coefficient; each pass kills the lowest surviving error term, whose
    update is scaled by the inverse of that linear unit.
    """
    ring, cap = f.ring, f.cap
    if len(f.variables) != 1:
        raise ValueError("compositional inverse only applies to one variable")
    if not ring.is_zero(f.constant_term()):
        raise ValueError("the constant term must vanish")
    lead = f.coefficient((1,))
    if not ring.is_unit(lead):
        raise ValueError("the linear coefficient must be a unit")
    u = ring.inv(lead)
    g = TruncatedSeries._make(ring, cap, ("x",), {(1,): u})
    x = TruncatedSeries.variable(ring, cap)
    for k in range(2, cap + 1):
        err = f.substitute(g) - x
        c = err.coefficient((k,))
        if not ring.is_zero(c):
            g = g - TruncatedSeries._make(ring, cap, ("x",), {(k,): ring.mul(u, c)})
    return g


# ---------------------------------------------------------------------------
# formal group laws


class FormalGroupLaw:
    """A commutative one dimensional group law modulo the cap.

    Wraps a bivariate series in x and y; unitality along both axes,
    commutativity, and associativity in three capped variables are
    validated at construction and never rechecked.
    """

    __slots__ = ("series", "ring", "cap")

    def __init__(self, series: TruncatedSeries):
        if series.variables != ("x", "y"):
            raise ValueError("a formal group law is a series in x and y")
        self.series = series
        self.ring = series.ring
        self.cap = series.cap
        self._validate()

    def _validate(self):
        ring = self.ring
        terms = self.series.terms
        for axis in (0, 1):
            edge = {m[axis]: c for m, c in terms.items() if m[1 - axis] == 0}
            if edge != {1: ring.one}:
                raise ValueError("the law does not restrict to the identity on an axis")
        for (i, j), c in terms.items():
            if terms.get((j, i)) != c:
                raise ValueError(f"the law is not commutative at x^{i} y^{j}")
        one = ring.one
        x3 = {(1, 0, 0): one}
        y3 = {(0, 1, 0): one}
        z3 = {(0, 0, 1): one}
        f_xy = _subs_raw(ring, self.cap, terms, [x3, y3], 3)
        f_yz = _subs_raw(ring, self.cap, terms, [y3, z3], 3)
        left = _subs_raw(ring, self.cap, terms, [f_xy, z3], 3)
        right = _subs_raw(ring, self.cap, terms, [x3, f_yz], 3)
        if left != right:
            raise ValueError("the law is not associative to the cap")

    def apply(self, f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
        """The formal sum of two series in the same variables."""
        return self.series.substitute(f, g)

    def x(self) -> TruncatedSeries:
        return TruncatedSeries.variable(self.ring, self.cap)

    @classmethod
    def additive(cls, ring, cap):
        series = TruncatedSeries(ring, cap, ("x", "y"), {(1, 0): ring.one, (0, 1): ring.one})
        return cls(series)

    @classmethod
    def multiplicative(cls, ring, cap):
        series = TruncatedSeries(
            ring, cap, ("x", "y"),
            {(1, 0): ring.one, (0, 1): ring.one, (1, 1): ring.one},
        )
        return cls(series)

    def __eq__(self, other):
        return isinstance(other, FormalGroupLaw) and self.series == other.series

    def __hash__(self):
        return hash(self.series)

    def __repr__(self):
        return f"FormalGroupLaw({self.series!r})"


def m_series(F: FormalGroupLaw, m: int) -> TruncatedSeries:
    """The m-fold formal sum of x: zero for m = 0, F(x, [m-1](x))
    above, and the formal inverse composed with [-m] below."""
    x = F.x()
    if m < 0:
        return formal_inverse(F).substitute(m_series(F, -m))
    out = TruncatedSeries.zero(F.ring, F.cap)
    for _ in range(m):
        out = F.apply(x, out)
    return out


def formal_inverse(F: FormalGroupLaw) -> TruncatedSeries:
    """The series i with F(x, i(x)) = 0 to the cap.

    Solved degreewise: the partial derivative of F in its second slot
    has constant term one, so adding d*x^k to i moves the degree-k
    error by exactly d and the lowest error term can be cancelled
    outright, no division needed.
    """
    ring, cap = F.ring, F.cap
    x = F.x()
    inv = -x
    for k in range(2, cap + 1):
        err = F.apply(x, inv)
        c = err.coefficient((k,))
        if not ring.is_zero(c):
            inv = inv - TruncatedSeries._make(ring, cap, ("x",), {(k,): c})
    return inv


def height(F: FormalGroupLaw):
    """Least k with [p](x) = unit * x^(p^k) + higher, or math.inf.

    Only defined over rings of prime characteristic.  math.inf means
    the p-series vanished up to the cap, which certifies nothing more
    than height > log_p(cap).  A lowest surviving coefficient that is
    not a declared unit, or that sits in a degree that is not a power
    of p, leaves the height indeterminate over the given ring.
    """
    p = F.ring.characteristic
    if not p:
        raise ValueError("height needs a coefficient ring of prime characteristic")
    ps = m_series(F, p)
    d = ps.min_degree()
    if d is None:
        return math.inf
    k, t = 0, 1
    while t < d:
        t *= p
        k += 1
    if t != d:
        raise ValueError(
            f"leading degree {d} of the p-series is not a power of {p}; "
            "height indeterminate"
        )
    lead = ps.coefficient((d,))
    if not F.ring.is_unit(lead):
        raise ValueError(
            f"leading coefficient {lead} of the p-series is "
            "not a declared unit; height indeterminate over this ring"
        )
    return k


# ---------------------------------------------------------------------------
# Honda constructions


def honda_logarithm(p: int, n: int, cap: int) -> TruncatedSeries:
    """x + x^(p^n)/p + x^(p^2n)/p^2 + ... over the rationals."""
    if n < 1 or cap < 1:
        raise ValueError("need n >= 1 and cap >= 1")
    PrimeField(p)  # primality gate
    terms = {}
    i = 0
    while p ** (n * i) <= cap:
        terms[(p ** (n * i),)] = Fraction(1, p**i)
        i += 1
    return TruncatedSeries(RationalField(), cap, ("x",), terms)


def honda_fgl(p: int, n: int, cap: int) -> FormalGroupLaw:
    """The height-n p-typical law over F_p, to the cap.

    Exponentiates the logarithm over exact rationals, refuses any
    coefficient with p in its denominator (the construction is
    p-integral, so a hit here means the arithmetic itself broke), and
    reduces mod p.
    """
    log = honda_logarithm(p, n, cap)
    exp = compositional_inverse(log)
    ring = log.ring
    lift_x = TruncatedSeries._make(
        ring, cap, ("x", "y"), {(e, 0): c for (e,), c in log.terms.items()}
    )
    lift_y = TruncatedSeries._make(
        ring, cap, ("x", "y"), {(0, e): c for (e,), c in log.terms.items()}
    )
    rational = exp.substitute(lift_x + lift_y)
    reduced = _reduce_mod_p(rational.terms, p)
    return FormalGroupLaw(TruncatedSeries._make(PrimeField(p), cap, ("x", "y"), reduced))


def _reduce_mod_p(terms, p):
    """Reduce rational coefficients mod p, refusing any with p in the
    denominator: the Honda constructions are p-integral, so a hit here
    means the arithmetic itself broke."""
    reduced = {}
    for mono, c in terms.items():
        if c.denominator % p == 0:
            raise ValueError(
                f"coefficient {c} at {mono} is not {p}-integral; "
                "the exponential arithmetic is broken"
            )
        reduced[mono] = (c.numerator * pow(c.denominator, -1, p)) % p
    return reduced
