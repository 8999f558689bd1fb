"""Exact truncated power series and formal group law computations.

Coefficient rings are exact: the rationals, prime fields, and a one
generator Laurent ring over a prime field whose units are the nonzero
monomials.  Series are capped by total degree, the cap is part of the
value, and every binary operation insists on matching caps; silent cap
mixing is the dominant bug class in this kind of arithmetic, so it is
simply outlawed.

The group law type validates unitality, commutativity and
associativity modulo the cap at construction, so any value of that
type in flight is a certified law.  The height-n constructions run
over exact rationals first and reduce mod p behind an integrality
gate, keeping a single code path with a strong internal check.

The ER(n) defect witness reads only two univariate series per height,
the doubling series [2](x) and the formal inverse [-1](x), so it never
builds the bivariate law.  `honda_multiple` solves log(f) = c log(x)
for the Honda logarithm degree by degree on dense rational coefficient
lists, recomputes log(f) a second way to certify the solution, and
reduces mod p behind the same integrality gate.  The bivariate
`honda_fgl` with `m_series` and `formal_inverse` stays as its oracle.
"""

import math
import re
from fractions import Fraction

# ---------------------------------------------------------------------------
# coefficient rings


class RationalField:
    """Exact rational coefficients."""

    characteristic = 0
    kind = "rationals"
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

    def coef_str(self, a) -> str:
        return str(a)

    def parse_coef(self, s):
        return Fraction(s)

    def descriptor(self):
        return {"kind": "rationals"}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "RationalField()"


class PrimeField:
    """Integers mod p, elements stored as ints in [0, p)."""

    kind = "prime_field"
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

    def coef_str(self, a) -> str:
        return str(a % self.characteristic)

    def parse_coef(self, s):
        return int(s) % self.characteristic

    def descriptor(self):
        return {"kind": "prime_field", "p": self.characteristic}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.characteristic == self.characteristic

    def __hash__(self):
        return hash(("prime_field", self.characteristic))

    def __repr__(self):
        return f"PrimeField({self.characteristic})"


class LaurentRing:
    """F_p[g, g^-1] on one generator; elements are exponent-to-coefficient
    maps, and the declared units are exactly the nonzero monomials."""

    kind = "laurent"

    def __init__(self, p: int, generator: str = "v"):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        if not generator.isidentifier():
            raise ValueError(f"bad generator name {generator!r}")
        self.characteristic = p
        self.generator = generator

    @property
    def zero(self):
        return {}

    @property
    def one(self):
        return {0: 1}

    def coerce(self, value):
        p = self.characteristic
        if isinstance(value, dict):
            return {int(e): c % p for e, c in value.items() if c % p}
        if isinstance(value, int):
            v = value % p
            return {0: v} if v else {}
        raise TypeError(f"cannot interpret {value!r} in {self!r}")

    def add(self, a, b):
        p = self.characteristic
        out = dict(a)
        for e, c in b.items():
            v = (out.get(e, 0) + c) % p
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return out

    def neg(self, a):
        p = self.characteristic
        return {e: (-c) % p for e, c in a.items()}

    def mul(self, a, b):
        p = self.characteristic
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                v = (out.get(e, 0) + ca * cb) % p
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return out

    def inv(self, a):
        if len(a) != 1:
            raise ValueError("only monomials are units in a Laurent ring")
        (e, c), = a.items()
        return {-e: pow(c, -1, self.characteristic)}

    def is_zero(self, a):
        return not a

    def is_unit(self, a):
        return len(a) == 1

    def coef_str(self, a) -> str:
        if not a:
            return "0"
        parts = []
        for e in sorted(a, reverse=True):
            c = a[e]
            if e == 0:
                parts.append(str(c))
                continue
            base = self.generator if e == 1 else f"{self.generator}^{e}"
            parts.append(base if c == 1 else f"{c} {base}")
        return " + ".join(parts)

    def parse_coef(self, s):
        s = s.strip()
        if s in ("", "0"):
            return {}
        gen = re.escape(self.generator)
        pat = re.compile(rf"^\s*(\d+)?\s*({gen})?(?:\^(-?\d+))?\s*$")
        acc = {}
        for part in s.split("+"):
            m = pat.match(part)
            if not m or (m.group(1) is None and m.group(2) is None):
                raise ValueError(f"cannot parse coefficient piece {part!r}")
            c = int(m.group(1)) if m.group(1) else 1
            if m.group(2):
                e = int(m.group(3)) if m.group(3) else 1
            elif m.group(3):
                raise ValueError(f"cannot parse coefficient piece {part!r}")
            else:
                e = 0
            acc[e] = acc.get(e, 0) + c
        return self.coerce(acc)

    def descriptor(self):
        return {"kind": "laurent", "p": self.characteristic, "generator": self.generator}

    def __eq__(self, other):
        return (
            isinstance(other, LaurentRing)
            and other.characteristic == self.characteristic
            and other.generator == self.generator
        )

    def __hash__(self):
        return hash(("laurent", self.characteristic, self.generator))

    def __repr__(self):
        return f"LaurentRing({self.characteristic}, {self.generator!r})"


def ring_from_descriptor(data):
    kind = data.get("kind")
    if kind == "rationals":
        return RationalField()
    if kind == "prime_field":
        return PrimeField(int(data["p"]))
    if kind == "laurent":
        return LaurentRing(int(data["p"]), str(data.get("generator", "v")))
    raise ValueError(f"unknown coefficient ring kind {kind!r}")


# ---------------------------------------------------------------------------
# raw term-dict arithmetic, shared by the public type and the three
# variable associativity check


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


def _mono_str(mono, variables) -> str:
    parts = []
    for name, e in zip(variables, mono):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append(f"{name}^{e}")
    return " ".join(parts) if parts else "1"


def _parse_mono(text, variables):
    exps = [0] * len(variables)
    text = text.strip()
    if text == "1":
        return tuple(exps)
    for piece in text.split():
        m = re.match(r"^(\w+)(?:\^(\d+))?$", piece)
        if not m or m.group(1) not in variables:
            raise ValueError(f"bad monomial piece {piece!r}")
        exps[variables.index(m.group(1))] += int(m.group(2)) if m.group(2) else 1
    return tuple(exps)


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

    # serialization -----------------------------------------------------

    def to_json(self):
        order = sorted(self.terms, key=lambda m: (sum(m), m))
        return {
            "ring": self.ring.descriptor(),
            "cap": self.cap,
            "variables": list(self.variables),
            "terms": [
                {"monomial": _mono_str(m, self.variables), "coef": self.ring.coef_str(self.terms[m])}
                for m in order
            ],
        }

    @classmethod
    def from_json(cls, data):
        try:
            ring = ring_from_descriptor(data["ring"])
            cap = int(data["cap"])
            variables = tuple(str(v) for v in data["variables"])
            terms = {}
            for row in data["terms"]:
                mono = _parse_mono(str(row["monomial"]), variables)
                terms[mono] = ring.parse_coef(str(row["coef"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed series data: {exc}") from exc
        return cls(ring, cap, variables, terms)

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
        order = sorted(self.terms, key=lambda m: (sum(m), m))
        shown = [
            f"{self.ring.coef_str(self.terms[m])}*{_mono_str(m, self.variables)}"
            for m in order[:6]
        ]
        if len(order) > 6:
            shown.append("...")
        body = " + ".join(shown) if shown else "0"
        return f"TruncatedSeries({body}; cap {self.cap})"


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

    def to_json(self):
        return self.series.to_json()

    @classmethod
    def from_json(cls, data):
        return cls(TruncatedSeries.from_json(data))

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
            f"leading coefficient {F.ring.coef_str(lead)} of the p-series is "
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


# ---------------------------------------------------------------------------
# univariate multiples of a Honda law, on dense coefficient lists


def _dense_mul(a, b, cap):
    """Product of two coefficient lists of length cap + 1, truncated at
    the cap."""
    out = [0] * (cap + 1)
    for i, ai in enumerate(a):
        if ai:
            for j in range(cap + 1 - i):
                if b[j]:
                    out[i + j] += ai * b[j]
    return out


def _dense_pow(a, e, cap):
    """a^e for e >= 1 by repeated squaring."""
    result = None
    while True:
        if e & 1:
            result = a if result is None else _dense_mul(result, a, cap)
        e >>= 1
        if not e:
            return result
        a = _dense_mul(a, a, cap)


def _solve_log_multiple(log_terms, c, cap):
    """Dense coefficients of f with log(f) = c log(x) through the cap.

    log_terms lists (q, w) for the logarithm's terms w x^q in rising
    degree, starting with (1, 1).  Write f = x u, so u_0 = c.  The
    degree-k coefficient of log(f) is u_(k-1) plus, for each q > 1, w
    times the degree k - q coefficient of u^q, which only involves
    u_0..u_(k-2); so each u_(k-1) is solved outright.  Each power u^q
    grows by J. C. P. Miller's recurrence as soon as the coefficients
    it needs are known.
    """
    target = dict(log_terms)
    higher = log_terms[1:]
    u = [c]
    powers = {q: [c**q] for q, _ in higher}
    for k in range(2, cap + 1):
        acc = c * target.get(k, 0)
        for q, w in higher:
            j = k - q
            if j < 0:
                break
            pw = powers[q]
            if len(pw) == j:
                # j u_0 pw_j = sum over t of ((q + 1) t - j) u_t pw_(j-t)
                s = sum(((q + 1) * t - j) * u[t] * pw[j - t] for t in range(1, j + 1))
                pw.append(s / (j * c))
            acc -= w * pw[j]
        u.append(acc)
    return [Fraction(0)] + u


def _check_log_multiple(log_terms, c, f, cap):
    """Recompute log(f) by plain repeated squaring and refuse unless it
    equals c log(x) through the cap."""
    got = [0] * (cap + 1)
    power, prev = f, 1
    for q, w in log_terms:
        power = _dense_pow(power, q // prev, cap)
        prev = q
        for k in range(q, cap + 1):
            got[k] += w * power[k]
    expected = [0] * (cap + 1)
    for q, w in log_terms:
        expected[q] = c * w
    bad = [k for k in range(cap + 1) if got[k] != expected[k]]
    if bad:
        raise ValueError(
            f"log of the solved series differs from {c} log(x) in degree {bad[0]}; "
            "the series arithmetic is broken"
        )


def honda_multiple(p: int, n: int, c, cap: int) -> TruncatedSeries:
    """The series [c](x) of the height-n Honda law over F_p, to the cap.

    Over the rationals [c](x) = exp(c log x) for the Honda logarithm,
    so it is solved from log(f) = c log(x) without building the
    bivariate law; c is a nonzero rational, and [2](x) and [-1](x),
    the doubling series and the formal inverse, are the cases the
    defect witness reads.  The solution is certified by recomputing
    log(f) independently, then reduced mod p behind the integrality
    gate, which refuses a c whose multiple is not p-integral.
    """
    log = honda_logarithm(p, n, cap)
    c = Fraction(c)
    if not c:
        raise ValueError("the multiple must be nonzero")
    log_terms = sorted((q, w) for (q,), w in log.terms.items())
    f = _solve_log_multiple(log_terms, c, cap)
    _check_log_multiple(log_terms, c, f, cap)
    reduced = _reduce_mod_p({(k,): v for k, v in enumerate(f) if v}, p)
    return TruncatedSeries._make(PrimeField(p), cap, ("x",), reduced)


# ---------------------------------------------------------------------------
# coordinate changes and the defect witness


def coordinate_change(F: FormalGroupLaw, c: TruncatedSeries) -> FormalGroupLaw:
    """Transport the law along c: the result is c(F(c^{-1}x, c^{-1}y)).

    c must be univariate over the same ring and cap, kill the constant
    term, and have a unit linear coefficient so that it is invertible.
    """
    if len(c.variables) != 1:
        raise ValueError("coordinate changes are univariate")
    if c.ring != F.ring or c.cap != F.cap:
        raise ValueError("coordinate change must match the law's ring and cap")
    if not F.ring.is_zero(c.constant_term()):
        raise ValueError("coordinate changes fix the origin")
    if not F.ring.is_unit(c.coefficient((1,))):
        raise ValueError("coordinate change is not invertible")
    u = compositional_inverse(c)
    ux = TruncatedSeries._make(
        F.ring, F.cap, ("x", "y"), {(e, 0): v for (e,), v in u.terms.items()}
    )
    uy = TruncatedSeries._make(
        F.ring, F.cap, ("x", "y"), {(0, e): v for (e,), v in u.terms.items()}
    )
    return FormalGroupLaw(c.substitute(F.series.substitute(ux, uy)))


def conjugate_fgl(F: FormalGroupLaw) -> FormalGroupLaw:
    """Conjugate the law by the negated formal inverse.

    This is the coordinate change a complex orientation picks up under
    conjugation; it is an involution, and over a characteristic-two
    ring (where negation is trivial and the inverse is a homomorphism)
    it fixes the law outright.
    """
    return coordinate_change(F, -formal_inverse(F))


def er_defect_witness(n: int, cap=None):
    """Power-series form of both halves of the height-n defect bound
    for the real fixed point theories at p = 2, value 2^n.

    Upper bound: for every height h <= n law the doubling series
    [2](x) carries a unit coefficient in degree 2^h <= 2^n, so a
    formal inverse congruent to x through degree 2^n would force the
    doubling series to vanish there, a contradiction; the report
    records both the doubling degrees and the failure of each jet
    congruence.  Lower bound: at height n itself the formal inverse
    agrees with x through degree 2^n - 1 and first deviates exactly at
    2^n, exhibiting the nontrivial strict jet.  The witness
    instantiates the bound at the height-h points over F_2 only; the
    statement over an arbitrary base with the top unit inverted is not
    certified by this computation.

    Both series come from `honda_multiple`, which solves them from the
    Honda logarithm without building the bivariate law.  Every call
    certifies them twice: log([c](x)) is recomputed independently and
    must equal c log(x) through the cap, and the 2-integrality gate
    guards the reduction to F_2.  `m_series(honda_fgl(2, h, cap), 2)`
    and `formal_inverse(honda_fgl(2, h, cap))` compute the same series
    from the validated bivariate law and serve as the oracle.
    """
    if n < 1:
        raise ValueError("height must be at least 1")
    target = 2**n
    if cap is None:
        cap = target + 8
    if cap < target + 1:
        raise ValueError(f"cap {cap} cannot see degree {target}; need at least {target + 1}")
    x = TruncatedSeries.variable(PrimeField(2), cap)
    doubling = {}
    obstructed = {}
    upper = True
    deviation = None
    lower = False
    for h in range(1, n + 1):
        two = honda_multiple(2, h, 2, cap)
        inv = honda_multiple(2, h, -1, cap)
        doubling[h] = two.min_degree()
        obstructed[h] = not jet_equal(inv, x, target)
        upper = upper and doubling[h] == 2**h and obstructed[h]
        if h == n:
            deviation = (inv - x).min_degree()
            lower = jet_equal(inv, x, target - 1) and deviation == target
    return {
        "n": n,
        "cap": cap,
        "doubling_degrees": doubling,
        "inverse_obstructed": obstructed,
        "inverse_deviation_degree": deviation,
        "upper_bound_ok": upper,
        "lower_bound_ok": lower,
    }
