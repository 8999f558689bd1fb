"""The ER(n) defect witness from univariate Honda series.

The witness reads two series per height h <= n of the height-h Honda
formal group law over F_2: the doubling series [2](x) and the formal
inverse [-1](x).  Over the rationals [c](x) = exp(c log x) for the
Honda logarithm x + x^(p^h)/p + x^(p^2h)/p^2 + ..., so
`honda_multiple` solves log(f) = c log(x) degree by degree, recomputes
log(f) a second way to certify the solution, and reduces mod p behind
an integrality gate.  None of this needs a rational number.  For
c = a/b and M = p b the solution is f(x) = x c v(x) with v(Mx) a
series of integers, so the solve, the power recurrence and the
recomputation run on plain lists of Python ints indexed by degree,
and only the gate divides, by b M^j in degree j + 1.  The bivariate
law is never built.  The validated bivariate law, with its multiples
read off by substitution, and the rational solver this module
replaced are the test suite's oracles for these series.  The ER(n)
witness solves height h's two series only through degree 2^h + 1,
which decides its answers whatever its cap, and shares them across
heights.  The `fgl` job (fgl_job) writes the witness.
"""

from math import gcd
from operator import mul

from . import InputError
from .charts import json_bytes
from .gradedlin import check_prime

__all__ = ["honda_multiple", "er_defect_witness", "er_defect_witnesses", "fgl_job"]


def _honda_log_terms(p, n, cap):
    """(q, p^(q-1-i)) for the terms x^q/p^i of the Honda logarithm
    x + x^(p^n)/p + x^(p^2n)/p^2 + ... through the cap, in rising
    degree.  The second entry is the term's integer weight once degree
    j is scaled by M^j (see `honda_multiple`); q - 1 >= i always."""
    if n < 1 or cap < 1:
        raise ValueError("need n >= 1 and cap >= 1")
    check_prime(p)
    terms = []
    i = 0
    while p ** (n * i) <= cap:
        q = p ** (n * i)
        terms.append((q, p ** (q - 1 - i)))
        i += 1
    return terms


def _dense_square(a, top):
    """The square of a coefficient list of length at least top + 1,
    truncated after degree top, with half the products of a general
    product: degree k sums a_i a_(k-i) once for each i < k - i and
    doubles it, then adds a_(k/2)^2 when k is even."""
    out = []
    for k in range(top + 1):
        half = (k + 1) // 2
        s = 2 * sum(map(mul, a[:half], a[k : k - half : -1]))
        out.append(s if k & 1 else s + a[half] * a[half])
    return out


def _dense_pow(a, e, top):
    """a^e for e >= 1 by repeated squaring, truncated after degree
    top.  The log check raises to powers of p, so only odd p reaches
    the general product."""
    result = None
    while True:
        if e & 1:
            result = a if result is None else [
                sum(map(mul, result[: k + 1], a[k::-1])) for k in range(top + 1)
            ]
        e >>= 1
        if not e:
            return result
        a = _dense_square(a, top)


def _solve_log_multiple(log_terms, c, cap):
    """The scaled solution of log(f) = c log(x) through the cap, as a
    list whose entry k is the integer V_(k-1) with f_k = a V_(k-1) /
    (b M^(k-1)); entry 0 is 0.

    log_terms comes from `_honda_log_terms`.  Write f = x c v, so
    v_0 = 1, and V_j = v_j M^j.  The degree-k equation solves V_(k-1)
    outright: it is b^(k-1) r_k minus, for each term (q, r_q) with
    q > 1, a^(q-1) r_q times the degree k - q coefficient of V^q,
    where r_k is the weight of a logarithm term in degree k and 0
    elsewhere.  That coefficient only involves V_0..V_(k-2).  Each
    power V^q grows by J. C. P. Miller's recurrence as soon as the
    coefficients it needs are known; its division by j is exact, since
    V^q has integer coefficients and V_0 = 1.
    """
    a, b = c.numerator, c.denominator
    target = {q: b ** (q - 1) * r for q, r in log_terms}
    higher = [(q, a ** (q - 1) * r) for q, r in log_terms[1:]]
    v = [1]
    tv = [0]  # t V_t, for Miller's recurrence
    powers = {q: [1] for q, _ in higher}
    for k in range(2, cap + 1):
        acc = target.get(k, 0)
        for q, weight in higher:
            j = k - q
            if j < 0:
                break
            pw = powers[q]
            if len(pw) == j:
                # j pw_j = sum over t >= 1 of ((q + 1) t - j) V_t pw_(j-t)
                rev = pw[j - 1 :: -1]
                s = (q + 1) * sum(map(mul, tv[1 : j + 1], rev)) - j * sum(
                    map(mul, v[1 : j + 1], rev)
                )
                quo, rem = divmod(s, j)
                if rem:
                    raise ValueError(
                        f"degree {j} of a power of the solved series is not integral; "
                        "the series arithmetic is broken"
                    )
                pw.append(quo)
            acc -= weight * pw[j]
        tv.append((k - 1) * acc)
        v.append(acc)
    return [0] + v


def _check_log_multiple(log_terms, c, f, cap):
    """Recompute log(f) by plain repeated squaring of the scaled series
    and refuse unless it equals c log(x) through the cap.

    With V(x) the scaled series, log(f(Mx)) = c log(Mx) divided by
    c M x reads: the sum over terms (q, r) of a^(q-1) r x^(q-1) V^q
    equals the sum of b^(q-1) r x^(q-1), an identity of integer series.
    """
    a, b = c.numerator, c.denominator
    got = [0] * (cap + 1)
    expected = [0] * (cap + 1)
    power, prev = f[1:], 1
    for q, r in log_terms:
        top = cap - q
        power = _dense_pow(power, q // prev, top)
        prev = q
        weight = a ** (q - 1) * r
        for j in range(top + 1):
            got[q + j] += weight * power[j]
        expected[q] = b ** (q - 1) * r
    bad = [k for k in range(cap + 1) if got[k] != expected[k]]
    if bad:
        raise ValueError(
            f"log of the solved series differs from {c} log(x) in degree {bad[0]}; "
            "the series arithmetic is broken"
        )


def _reduce_mod_p(f, p, c):
    """Reduce the coefficients a V_(k-1) / (b M^(k-1)) of the scaled
    solution mod p, refusing any with p in the denominator: a hit here
    means c has no p-adic multiple, or the arithmetic itself broke."""
    a, b = c.numerator, c.denominator
    e = 0
    while b % p ** (e + 1) == 0:
        e += 1
    unit_inverse = pow(b // p**e, -1, p)
    reduced = [0]
    for k in range(1, len(f)):
        # b M^(k-1) = b^k p^(k-1): p-part p^(k e + k - 1)
        num = a * f[k]
        quo, rem = divmod(num, p ** (k * e + k - 1))
        if rem:
            den = b**k * p ** (k - 1)
            g = gcd(num, den)
            raise ValueError(
                f"coefficient {num // g}/{den // g} in degree {k} is not {p}-integral; "
                "the exponential arithmetic is broken"
            )
        reduced.append(quo * pow(unit_inverse, k, p) % p)
    return reduced


def honda_multiple(p: int, n: int, c, cap: int) -> list:
    """The series [c](x) of the height-n Honda law over F_p, to the cap,
    as its coefficient list: entry k is the coefficient of x^k mod p.

    c = a/b is a nonzero rational, given as an int, a Fraction or any
    number whose `numerator` and `denominator` are ints with b > 0; a
    float or a string is refused.  [2](x) and [-1](x), the doubling
    series and the formal inverse, are the cases the defect witness
    reads.  With M = p b the solution is x c v(x), and the series
    V(x) = v(Mx) has integer coefficients: its recurrence
    (`_solve_log_multiple`) uses ring operations only, with integer
    coefficients a^(q-1) p^(q-1-i) and b^(q-1) p^(q-1-i), plus Miller's
    division by j, which is exact because V_0 = 1.  The solution is
    certified by recomputing log(f) independently on the same integers,
    then reduced mod p behind the integrality gate, which reads the
    coefficient of x^(j+1) as a V_j / (b M^j) and refuses a c whose
    multiple is not p-integral.  All three stop at the cap.
    """
    log_terms = _honda_log_terms(p, n, cap)
    a, b = getattr(c, "numerator", None), getattr(c, "denominator", None)
    if not (isinstance(a, int) and isinstance(b, int) and b > 0):
        raise ValueError(f"the multiple {c!r} must be an int or a Fraction")
    if not a:
        raise ValueError("the multiple must be nonzero")
    f = _solve_log_multiple(log_terms, c, cap)
    _check_log_multiple(log_terms, c, f, cap)
    return _reduce_mod_p(f, p, c)


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

    Its answers hold through the cap the report names, but height h's
    series are solved, log-checked and gated (`honda_multiple`) only
    through degree 2^h + 1.  A cap below 2^n + 1 is an InputError.
    """
    return er_defect_witnesses({n: cap})[n]


def er_defect_witnesses(caps):
    """{n: er_defect_witness(n, cap)} for a map {n: cap}, a cap of None
    meaning 2^n + 8.  Height h's [2](x) and [-1](x) are solved once,
    through degree 2^h + 1 <= cap: doubling[h] is the first nonzero of
    [2](x), at 2^h, and the first deviation of [-1](x) from x, at 2^h
    <= 2^n, decides obstructed[h] and, at h = n, the deviation and the
    lower bound.  A prefix that leaves one undecided is refused."""
    caps = {n: 2**n + 8 if cap is None else cap for n, cap in caps.items()}
    for n, cap in caps.items():
        if n < 1:
            raise ValueError("height must be at least 1")
        if cap < 2**n + 1:
            raise InputError(f"cap {cap} cannot see degree {2**n}; need at least {2**n + 1}")
    x = [0, 1] + [0] * 2 ** max(caps)
    doubling, deviation = {}, {}
    for h in range(1, max(caps) + 1):
        top = 2**h + 1
        for c, base, first in ((2, [0] * (top + 1), doubling), (-1, x, deviation)):
            f = honda_multiple(2, h, c, top)
            first[h] = next((k for k, (a, b) in enumerate(zip(f, base)) if a != b), None)
            if first[h] is None:
                raise ValueError(f"[{c}](x) at height {h} leaves the witness undecided "
                                 f"through degree {top}; the series arithmetic is broken")
    reports = {}
    for n, cap in caps.items():
        heights = range(1, n + 1)
        reports[n] = {
            "n": n, "cap": cap, "doubling_degrees": {h: doubling[h] for h in heights},
            "inverse_obstructed": {h: deviation[h] <= 2**n for h in heights},
            "inverse_deviation_degree": deviation[n],
            "upper_bound_ok": all(doubling[h] == 2**h and deviation[h] <= 2**n for h in heights),
            "lower_bound_ok": deviation[n] == 2**n,
        }
    return reports


def fgl_job(params, payload) -> dict:
    """The `fgl` job's artifacts, {filename: bytes}: the ER(n) witness
    for the validated CLI params."""
    report = er_defect_witness(params["n"], cap=params["cap"])
    base = f"fgl_er{params['n']}"
    out = {}
    if "json" in params["formats"]:
        out[f"{base}.json"] = json_bytes(report)
    if "tsv" in params["formats"]:
        lines = ["height\tdoubling-degree\tinverse-obstructed"]
        for h in sorted(report["doubling_degrees"], key=int):
            lines.append(
                f"{h}\t{report['doubling_degrees'][h]}\t{report['inverse_obstructed'][h]}"
            )
        out[f"{base}.tsv"] = ("\n".join(lines) + "\n").encode("utf-8")
    return out
