"""The ER(n) defect witness from univariate Honda series.

The witness reads two series per height h <= n of the height-h Honda
formal group law over F_2: the doubling series [2](x) and the formal
inverse [-1](x).  Over the rationals [c](x) = exp(c log x) for the
Honda logarithm x + x^(p^h)/p + x^(p^2h)/p^2 + ..., so
`honda_multiple` solves log(f) = c log(x) degree by degree on dense
rational coefficient lists, recomputes log(f) a second way to certify
the solution, and reduces mod p behind an integrality gate.  Series are
plain lists of coefficients indexed by degree 0..cap; the bivariate
law is never built.  The validated bivariate law, with its multiples
read off by substitution, is the test suite's oracle for these series.
"""

from fractions import Fraction

from .gradedlin import check_prime

__all__ = ["honda_multiple", "er_defect_witness"]


def _honda_log_terms(p, n, cap):
    """(q, w) for the terms w x^q of the Honda logarithm through the
    cap, in rising degree: x + x^(p^n)/p + x^(p^2n)/p^2 + ..."""
    if n < 1 or cap < 1:
        raise ValueError("need n >= 1 and cap >= 1")
    check_prime(p)
    terms = []
    i = 0
    while p ** (n * i) <= cap:
        terms.append((p ** (n * i), Fraction(1, p**i)))
        i += 1
    return terms


def _reduce_mod_p(coefs, p):
    """Reduce rational coefficients mod p, refusing any with p in the
    denominator: the Honda constructions are p-integral, so a hit here
    means the arithmetic itself broke."""
    reduced = []
    for k, c in enumerate(coefs):
        if c.denominator % p == 0:
            raise ValueError(
                f"coefficient {c} in degree {k} is not {p}-integral; "
                "the exponential arithmetic is broken"
            )
        reduced.append((c.numerator * pow(c.denominator, -1, p)) % p)
    return reduced


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


def honda_multiple(p: int, n: int, c, cap: int) -> list:
    """The series [c](x) of the height-n Honda law over F_p, to the cap,
    as its coefficient list: entry k is the coefficient of x^k mod p.

    c is a nonzero rational; [2](x) and [-1](x), the doubling series
    and the formal inverse, are the cases the defect witness reads.
    The solution is certified by recomputing log(f) independently, then
    reduced mod p behind the integrality gate, which refuses a c whose
    multiple is not p-integral.
    """
    log_terms = _honda_log_terms(p, n, cap)
    c = Fraction(c)
    if not c:
        raise ValueError("the multiple must be nonzero")
    f = _solve_log_multiple(log_terms, c, cap)
    _check_log_multiple(log_terms, c, f, cap)
    return _reduce_mod_p(f, p)


def _first_difference(f, g):
    """Lowest degree where two coefficient lists differ, or None."""
    return next((k for k, (a, b) in enumerate(zip(f, g)) if a != b), None)


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

    Both series come from `honda_multiple`; every call certifies them
    twice, by the independent log(f) recomputation and by the
    2-integrality gate.
    """
    if n < 1:
        raise ValueError("height must be at least 1")
    target = 2**n
    if cap is None:
        cap = target + 8
    if cap < target + 1:
        raise ValueError(f"cap {cap} cannot see degree {target}; need at least {target + 1}")
    x = [0, 1] + [0] * (cap - 1)
    zero = [0] * (cap + 1)
    doubling = {}
    obstructed = {}
    upper = True
    deviation = None
    lower = False
    for h in range(1, n + 1):
        two = honda_multiple(2, h, 2, cap)
        inv = honda_multiple(2, h, -1, cap)
        doubling[h] = _first_difference(two, zero)
        obstructed[h] = inv[: target + 1] != x[: target + 1]
        upper = upper and doubling[h] == 2**h and obstructed[h]
        if h == n:
            deviation = _first_difference(inv, x)
            lower = inv[:target] == x[:target] and deviation == target
    return {
        "n": n,
        "cap": cap,
        "doubling_degrees": doubling,
        "inverse_obstructed": obstructed,
        "inverse_deviation_degree": deviation,
        "upper_bound_ok": upper,
        "lower_bound_ok": lower,
    }
