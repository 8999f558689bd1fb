"""The rational solver for Honda multiples: the reference for the
integer solver in `chromadefect.fgl`.

This is the package's earlier `honda_multiple`: it solves
log(f) = c log(x) for the Honda logarithm on dense lists of exact
rationals, recomputes log(f) by repeated squaring to certify the
solution, and reduces mod p behind an integrality gate.  It shares no
code with the package; the bivariate law in `fgl_law.py` is its own
oracle in turn.
"""

from fractions import Fraction

from .fgl_law import PrimeField


def honda_log_terms(p, n, cap):
    """(q, w) for the terms w x^q of the Honda logarithm through the
    cap, in rising degree: x + x^(p^n)/p + x^(p^2n)/p^2 + ..."""
    if n < 1 or cap < 1:
        raise ValueError("need n >= 1 and cap >= 1")
    PrimeField(p)  # primality gate
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


def honda_multiple(p, n, c, cap):
    """[c](x) of the height-n Honda law over F_p to the cap, entry k
    the coefficient of x^k mod p, solved over the rationals."""
    log_terms = honda_log_terms(p, n, cap)
    c = Fraction(c)
    if not c:
        raise ValueError("the multiple must be nonzero")
    f = _solve_log_multiple(log_terms, c, cap)
    _check_log_multiple(log_terms, c, f, cap)
    return _reduce_mod_p(f, p)
