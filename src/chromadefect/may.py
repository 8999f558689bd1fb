"""May spectral sequence engine for height-truncated quotient families.

The E1 page is the free graded-commutative algebra on letters

    h(i,j)  s=1, internal degree 2p^j(p^i - 1), weight 2i - 1
    a(i)    s=1, internal degree 2p^i - 1,      weight 2i + 1   (odd p)
    b(i,j)  s=2, internal degree 2p^{j+1}(p^i - 1), weight p(2i - 1) (odd p)

subject to the truncation pattern of the height-n family: at p = 2 the
letters h(i,j) with i <= n exist only for j = 0; at odd p the h and b
letters require i > n and every a(i) is present.  At odd p the h's are
exterior (odd total degree) while a and b are polynomial.

d1 comes from the diagonal: d1 h(i,j) = sum_{0<k<i} h(i-k,k+j) h(k,j)
and d1 a(i) = sum_{0<=k<i} h(i-k,k) a(k), terms with disallowed letters
dropped.  Higher differentials are never derived here; they enter
page_turn as explicit rules and are validated for bidegree and weight
consistency.  Every stored differential strictly lowers total may
weight (the filtration is by increasing weight, so this is the
convergence direction).

All pages are plotted in Adams bigrading (stem, s) = (t-s, s); every
differential has the signature of an Adams d1 (s+1, stem-1, t fixed).
Window bookkeeping: each page turn erodes the trusted region by one in
both stem and s, because boundaries can enter from just outside it.
"""

from .gradedlin import SubquotientBasis, vec_from_terms, vec_support
from .steenrod import elt_add_term

__all__ = [
    "MayContext",
    "MayPage",
    "e1_monomial_count",
    "may_e1",
    "may_d1",
    "page_turn",
    "monomial_string",
    "parse_may_monomial",
]

_KIND_RANK = {"a": 0, "b": 1, "h": 2}


def _gen_key(gen):
    kind, i, j = gen
    return (_KIND_RANK[kind], i, -1 if j is None else j)


def gen_s(gen):
    return 2 if gen[0] == "b" else 1


def gen_t(p, gen):
    kind, i, j = gen
    if kind == "h":
        return 2 * p**j * (p**i - 1) if p != 2 else 2**j * (2**i - 1)
    if kind == "a":
        return 2 * p**i - 1
    return 2 * p ** (j + 1) * (p**i - 1)


def gen_weight(p, gen):
    kind, i, j = gen
    if kind == "h":
        return 2 * i - 1
    if kind == "a":
        return 2 * i + 1
    return p * (2 * i - 1)


def gen_is_odd(p, gen):
    """Odd total degree s+t: only the h letters at odd primes."""
    return p != 2 and gen[0] == "h"


def gen_string(gen):
    kind, i, j = gen
    if kind == "a":
        return f"a({i})"
    return f"{kind}({i},{j})"


def monomial_string(mono):
    if not mono:
        return "1"
    parts = []
    for gen, e in mono:
        g = gen_string(gen)
        parts.append(g if e == 1 else f"{g}^{e}")
    return "*".join(parts)


def parse_may_monomial(text):
    """Inverse of monomial_string, e.g. "h(1,0)^2*a(0)"."""
    text = text.strip()
    if text == "1":
        return ()
    blocks = []
    for part in text.split("*"):
        part = part.strip()
        if "^" in part:
            head, _, exp = part.rpartition("^")
            e = int(exp)
        else:
            head, e = part, 1
        kind = head[0]
        inner = head[head.index("(") + 1 : head.rindex(")")]
        if kind == "a":
            gen = ("a", int(inner), None)
        else:
            i, j = inner.split(",")
            gen = (kind, int(i), int(j))
        if kind not in _KIND_RANK or e <= 0:
            raise ValueError(f"bad may monomial: {text!r}")
        blocks.append((gen, e))
    blocks.sort(key=lambda b: _gen_key(b[0]))
    out = []
    for gen, e in blocks:
        if out and out[-1][0] == gen:
            out[-1] = (gen, out[-1][1] + e)
        else:
            out.append((gen, e))
    return tuple(out)


def mono_s(mono):
    return sum(e * gen_s(g) for g, e in mono)


def mono_t(p, mono):
    return sum(e * gen_t(p, g) for g, e in mono)


def mono_weight(p, mono):
    return sum(e * gen_weight(p, g) for g, e in mono)


def monomial_mul(p, m1, m2):
    """Merge two canonical monomials; returns (sign, mono) or None when
    an exterior letter squares."""
    sign = 1
    if p != 2:
        # Koszul: count odd-letter inversions between the factors
        inv = 0
        for g2, e2 in m2:
            if not gen_is_odd(p, g2):
                continue
            k2 = _gen_key(g2)
            for g1, e1 in m1:
                if gen_is_odd(p, g1) and _gen_key(g1) > k2:
                    inv += e1 * e2
        if inv % 2:
            sign = -1
    merged = {}
    for g, e in m1:
        merged[g] = merged.get(g, 0) + e
    for g, e in m2:
        merged[g] = merged.get(g, 0) + e
    for g, e in merged.items():
        if gen_is_odd(p, g) and e > 1:
            return None
    mono = tuple(sorted(merged.items(), key=lambda b: _gen_key(b[0])))
    return sign, mono


def elt_mul(p, x, y):
    out = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            got = monomial_mul(p, m1, m2)
            if got is None:
                continue
            sign, mono = got
            elt_add_term(p, out, mono, sign * c1 * c2)
    return out


def elt_add_scaled(p, acc, x, c):
    c %= p
    if not c:
        return acc
    for m, cm in x.items():
        elt_add_term(p, acc, m, c * cm)
    return acc


class MayContext:
    """Generator bookkeeping for the height-n family at p."""

    def __init__(self, n, p):
        if n < 0:
            raise ValueError("height must be nonnegative")
        self.n = n
        self.p = p
        self._d1_cache = {}

    def allowed(self, gen):
        kind, i, j = gen
        if kind == "h":
            if i < 1 or j < 0:
                return False
            if self.p == 2:
                return i > self.n or j == 0
            return i > self.n
        if kind == "a":
            return self.p != 2 and i >= 0
        if kind == "b":
            return self.p != 2 and i > self.n and j >= 0
        return False

    def generators(self, stem_max, s_max):
        """All allowed letters with stem <= stem_max, s <= s_max."""
        p = self.p
        out = []
        i = 1
        while gen_t(p, ("h", i, 0)) - 1 <= stem_max:
            j = 0
            while True:
                gen = ("h", i, j)
                if gen_t(p, gen) - 1 > stem_max:
                    break
                if self.allowed(gen):
                    out.append(gen)
                j += 1
            i += 1
        if p != 2:
            i = 0
            while gen_t(p, ("a", i, None)) - 1 <= stem_max:
                gen = ("a", i, None)
                if self.allowed(gen):
                    out.append(gen)
                i += 1
            if s_max >= 2:
                i = 1
                while gen_t(p, ("b", i, 0)) - 2 <= stem_max:
                    j = 0
                    while True:
                        gen = ("b", i, j)
                        if gen_t(p, gen) - 2 > stem_max:
                            break
                        if self.allowed(gen):
                            out.append(gen)
                        j += 1
                    i += 1
        out.sort(key=_gen_key)
        return out

    def d1_generator(self, gen):
        """d1 on a letter, as an element; cached."""
        got = self._d1_cache.get(gen)
        if got is not None:
            return got
        p = self.p
        kind, i, j = gen
        out = {}
        if kind == "h":
            for k in range(1, i):
                g1 = ("h", i - k, k + j)
                g2 = ("h", k, j)
                if self.allowed(g1) and self.allowed(g2):
                    prod = monomial_mul(p, ((g1, 1),), ((g2, 1),))
                    if prod is not None:
                        sign, mono = prod
                        out = elt_add_scaled(p, out, {mono: 1}, sign)
        elif kind == "a":
            for k in range(0, i):
                g1 = ("h", i - k, k)
                g2 = ("a", k, None)
                if self.allowed(g1) and self.allowed(g2):
                    sign, mono = monomial_mul(p, ((g1, 1),), ((g2, 1),))
                    out = elt_add_scaled(p, out, {mono: 1}, sign)
        self._d1_cache[gen] = out
        return out

    def d1_element(self, x):
        """Leibniz extension of d1 to an element."""
        p = self.p
        out = {}
        for mono, coef in x.items():
            out = elt_add_scaled(p, out, self._d1_monomial(mono), coef)
        return out

    def _d1_monomial(self, mono):
        p = self.p
        out = {}
        prefix_parity = 0
        for pos, (gen, e) in enumerate(mono):
            dg = self.d1_generator(gen)
            if dg:
                coef = e % p
                if coef:
                    sign = -1 if prefix_parity % 2 else 1
                    left = list(mono[:pos])
                    if e > 1:
                        left.append((gen, e - 1))
                    term = elt_mul(p, {tuple(left): 1}, dg)
                    suffix = mono[pos + 1 :]
                    if suffix:
                        term = elt_mul(p, term, {suffix: 1})
                    out = elt_add_scaled(p, out, term, sign * coef)
            if gen_is_odd(p, gen) and e % 2:
                prefix_parity += 1
        return out


def may_d1(x, context):
    """d1 of a monomial or element over the given context."""
    if isinstance(x, tuple):
        x = {x: 1}
    return context.d1_element(x)


class _Cell:
    """One (stem, s) spot: fixed E1 monomial coordinates, the current
    page's class representatives (as E1 elements), and the boundary
    space accumulated so far (as E1 vectors).  coords() of a cycle lift
    is computed against boundaries + representative lifts."""

    __slots__ = ("monomials", "index", "boundaries", "reps", "_sub")

    def __init__(self, monomials, boundaries, reps, p):
        self.monomials = monomials
        self.index = {m: k for k, m in enumerate(monomials)}
        self.boundaries = boundaries
        self.reps = reps
        kernel = [_vectorize_raw(p, rep, self.index, len(monomials)) for rep in reps]
        self._sub = SubquotientBasis(p, len(monomials), boundaries, kernel)

    def coords(self, vec):
        return self._sub.coords(vec)


class MayPage:
    """One page of the spectral sequence over a fixed E1 window."""

    def __init__(self, context, r, stem_cap, s_cap, trusted_stem_max, trusted_s_max):
        self.context = context
        self.r = r
        self.stem_cap = stem_cap
        self.s_cap = s_cap
        self.trusted_stem_max = trusted_stem_max
        self.trusted_s_max = trusted_s_max
        self.cells = {}
        self.killed = {}

    @property
    def p(self):
        return self.context.p

    def dims(self):
        return {
            key: len(cell.reps) for key, cell in self.cells.items() if cell.reps
        }

    def trusted(self, stem, s):
        return stem <= self.trusted_stem_max and s <= self.trusted_s_max

    def class_reps(self, stem, s):
        cell = self.cells.get((stem, s))
        return list(cell.reps) if cell else []

    def class_coords(self, element):
        """Coordinates of an E1 element's class on this page."""
        if not element:
            return {}
        mono = next(iter(element))
        stem = mono_t(self.p, mono) - mono_s(mono)
        s = mono_s(mono)
        cell = self.cells.get((stem, s))
        if cell is None:
            raise ValueError("element outside the computed window")
        return cell.coords(_vectorize(self.p, element, cell))

    def to_tsv(self):
        ctx = self.context
        lines = [
            f"# may page r={self.r}: height {ctx.n}, p={ctx.p}",
            f"# window: stem <= {self.stem_cap}, s <= {self.s_cap}; "
            f"trusted through stem {self.trusted_stem_max}, s {self.trusted_s_max}",
            "stem\ts\tweight\tmonomial\tstatus",
        ]
        rows = []
        for (stem, s), cell in self.cells.items():
            for rep in cell.reps:
                lead = min(rep, key=lambda m: (mono_weight(self.p, m), monomial_string(m)))
                status = "live" if self.trusted(stem, s) else "indeterminate"
                rows.append(
                    (stem, s, mono_weight(self.p, lead), monomial_string(lead), status)
                )
        for (stem, s), monos in self.killed.items():
            for mono in monos:
                rows.append(
                    (stem, s, mono_weight(self.p, mono), monomial_string(mono), "boundary")
                )
        rows.sort()
        for row in rows:
            lines.append("\t".join(map(str, row)))
        return "\n".join(lines) + "\n"


def _vectorize_raw(p, element, index, n):
    terms = []
    for mono, coef in element.items():
        k = index.get(mono)
        if k is None:
            raise ValueError(f"monomial {monomial_string(mono)} not in cell basis")
        terms.append((k, coef))
    return vec_from_terms(p, n, terms)


def _vectorize(p, element, cell):
    return _vectorize_raw(p, element, cell.index, len(cell.monomials))


def may_e1(n, p, stem_max, s_max):
    """E1 page of the height-n family through (stem_max, s_max)."""
    if stem_max < 0 or s_max < 1:
        raise ValueError("caps must be positive")
    ctx = MayContext(n, p)
    letters = ctx.generators(stem_max, s_max)
    cells = {}
    for stem in range(stem_max + 1):
        for s in range(0, s_max + 1):
            cells[(stem, s)] = []
    cells[(0, 0)].append(())

    def rec(idx, stem, s, acc):
        if idx == len(letters):
            return
        # skip this letter entirely
        rec(idx + 1, stem, s, acc)
        gen = letters[idx]
        g_stem = gen_t(p, gen) - gen_s(gen)
        g_s = gen_s(gen)
        e = 1
        cap = 1 if gen_is_odd(p, gen) else None
        while (cap is None or e <= cap) and stem + e * g_stem <= stem_max and s + e * g_s <= s_max:
            mono = acc + ((gen, e),)
            cells[(stem + e * g_stem, s + e * g_s)].append(mono)
            rec(idx + 1, stem + e * g_stem, s + e * g_s, mono)
            e += 1

    rec(0, 0, 0, ())
    page = MayPage(ctx, 1, stem_max, s_max, stem_max, s_max)
    for key, monos in cells.items():
        monos.sort(key=lambda m: (mono_weight(p, m), monomial_string(m)))
        page.cells[key] = _Cell(monos, [], [{m: 1} for m in monos], p)
    return page


def e1_monomial_count(n, p, stem_max, s_max):
    """Number of monomials on the E1 page through (stem_max, s_max),
    counted from the letter degrees without building one: a knapsack
    over the letters, the exterior ones used at most once."""
    counts = [[0] * (s_max + 1) for _ in range(stem_max + 1)]
    counts[0][0] = 1
    for gen in MayContext(n, p).generators(stem_max, s_max):
        g_stem, g_s = gen_t(p, gen) - gen_s(gen), gen_s(gen)
        if gen_is_odd(p, gen):
            stems, ss = range(stem_max, g_stem - 1, -1), range(s_max, g_s - 1, -1)
        else:
            stems, ss = range(g_stem, stem_max + 1), range(g_s, s_max + 1)
        for stem in stems:
            row, src = counts[stem], counts[stem - g_stem]
            for s in ss:
                row[s] += src[s - g_s]
    return sum(map(sum, counts))


def _check_weight_drop(p, source_mono, target_element):
    w = mono_weight(p, source_mono)
    for mono in target_element:
        if mono_weight(p, mono) >= w:
            raise AssertionError(
                "differential does not lower may weight: "
                f"{monomial_string(source_mono)} -> {monomial_string(mono)}"
            )


def _rule_from_supplied(page, supplied):
    """Build an element-level differential from explicit rules.

    Each rule is (source monomial, target element).  Sources must be a
    power of a single letter; the Leibniz extension on a monomial with
    letter exponent e applies the rule floor(e / c) times.  Rules are
    validated for bidegree (s+1, stem-1, t fixed) and weight descent.
    """
    p = page.p
    rules = []
    for source, target in supplied:
        if isinstance(source, str):
            source = parse_may_monomial(source)
        if isinstance(target, str):
            target = {parse_may_monomial(target): 1}
        target = {
            (parse_may_monomial(m) if isinstance(m, str) else m): c % p
            for m, c in target.items()
        }
        target = {m: c for m, c in target.items() if c}
        if len(source) != 1:
            raise ValueError("supplied differential source must be a letter power")
        gen, c = source[0]
        st, ss = mono_t(p, source), mono_s(source)
        for mono in target:
            if mono_t(p, mono) != st or mono_s(mono) != ss + 1:
                raise ValueError(
                    f"bidegree mismatch: d({monomial_string(source)}) cannot "
                    f"contain {monomial_string(mono)}"
                )
        _check_weight_drop(p, source, target)
        # the source class must still be alive on this page
        coords = page.class_coords({source: 1})
        if not coords:
            raise ValueError(
                f"source {monomial_string(source)} is already a boundary or zero"
            )
        rules.append((gen, c, target))

    def rule(element):
        out = {}
        for mono, coef in element.items():
            parity = 0
            for pos, (g, e) in enumerate(mono):
                for rgen, rc, rtarget in rules:
                    if g != rgen:
                        continue
                    q = e // rc
                    if not q:
                        continue
                    sign = -1 if parity % 2 else 1
                    left = list(mono[:pos])
                    if e - rc > 0:
                        left.append((g, e - rc))
                    term = elt_mul(p, {tuple(left): 1}, rtarget)
                    suffix = mono[pos + 1 :]
                    if suffix:
                        term = elt_mul(p, term, {suffix: 1})
                    out = elt_add_scaled(p, out, term, sign * q * coef)
                if gen_is_odd(p, g) and e % 2:
                    parity += 1
        return out

    return rule


def page_turn(page, supplied=()):
    """Homology with respect to the page's differential.

    For r = 1 the differential is derived from the diagonal; for r >= 2
    it must be supplied as explicit (source, target) rules, extended by
    Leibniz, and an empty list leaves the page unchanged apart from the
    page index.  Differentials are evaluated on the stored cocycle
    representatives; cycle-consistency in the target cell is checked.
    """
    ctx = page.context
    p = page.p
    if page.r == 1:
        rule = ctx.d1_element
        if supplied:
            raise ValueError("d1 is derived, not supplied")
    else:
        if not supplied:
            rule = None
        else:
            rule = _rule_from_supplied(page, supplied)

    nxt = MayPage(
        ctx,
        page.r + 1,
        page.stem_cap,
        page.s_cap,
        page.trusted_stem_max - 1,
        page.trusted_s_max - 1,
    )
    if rule is None:
        for key, cell in page.cells.items():
            nxt.cells[key] = cell
        return nxt

    # matrices of d_r per cell, in page coordinates over the target cell
    mats = {}
    for (stem, s), cell in page.cells.items():
        tgt = page.cells.get((stem - 1, s + 1))
        if tgt is None or not cell.reps or not tgt.reps:
            continue
        rows = []
        for rep in cell.reps:
            img = rule(rep)
            if img:
                _assert_weight_step(p, rep, img)
                coords = tgt.coords(_vectorize(p, img, tgt))
            else:
                coords = {}
            rows.append(vec_from_terms(p, len(tgt.reps), list(coords.items())))
        mats[(stem, s)] = rows

    from .gradedlin import PrimeFieldMatrix

    for (stem, s), cell in page.cells.items():
        dim = len(cell.reps)
        if dim == 0:
            nxt.cells[(stem, s)] = cell
            continue
        out_rows = mats.get((stem, s))
        in_rows = mats.get((stem + 1, s - 1), [])
        if out_rows is None:
            # target empty or below stem 0: zero map; target above the
            # computed s window: kernel unknown, keep everything (the
            # trusted bounds already exclude this cell)
            kernel = [vec_from_terms(p, dim, [(k, 1)]) for k in range(dim)]
        else:
            tgt_dim = len(page.cells[(stem - 1, s + 1)].reps)
            mat = PrimeFieldMatrix(p, dim, tgt_dim, out_rows)
            kernel = mat.kernel_vectors()
        sub = SubquotientBasis(p, dim, in_rows, kernel)

        def combine(combo):
            elt = {}
            for k, c in vec_support(p, combo, dim):
                elt = elt_add_scaled(p, elt, cell.reps[k], c)
            return elt

        new_reps = [combine(combo) for combo in sub.reps]
        new_boundaries = list(cell.boundaries)
        killed = []
        for row in in_rows:
            boundary_elt = combine(row)
            if boundary_elt:
                new_boundaries.append(_vectorize(p, boundary_elt, cell))
                killed.append(_lead_monomial(p, boundary_elt))
        nxt.cells[(stem, s)] = _Cell(cell.monomials, new_boundaries, new_reps, p)
        if killed:
            nxt.killed[(stem, s)] = sorted(set(killed))
    return nxt


def _assert_weight_step(p, source_elt, target_elt):
    w_src = max(mono_weight(p, m) for m in source_elt)
    w_tgt = max(mono_weight(p, m) for m in target_elt)
    if w_tgt >= w_src:
        raise AssertionError("stored differential fails strict weight descent")


def _lead_monomial(p, element):
    return min(element, key=lambda m: (mono_weight(p, m), monomial_string(m)))
