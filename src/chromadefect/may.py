"""May spectral sequence engine for height-truncated quotient families.

The E1 page is the free graded-commutative algebra on letters

    h(i,j)  s=1, internal degree 2p^j(p^i - 1), weight 2i - 1
    a(i)    s=1, internal degree 2p^i - 1,      weight 2i + 1   (odd p)
    b(i,j)  s=2, internal degree 2p^{j+1}(p^i - 1), weight p(2i - 1) (odd p)

where h(i,j) and a(i) are the generator powers xi_i^{p^j} and tau_i
that the Thom quotient T(n) allows (Profile.generator_powers), and
b(i,j), at odd p, goes with h(i,j).  At odd p the h's are exterior
(odd total degree) while a and b are polynomial.

d1 of h(i,j) and a(i) is the sum of the cross terms of their diagonal
that survive in T(n), each read as a product of two letters, and b(i,j)
is a cycle.  On a monomial, d1 is the Leibniz sum over positions: the
letter there is replaced by one product g1*g2 of its d1, and the
factors are brought to canonical form once by normal_form, which
returns the Koszul sign of sorting the odd letters, or nothing when an
exterior letter repeats.  may_e1 differentiates each E1 monomial once
and keeps d1 as one matrix per cell in monomial coordinates; may_e2
reads E2 = ker d1 / im d1 off those matrices.  No later differential
is derived.  d1 strictly lowers total may weight (the filtration is by
increasing weight, so this is the convergence direction), checked on
every monomial.

All pages are plotted in Adams bigrading (stem, s) = (t-s, s); every
differential has the signature of an Adams d1 (s+1, stem-1, t fixed).
Window bookkeeping: E2 trusts one stem and one s less than E1, because
boundaries can enter from just outside the window.
"""

from .charts import ChartDocument, chart_to_tsv, json_bytes, render_chart
from .gradedlin import PrimeFieldMatrix, SubquotientBasis, vec_from_terms, vec_support
from .steenrod import Profile, elt_add_term

__all__ = [
    "MayContext",
    "MayPage",
    "chart_from_may_page",
    "e1_monomial_count",
    "may_e1",
    "may_e2",
    "may_job",
    "monomial_string",
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


def mono_weight(p, mono):
    return sum(e * gen_weight(p, g) for g, e in mono)


def normal_form(p, factors):
    """The product of (letter, exponent) factors taken in order, in
    canonical form: (sign, monomial), the sign being the Koszul sign of
    moving the odd letters into letter order, or None when an exterior
    letter repeats."""
    merged = {}
    for gen, e in factors:
        merged[gen] = merged.get(gen, 0) + e
    sign = 1
    if p != 2:
        seen = []
        for gen, _ in factors:
            if gen_is_odd(p, gen):
                if merged[gen] > 1:
                    return None
                key = _gen_key(gen)
                if sum(k > key for k in seen) % 2:
                    sign = -sign
                seen.append(key)
    return sign, tuple(sorted(merged.items(), key=lambda b: _gen_key(b[0])))


class MayContext:
    """The letters of the height-n family at p and their d1, read off
    the generator powers of T(n) through the largest degree asked so far.

    T(n) and T(k) allow the same generator powers below the degree of
    xi_k, so the table is built over T(min(n, k)), k the first index
    whose xi_k lies past that degree: a family of height n costs as much
    as one of height k.
    """

    def __init__(self, n, p):
        if n < 0:
            raise ValueError("height must be nonnegative")
        self.n = n
        self.p = p
        self._top = -1
        self._cross = {}

    def _powers(self, max_degree):
        """{letter: d1 pairs} for the h and a letters, through internal
        degree max_degree at least."""
        if max_degree > self._top:
            p = self.p
            k = 1
            while gen_t(p, ("h", k, 0)) <= max_degree:
                k += 1
            family = Profile.T(p, min(self.n, k))
            self._cross = {key: cross for key, _, _, cross in family.generator_powers(max_degree)}
            self._top = max_degree
        return self._cross

    def generators(self, stem_max, s_max):
        """All letters with stem <= stem_max, s <= s_max, in letter order."""
        p = self.p
        letters = list(self._powers(stem_max + 1))
        if p != 2 and s_max >= 2:
            letters += [("b", i, j) for kind, i, j in letters if kind == "h"]
        letters = [g for g in letters if gen_t(p, g) - gen_s(g) <= stem_max]
        return sorted(letters, key=_gen_key)

    def d1_pairs(self, gen):
        """d1 of a letter as the diagonal writes it, the letter pairs
        (g1, g2) of its terms g1*g2; b(i,j), at odd p a letter when
        h(i,j) is, is a cycle.  A letter T(n) lacks is a ValueError."""
        kind, i, j = gen
        key = ("h", i, j) if kind == "b" and self.p != 2 else gen
        cross = self._cross.get(key)
        if cross is None:
            cross = self._powers(gen_t(self.p, key)).get(key)
            if cross is None:
                raise ValueError(f"{gen_string(gen)} is not a letter of T({self.n}), p = {self.p}")
        return [] if kind == "b" else cross

    def d1_element(self, x):
        """Leibniz extension of d1 to an element.

        The term of a monomial at position k replaces its letter g^e by
        g^(e-1) * g1*g2 for each pair of d1_pairs(g), in place, and brings
        those factors to canonical form once through normal_form.  It is
        multiplied by e and by (-1) to the number of odd letters before
        position k."""
        p = self.p
        out = {}
        for mono, coef in x.items():
            for pos, (gen, e) in enumerate(mono):
                c = e * coef
                if c % p:
                    left = mono[:pos] + (((gen, e - 1),) if e > 1 else ())
                    right = mono[pos + 1 :]
                    for g1, g2 in self.d1_pairs(gen):
                        got = normal_form(p, left + ((g1, 1), (g2, 1)) + right)
                        if got is not None:
                            elt_add_term(p, out, got[1], got[0] * c)
                if gen_is_odd(p, gen) and e % 2:
                    coef = -coef
        return out


class MayPage:
    """One page of the spectral sequence over a fixed E1 window.

    classes[(stem, s)] lists the lead monomial of each class
    representative (on E1, the monomials themselves, sorted by weight
    and name), and killed[(stem, s)] the lead monomials of the
    boundaries this page divided out.  differential[(stem, s)] is the
    page's derived differential out of the cell, one row per class over
    the target cell's classes, kept only where it is nonzero; E1 holds
    d1, and later pages hold none.  weights maps each E1 monomial to its
    May weight, computed once and shared by every page of the window.
    """

    def __init__(self, context, r, stem_cap, s_cap, trusted_stem_max, trusted_s_max, weights):
        self.context = context
        self.r = r
        self.stem_cap = stem_cap
        self.s_cap = s_cap
        self.trusted_stem_max = trusted_stem_max
        self.trusted_s_max = trusted_s_max
        self.weights = weights
        self.classes = {}
        self.killed = {}
        self.differential = {}

    @property
    def p(self):
        return self.context.p

    def dims(self):
        return {key: len(leads) for key, leads in self.classes.items() if leads}

    def trusted(self, stem, s):
        return stem <= self.trusted_stem_max and s <= self.trusted_s_max

    def to_tsv(self):
        ctx = self.context
        weights = self.weights
        lines = [
            f"# may page r={self.r}: height {ctx.n}, p={ctx.p}",
            f"# window: stem <= {self.stem_cap}, s <= {self.s_cap}; "
            f"trusted through stem {self.trusted_stem_max}, s {self.trusted_s_max}",
            "stem\ts\tweight\tmonomial\tstatus",
        ]
        rows = []
        for (stem, s), leads in self.classes.items():
            status = "live" if self.trusted(stem, s) else "indeterminate"
            for mono in leads:
                rows.append((stem, s, weights[mono], monomial_string(mono), status))
        for (stem, s), monos in self.killed.items():
            for mono in monos:
                rows.append((stem, s, weights[mono], monomial_string(mono), "boundary"))
        rows.sort()
        for row in rows:
            lines.append("\t".join(map(str, row)))
        return "\n".join(lines) + "\n"


def may_e1(n, p, stem_max, s_max):
    """E1 page of the height-n family through (stem_max, s_max), with
    d1 of every monomial computed once."""
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
    weights = {m: mono_weight(p, m) for monos in cells.values() for m in monos}
    page = MayPage(ctx, 1, stem_max, s_max, stem_max, s_max, weights)
    for monos in cells.values():
        monos.sort(key=lambda m: (weights[m], monomial_string(m)))
    page.classes = cells
    for (stem, s), monos in cells.items():
        target = cells.get((stem - 1, s + 1))
        if monos and target:
            rows = _d1_rows(ctx, weights, monos, target)
            if rows:
                page.differential[(stem, s)] = rows
    return page


def _d1_rows(ctx, weights, monos, target):
    """d1 of each monomial, as rows over the target cell's monomials;
    [] when d1 vanishes on every monomial.  Every image monomial must
    weigh less than its source (strict weight descent)."""
    p = ctx.p
    index = {m: k for k, m in enumerate(target)}
    rows = []
    nonzero = False
    for mono in monos:
        image = ctx.d1_element({mono: 1})
        terms = []
        if image:
            nonzero = True
            for m, c in image.items():
                k = index.get(m)
                if k is None:
                    raise ValueError(f"monomial {monomial_string(m)} not in cell basis")
                terms.append((k, c))
            if max(weights[m] for m in image) >= weights[mono]:
                raise AssertionError("stored differential fails strict weight descent")
        rows.append(vec_from_terms(p, terms))
    return rows if nonzero else []


def may_e2(e1):
    """E2 of an E1 page: at each cell, ker d1 modulo the image of the
    incoming d1, read off the E1 page's d1 matrices.

    Class representatives are chosen by SubquotientBasis in monomial
    order and written by their lead monomials; each nonzero incoming
    boundary is reported by its lead monomial.  A cell whose d1
    vanishes keeps every monomial as a cycle, and so does one whose d1
    would leave the window.  Such cycles, and boundaries from outside
    the window, are unknown, so E2 trusts one stem and one s less.
    """
    p = e1.p
    e2 = MayPage(
        e1.context,
        2,
        e1.stem_cap,
        e1.s_cap,
        e1.trusted_stem_max - 1,
        e1.trusted_s_max - 1,
        e1.weights,
    )
    for (stem, s), monos in e1.classes.items():
        dim = len(monos)
        if not dim:
            continue
        out_rows = e1.differential.get((stem, s))
        in_rows = e1.differential.get((stem + 1, s - 1), [])
        if out_rows is None:
            kernel = [vec_from_terms(p, [(k, 1)]) for k in range(dim)]
        else:
            tgt_dim = len(e1.classes[(stem - 1, s + 1)])
            kernel = PrimeFieldMatrix(p, dim, tgt_dim, out_rows).kernel_vectors()

        def lead(vec):
            # may_e1 sorted monos by (weight, string): the lowest
            # column of a vector holds its lead monomial
            return monos[vec_support(p, vec)[0][0]]

        reps = SubquotientBasis(p, dim, in_rows, kernel).reps
        e2.classes[(stem, s)] = [lead(vec) for vec in reps]
        killed = {lead(row) for row in in_rows if row}
        if killed:
            e2.killed[(stem, s)] = sorted(killed)
    return e2


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


def chart_from_may_page(page) -> ChartDocument:
    """Dot chart of a May page with its differential arrows.

    A cell draws one arrow when the page keeps a nonzero differential
    matrix out of it, which it does only between cells with classes;
    the May differential always steps filtration by one.  Only E1
    carries its differential, so later pages are dots alone.
    """
    dots = {key: (d, "") for key, d in page.dims().items()}
    arrows = [(page.r, (stem, s), (stem - 1, s + 1)) for stem, s in page.differential]
    return ChartDocument(
        f"may page {page.r} height {page.context.n} p={page.p}",
        dots,
        [],
        arrows,
        (0, page.stem_cap),
        (0, page.s_cap),
        arrow_rule="filtration-step",
    )


def may_job(params, payload) -> dict:
    """The `may` job's artifacts, {filename: bytes}: E1 and E2 for the
    validated CLI params, in each requested format."""
    p = params["prime"]
    n = params["n"]
    e1 = may_e1(n, p, params["stem_max"], params["s_max"])
    out = {}
    for page in (e1, may_e2(e1)):
        base = f"may_n{n}_p{p}_e{page.r}"
        if "tsv" in params["formats"]:
            out[f"{base}.tsv"] = page.to_tsv().encode("utf-8")
        if "json" in params["formats"]:
            dims = [[stem, s, d] for (stem, s), d in sorted(page.dims().items())]
            out[f"{base}.json"] = json_bytes(
                {"height": n, "prime": p, "page": page.r, "dims": dims}
            )
        if "svg" in params["formats"]:
            doc = chart_from_may_page(page)
            out[f"{base}.svg"] = render_chart(doc)
            out[f"{base}_chart.tsv"] = chart_to_tsv(doc).encode("utf-8")
    return out
