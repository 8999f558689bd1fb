"""Ext over profile quotients of the dual Steenrod algebra, from a
minimal free resolution.

A family B is a quotient Hopf algebra of the dual Steenrod algebra, so
its dual A is a subalgebra of the Steenrod algebra, spanned by the
Milnor basis elements dual to B's monomials, and Ext_B^{s,t}(F_p, F_p)
= Ext_A^{s,t}(F_p, F_p).  ext_ranks resolves F_p by free A-modules

    ... -> F_2 -> F_1 -> F_0 = A -> F_p

degree by degree (R. Bruner, "Calculation of large Ext modules",
1993): internal degree t ascending, and s ascending within each t.
The resolution is minimal, so Hom_A(F_s, F_p) has zero differential
and Ext^{s,t} is the number of generators of F_s in degree t.

Operators are the family's monomials through t_max, each read as the
Milnor basis element dual to it: Profile.basis hands out each
monomial's exponent pair (xi, tau) with its degree, and the operators
are those pairs, numbered once in the basis order; a product comes
from operator_product the first time it is needed, and none past
t_max is formed.  The p = 2 even-only family P(n) is dual to A(n) with
degrees doubled, so its operators are its monomials with every
exponent halved.  F_s in degree t has the basis op * g over its
generators g of degree at most t and the operators op of degree
t - deg g.  Step (s, t) eliminates one matrix: the images op * d(g')
of the generators g' of F_{s+1} below degree t, then a basis of the
kernel of d on F_s in degree t.  Each image row carries its unit
vector and no kernel row does (gradedlin.subquotient), so the one
elimination gives both what the next step needs: a kernel row that
stays independent of the rows before it becomes a new generator of
F_{s+1} in degree t, with that row as its differential, and a relation
among the image rows is a kernel vector of d on F_{s+1} in degree t.

A resolution cut at stem N makes no generator past it.  Step (s, t)
makes stem t - s - 1, and a cell of stem n needs no generator past
stem n, since by minimality a kernel element in degree t involves only
generators below degree t.  So column t starts at s0 = max(0, t - N -
2), and past t = N + 1 step s0 gets no kernel rows: it makes nothing
and hands on the relations among its images, the kernel that step
s0 + 1 needs.  The generators left out form a suffix of each F_s, so
every step made sees the rows and columns of the whole box, in the
same order, short of zero columns at the end.

Nor does the cut resolution form a product of degree past N + 2.
Step (s, t) multiplies each operator op of degree t - deg g' by each
term a g of d(g'), for g' a generator of F_{s+1} and g one of F_s, so
deg op + deg a = t - deg g.  The step runs only for t <= N + s + 2,
and deg g >= s: by minimality every term of a differential has an
operator of positive degree, so each generator of F_s lies above one
of F_{s-1}.  So deg op + deg a <= min(N + 2, t_max), and
operator_pairs through that degree bounds the products a job forms.

Classes are named by products of the degree-one letters (cobar_letters)
with no chain map lifted.  A letter h is dual to the operator op_h
whose exponent pair is h's.  For x in Ext^s, dual to
generators of F_s, and a generator g' of F_{s+1}, (h x)(g') is the sum
over g of x(g) times the coefficient of op_h * g in d(g').  A product
h_1 ... h_s of a sorted multiset is h_1 times the product h_2 ... h_s,
which cell (s - 1, t - deg h_1) already holds, and its key is the
exact coordinate vector on the generators of its cell.  Each cell keeps
its nonzero products, and the next filtration extends only those, so
no multiset of letters is enumerated from scratch.  A zero key names
nothing; a key an earlier product took is a collision, the first name
stays, and the colliding product is still a tail for the cells above.

evenness_scan builds no resolution: over an exterior family the Koszul
closed form places every class, so it checks that the family has that
form through the window and reads the stems off it.

The `ext` job (ext_job) writes a chart's TSV, JSON and dot chart
(chart_from_ext), resolved only through the requested stem.
"""

from bisect import bisect_right

from .charts import ChartDocument, chart_to_tsv, json_bytes, render_chart
from .gradedlin import subquotient, vec_combine, vec_from_terms, vec_support
from .steenrod import Profile, operator_product

__all__ = [
    "ExtChart",
    "Resolution",
    "chart_from_ext",
    "ext_job",
    "ext_ranks",
    "evenness_scan",
    "cobar_letters",
    "operator_pairs",
]


def operator_pairs(profile, t_max):
    """Number of operator pairs (a, b) with deg a + deg b <= t_max: the
    most products a resolution of the box t <= t_max can ask for, read
    off the Poincare series alone.  One cut at stem N asks for none
    past min(N + 2, t_max)."""
    dims = profile.poincare(t_max)
    below = 0
    prefix = []
    for d in dims:
        below += d
        prefix.append(below)
    return sum(d * prefix[t_max - i] for i, d in enumerate(dims))


class _Operators:
    """The family's operators through t_max, numbered in degree order:
    its monomials, read as the Milnor basis elements dual to them.

    by_degree[d] lists the numbers of degree d, and position[a] is a's
    index in its degree's list, which is its column inside a block of
    a free module.  product(a, b) is a * b as a vector over the
    positions of degree deg a + deg b, computed once.
    """

    def __init__(self, profile, t_max):
        self.p = profile.p
        # P(n) at p = 2 multiplies as A(n) with every exponent halved
        self.halved = profile.even_only
        basis = profile.basis(t_max)
        self.elements = [self.element(pair) for _, pair in basis]
        self.number = {e: a for a, e in enumerate(self.elements)}
        self.degree = [d for d, _ in basis]
        self.by_degree = [[] for _ in range(t_max + 1)]
        self.position = []
        for a, d in enumerate(self.degree):
            self.position.append(len(self.by_degree[d]))
            self.by_degree[d].append(a)
        self._products = {}

    def element(self, pair):
        """The operator dual to a family monomial's exponent pair, as
        operator_product multiplies it: the pair, halved in P(n) at p = 2."""
        return (tuple(e // 2 for e in pair[0]), ()) if self.halved else pair

    def product(self, a, b):
        key = a * len(self.elements) + b
        got = self._products.get(key)
        if got is None:
            terms = operator_product(self.p, self.elements[a], self.elements[b]).items()
            got = vec_from_terms(self.p, [(self.position[self.number[e]], c) for e, c in terms])
            self._products[key] = got
        return got


class Resolution:
    """Minimal free resolution of F_p over the family's dual algebra,
    through homological degree s_max, internal degree t_max and stem
    stem_max (default t_max, the whole box); no generator past stem_max
    is made, by the stem rule above.

    degrees[s] lists the degrees of the generators of F_s in the order
    they were made, and d[s][g] is the differential of generator g of
    F_s (s >= 1) as (operator, generator of F_{s-1}, coefficient)
    terms.  cells[(s, t)] is the range of generators of F_s in degree
    t.
    """

    def __init__(self, profile, s_max, t_max, stem_max=None):
        if s_max < 0 or t_max < 0:
            raise ValueError("caps must be nonnegative")
        self.p = profile.p
        self.s_max = s_max
        self.stem_max = t_max if stem_max is None else stem_max
        self.ops = _Operators(profile, t_max)
        self.degrees = [[0]] + [[] for _ in range(s_max)]
        self.d = [None] + [[] for _ in range(s_max)]
        self.cells = {(0, 0): range(1)}

    def column(self, t):
        """Make every generator of degree t and stem <= stem_max, for
        s = 1 .. s_max, from step s0 = max(0, t - stem_max - 2) on."""
        # the augmentation is injective in degree 0 and zero above
        width = len(self.ops.by_degree[t]) if 0 < t <= self.stem_max + 1 else 0
        kernel = [vec_from_terms(self.p, [(i, 1)]) for i in range(width)]
        for s in range(max(0, t - self.stem_max - 2), self.s_max):
            # with no kernel and no F_{s+1} yet, no later step makes anything
            if not kernel and not self.degrees[s + 1]:
                break
            kernel = self._step(s, t, kernel)

    def _step(self, s, t, kernel):
        """Add the generators of F_{s+1} in degree t, given the kernel of
        d on F_s in degree t; return the kernel of d on F_{s+1} there."""
        p = self.p
        ops = self.ops
        offset = [0]
        for deg in self.degrees[s]:
            if deg > t:
                break
            offset.append(offset[-1] + len(ops.by_degree[t - deg]))
        # images op * d(g') of the generators of F_{s+1} made so far
        rows = []
        for terms, deg in zip(self.d[s + 1], self.degrees[s + 1]):
            for op in ops.by_degree[t - deg]:
                rows.append(vec_combine(p, ops.product, op, terms, offset))
        if not rows and not kernel:
            return []
        relations, kept = subquotient(p, offset[-1], rows, kernel)
        start = len(self.degrees[s + 1])
        for i in kept:
            self.degrees[s + 1].append(t)
            # column col lies in the last block that starts at or before it
            self.d[s + 1].append(
                [(ops.by_degree[t - self.degrees[s][g]][col - offset[g]], g, c)
                 for col, c in vec_support(p, kernel[i])
                 for g in [bisect_right(offset, col) - 1]]
            )
        if kept:
            self.cells[(s + 1, t)] = range(start, start + len(kept))
        return relations

    def times(self, op, s, t, x):
        """The product h x in cell (s, t), op being h's operator and x a
        class over the generators of F_{s-1}, both classes as
        {generator: coefficient}."""
        p = self.p
        out = {}
        for g2 in self.cells.get((s, t), ()):
            c = sum(c * x.get(g, 0) for a, g, c in self.d[s][g2] if a == op) % p
            if c:
                out[g2] = c
        return out


class ExtChart:
    """Bigraded Ext dims with named classes."""

    def __init__(self, p, label, s_max, t_max, stem_max=None):
        self.p = p
        self.label = label
        self.s_max = s_max
        self.t_max = t_max
        self.stem_max = stem_max
        self.dims = {}
        self.names = {}
        self.collisions = []

    def to_tsv(self):
        window = f"s <= {self.s_max}, t <= {self.t_max}"
        if self.stem_max is not None:
            window += f", stem <= {self.stem_max}"
        lines = [
            f"# ext chart: {self.label}",
            f"# window: {window}",
            "s\tt\tstem\tdim\tclass-names",
        ]
        rows = []
        for (s, t), d in self.dims.items():
            if not d:
                continue
            names = ";".join(self.names.get((s, t), ()))
            rows.append((t - s, s, t, d, names))
        rows.sort()
        for stem, s, t, d, names in rows:
            lines.append(f"{s}\t{t}\t{stem}\t{d}\t{names}")
        return "\n".join(lines) + "\n"


def cobar_letters(profile, t_max):
    """Named degree-one cocycles through internal degree t_max, as
    (name, degree, pair): h(i,j) for xi_i^{p^j} and a(t) for tau_t, the
    generator powers with no cross term (Profile.generator_powers)."""
    return [
        (f"h({i},{j})" if kind == "h" else f"a({i})", degree, pair)
        for (kind, i, j), degree, pair, cross in profile.generator_powers(t_max)
        if not cross
    ]


def _multiset_name(letters, multiset):
    parts = []
    k = 0
    while k < len(multiset):
        j = k
        while j < len(multiset) and multiset[j] == multiset[k]:
            j += 1
        name = letters[multiset[k]][0]
        e = j - k
        parts.append(name if e == 1 else f"{name}^{e}")
        k = j
    return "*".join(parts) if parts else "1"


def ext_ranks(profile, s_max, t_max, stem_max=None):
    """Ext^{s,t}(F_p, F_p) dims over a profile quotient, as an ExtChart,
    in the box s <= s_max, t <= t_max, cut at stem_max when given.

    One pass over internal degrees: column t of the resolution is made,
    then each of its cells gets its dim and its class names.  The pass
    stops at the last degree a generator can reach, s_max times the top
    operator degree, which cuts a finite family short.
    """
    res = Resolution(profile, s_max, t_max, stem_max)
    chart = ExtChart(profile.p, f"Ext over {profile!r}", s_max, t_max, stem_max)
    letters = cobar_letters(profile, t_max)
    ops = [res.ops.number[res.ops.element(pair)] for _, _, pair in letters]
    products = {}
    for t in range(min(t_max, s_max * max(res.ops.degree)) + 1):
        res.column(t)
        for s in range(min(s_max, t) + 1):
            gens = res.cells.get((s, t))
            if gens:
                chart.dims[(s, t)] = len(gens)
                if letters:
                    _name_cell(chart, res, letters, ops, products, s, t)
    return chart


def _name_cell(chart, res, letters, ops, products, s, t):
    """Name the classes of cell (s, t) by products of letters.

    products[(s, t)] lists the cell's nonzero products as (sorted
    multiset, class), in multiset order.  Letter h goes in front of each
    product of cell (s - 1, t - deg h) whose first letter is not smaller
    than h, so each sorted multiset is formed once, from its tail.
    """
    if s == 0:
        formed = [((), {0: 1})]
    else:
        formed = sorted(
            (((h, *rest), y)
             for h, (_, degree, _) in enumerate(letters)
             for rest, x in products.get((s - 1, t - degree), ())
             if not rest or rest[0] >= h
             if (y := res.times(ops[h], s, t, x))),
            key=lambda product: product[0],
        )
    # a colliding product stays a tail for the cells above
    products[(s, t)] = formed
    seen = {}
    named = []
    for multiset, y in formed:
        key = tuple(sorted(y.items()))
        name = _multiset_name(letters, multiset)
        if key in seen:
            chart.collisions.append((seen[key], name, (s, t)))
            continue
        seen[key] = name
        named.append(name)
    if named:
        chart.names[(s, t)] = named


def evenness_scan(n, p, stem_max):
    """Certify that Ext over the exterior family E(n) with trivial
    coefficients has no class in an odd stem through stem_max, for
    every s.

    Ext over an exterior Hopf algebra on primitives is polynomial on
    one class in (1, d) per generator of degree d (Koszul duality; S.
    Priddy, "Koszul resolutions", 1970).  A product of s such classes
    sits in stem sum(d_i - 1), so odd letter degrees put every class in
    an even stem, and letters past degree stem_max + 1 reach only
    stems past the window.  Raises ValueError unless the family is
    exterior on its primitive letters through that degree and every
    letter degree is odd.
    """
    family = Profile.E(p, n)
    top = stem_max + 1
    degrees = [degree for _, degree, _ in cobar_letters(family, top)]
    exterior = [1] + [0] * top
    for d in degrees:
        for k in range(top, d - 1, -1):
            exterior[k] += exterior[k - d]
    if family.poincare(top) != exterior:
        raise ValueError(f"{family!r} is not exterior on its primitives through degree {top}")
    even = [d for d in degrees if d % 2 == 0]
    if even:
        raise ValueError(f"{family!r} has primitives in even degrees {even}")


def chart_from_ext(chart) -> ChartDocument:
    """Dot chart of an Ext rank table (no lines, no arrows)."""
    dots = {}
    stem_hi = fil_hi = 0
    for (s, t), d in sorted(chart.dims.items()):
        if d:
            stem = t - s
            dots[(stem, s)] = (d, "")
            stem_hi = max(stem_hi, stem)
            fil_hi = max(fil_hi, s)
    return ChartDocument(f"ext chart {chart.label}", dots, [], [],
                         (0, max(stem_hi, 1)), (0, max(fil_hi, 1)))


def ext_job(params, payload) -> dict:
    """The `ext` job's artifacts, {filename: bytes}: the chart over the
    family the validated CLI params name, in each requested format."""
    p, fam, n, s_max, stem_max = (params[k] for k in ("prime", "family", "n", "s_max", "stem_max"))
    chart = ext_ranks(getattr(Profile, fam)(p, n), s_max, stem_max + s_max, stem_max)
    base = f"ext_{fam.lower()}{n}_p{p}"
    out = {}
    if "tsv" in params["formats"]:
        out[f"{base}.tsv"] = chart.to_tsv().encode("utf-8")
    if "json" in params["formats"]:
        cells = [{"s": s, "t": t, "stem": t - s, "dim": d}
                 for (s, t), d in sorted(chart.dims.items()) if d]
        out[f"{base}.json"] = json_bytes({"label": chart.label, "cells": cells})
    if "svg" in params["formats"]:
        doc = chart_from_ext(chart)
        out[f"{base}.svg"] = render_chart(doc)
        out[f"{base}_chart.tsv"] = chart_to_tsv(doc).encode("utf-8")
    return out
