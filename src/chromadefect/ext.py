"""Cobar-complex Ext over profile quotients of the dual Steenrod algebra.

The reduced cobar complex of a quotient family B with coefficients in a
finite comodule M has C^{s,t} spanned by words [a_1|...|a_s]m with a_i
positive-degree basis monomials of B and deg(a_1...a_s) + deg(m) = t.
The differential alternates coface insertions of the reduced diagonal,
with position-only signs:

    d[a_1|...|a_s]m = sum_i (-1)^i [a_1|...|psi-bar(a_i)|...|a_s]m
                    + (-1)^{s+1} [a_1|...|a_s|b]m'

Internal degree t is preserved, so Ext^{s,t} is exact for every t below
the cap even when the family itself is infinite.

CobarComplex numbers the family's letters once, in the string order of
their monomials, and a word is the pair (tuple of letter numbers, cell
name): words hash and sort as plain tuples, and sorted words are in
string order.  Each letter's reduced diagonal and each cell's coaction
are numbered once too.

ext_ranks makes one pass over the columns: it computes the dims of
column t, names its classes by products of degree-one letters (cobar
concatenation, which satisfies the Leibniz rule with the cohomological
sign), then drops the column's words and matrices, so a job holds one
column at a time.  A product word that is a cocycle names the class of
its residue modulo the boundaries (PrimeFieldMatrix.residue), read off
the same echelon form that gave the rank of the incoming differential;
naming builds no homology basis.

evenness_scan builds no cobar complex: over an exterior family the
Koszul closed form places every class, so it checks that the family
has that form through the window and reads the stems off it.
"""

from .gradedlin import PrimeFieldMatrix, vec_from_terms
from .steenrod import Comodule, Profile, elt_add_term, reduced_coproduct, tau_gen, xi_gen

__all__ = [
    "CobarComplex",
    "ExtChart",
    "ext_ranks",
    "evenness_scan",
    "cobar_dims",
    "cobar_letters",
    "profile_key",
]


def profile_key(profile):
    """Stable hashable identity of a profile, for cache keys."""
    tau = profile.tau
    if isinstance(tau, frozenset):
        tau = tuple(sorted(tau))
    return (profile.p, profile.heights, profile.tail, tau, profile.even_only)


def cobar_dims(profile, module, s_max, t_max):
    """Word counts of the cobar complex without building a word.

    Returns rows[s][t] = dim C^{s,t} for s <= s_max, t <= t_max: the
    coefficient of q^t in Pbar(q)^s M(q), with Pbar the family's
    Poincare series less its constant term and M the module's.
    """
    bar = profile.poincare(t_max)
    rows = [module.poincare(t_max)]
    for _ in range(s_max):
        prev = rows[-1]
        row = [0] * (t_max + 1)
        for i, a in enumerate(prev):
            if a:
                # j from 1: letters have positive degree
                for j in range(1, t_max + 1 - i):
                    row[i + j] += a * bar[j]
        rows.append(row)
    return rows


class CobarComplex:
    """Reduced cobar complex through (s_max, t_max).

    letters lists the family's positive-degree monomials through t_max
    sorted by their strings, and number maps each monomial to its index
    there.  A word [a_1|...|a_s]m is (tuple of letter numbers, cell
    name), so words(s, t) is string order on letters, then cell name.
    """

    def __init__(self, profile, module, s_max, t_max):
        if s_max < 0 or t_max < 0:
            raise ValueError("caps must be nonnegative")
        self.profile = profile
        self.p = profile.p
        self.s_max = s_max
        self.t_max = t_max
        if module.p != profile.p:
            raise ValueError("prime mismatch")
        # the coaction must land in this family; revalidating under the
        # target profile catches coactions that do not factor through it
        if profile_key(module.profile) != profile_key(profile):
            basis = [(n, module.degree_of[n]) for n in module.names]
            module = Comodule(profile, basis, module.coaction)
        self.module = module
        self.letters = sorted(profile.positive_basis(t_max), key=str)
        self.number = {m: i for i, m in enumerate(self.letters)}
        self._degrees = [m.degree() for m in self.letters]
        # a word of s letters has internal degree at most s * top_letter
        # + top_cell: enumeration and the column pass stop there
        self.top_letter = max(self._degrees, default=0)
        self.top_cell = max(module.degree_of.values(), default=0)
        # reduced diagonal of each letter as (left, right, coef) numbers,
        # filled on first use
        self._diagonals = [None] * len(self.letters)
        # coaction of each cell a word can carry, counit terms dropped
        self._coaction = {
            name: [
                (self.number[mono], c, target)
                for mono, c, target in module.coaction[name]
                if not mono.is_unit()
            ]
            for name in module.names
            if module.degree_of[name] <= t_max
        }
        self._words = {}
        self._index = {}
        self._diff = {}

    # basis ------------------------------------------------------------

    def words(self, s, t):
        """Sorted cobar words in bidegree (s, t)."""
        key = (s, t)
        got = self._words.get(key)
        if got is not None:
            return got
        out = []
        if 0 <= s <= t:
            self._spell(out, s, t, [])
        # within a cell all words have s letters, so tuple order is
        # string order on letters, then cell name
        out.sort()
        self._words[key] = out
        self._index[key] = {w: i for i, w in enumerate(out)}
        return out

    def _spell(self, out, left, budget, acc):
        """Append to out each word that completes the letters acc with
        `left` more letters and a cell, in internal degree budget.

        A method, not a closure: a recursive closure is a reference
        cycle, which would keep a released column alive until the
        garbage collector ran.
        """
        if left == 0:
            for name in self.module.names:
                if self.module.degree_of[name] == budget:
                    out.append((tuple(acc), name))
            return
        rest = left - 1
        # leave at least 1 per remaining slot, and no more than the
        # remaining slots and the module can take
        low = budget - self.top_cell - rest * self.top_letter
        for a, d in enumerate(self._degrees):
            if low <= d <= budget - rest:
                acc.append(a)
                self._spell(out, rest, budget - d, acc)
                acc.pop()

    def dim_cell(self, s, t):
        return len(self.words(s, t))

    def differential_matrix(self, s, t):
        """Matrix of d: C^{s,t} -> C^{s+1,t} (rows = source words)."""
        key = (s, t)
        got = self._diff.get(key)
        if got is not None:
            return got
        src = self.words(s, t)
        tgt_index = self._index_for(s + 1, t)
        terms = []
        for row, word in enumerate(src):
            for tword, coef in self._d_word(word):
                col = tgt_index.get(tword)
                if col is None:
                    raise AssertionError("differential left the computed window")
                terms.append((row, col, coef))
        mat = PrimeFieldMatrix.from_terms(
            self.p, len(src), max(len(tgt_index), 1), terms
        )
        self._diff[key] = mat
        return mat

    def differential_rank(self, s, t):
        """Rank of d: C^{s,t} -> C^{s+1,t}."""
        if self.dim_cell(s, t) == 0 or self.dim_cell(s + 1, t) == 0:
            return 0
        return self.differential_matrix(s, t).rank()

    def release_column(self, t):
        """Drop cached words and matrices at internal degree t."""
        for cache in (self._words, self._index, self._diff):
            for key in [k for k in cache if k[1] == t]:
                del cache[key]

    def _index_for(self, s, t):
        self.words(s, t)
        return self._index[(s, t)]

    def _diagonal(self, a):
        """Reduced diagonal of letter a as [(left, right, coef)] numbers."""
        got = self._diagonals[a]
        if got is None:
            diagonal = reduced_coproduct(self.letters[a], self.profile)
            got = [(self.number[l], self.number[r], c) for (l, r), c in diagonal.items()]
            self._diagonals[a] = got
        return got

    def _d_word(self, word):
        """Differential of one word as [(word, coef)] with repeats summed."""
        letters, name = word
        p = self.p
        s = len(letters)
        acc = {}
        for i, a in enumerate(letters):
            sign = -1 if (i + 1) % 2 else 1
            head, tail = letters[:i], letters[i + 1 :]
            for left, right, c in self._diagonal(a):
                elt_add_term(p, acc, (head + (left, right) + tail, name), sign * c)
        sign = -1 if (s + 1) % 2 else 1
        for a, c, target in self._coaction[name]:
            elt_add_term(p, acc, (letters + (a,), target), sign * c)
        return list(acc.items())

    # homology ----------------------------------------------------------

    def ext_dim(self, s, t):
        cycles = self.dim_cell(s, t) - self.differential_rank(s, t)
        if s == 0:
            return cycles
        return cycles - self.differential_rank(s - 1, t)


class ExtChart:
    """Bigraded Ext dims with named classes."""

    def __init__(self, p, label, s_max, t_max):
        self.p = p
        self.label = label
        self.s_max = s_max
        self.t_max = t_max
        self.dims = {}
        self.names = {}
        self.collisions = []

    def to_tsv(self):
        lines = [
            f"# ext chart: {self.label}",
            f"# window: s <= {self.s_max}, t <= {self.t_max}",
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
    """Named degree-one cocycles: h(i,j) for primitive xi_i^{p^j} and
    a(i) for primitive tau_i, through internal degree t_max."""
    p = profile.p
    letters = []
    i = 1
    while True:
        base = xi_gen(p, i)
        if base.degree() > t_max:
            break
        j = 0
        while True:
            mono = xi_gen(p, i, p**j)
            if mono.degree() > t_max:
                break
            if profile.allows(mono) and not reduced_coproduct(mono, profile):
                letters.append((f"h({i},{j})", mono))
            j += 1
        i += 1
    if p != 2:
        t = 0
        while tau_gen(p, t).degree() <= t_max:
            mono = tau_gen(p, t)
            if profile.allows(mono) and not reduced_coproduct(mono, profile):
                letters.append((f"a({t})", mono))
            t += 1
    return letters


def _letter_products(letters, s, t):
    """Multisets of s letters with total degree t, sorted canonically."""
    out = []

    def rec(idx, left, budget, acc):
        if left == 0:
            if budget == 0:
                out.append(tuple(acc))
            return
        if idx == len(letters):
            return
        d = letters[idx][1].degree()
        c = 0
        while c <= left and c * d <= budget:
            rec(idx + 1, left - c, budget - c * d, acc + [idx] * c)
            c += 1

    rec(0, s, t, [])
    return sorted(out)


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


def ext_ranks(profile, module, s_max, t_max):
    """Ext^{s,t} dims over a profile quotient, as an ExtChart.

    One pass over internal degrees: each cell of column t gets its dim
    and its class names, then the column's words and matrices are
    released.  Naming cell (s, t) reads only the differentials out of
    (s, t) and (s - 1, t), both in the column.  The pass stops at the
    last column a word can reach: s_max letters of the top letter
    degree on the top module cell, which cuts a finite family short.
    """
    complexes = CobarComplex(profile, module, s_max, t_max)
    chart = ExtChart(
        profile.p,
        f"Ext over {profile!r}",
        s_max,
        t_max,
    )
    letters = cobar_letters(profile, t_max)
    # letter products are only meaningful against a degree-0 cell of M
    degree_of = complexes.module.degree_of
    base = next((n for n in complexes.module.names if degree_of[n] == 0), None)
    t_last = min(t_max, s_max * complexes.top_letter + complexes.top_cell)
    for t in range(t_last + 1):
        for s in range(0, min(s_max, t) + 1):
            d = complexes.ext_dim(s, t)
            if d:
                chart.dims[(s, t)] = d
                if letters and base is not None:
                    _name_cell(chart, complexes, letters, base, s, t)
        complexes.release_column(t)
    return chart


def _name_cell(chart, complexes, letters, base, s, t):
    """Name the classes of cell (s, t) by products of letters.

    A product word that is a cocycle (empty differential) is read as
    its residue modulo the boundaries, the rows of d out of (s - 1, t);
    at s = 0 that matrix has no rows, so the residue is the word.  A
    zero residue is a boundary; a residue an earlier product took is a
    collision, and the first name stays.
    """
    products = _letter_products(letters, s, t)
    if not products:
        return
    index = complexes._index_for(s, t)
    boundaries = complexes.differential_matrix(s - 1, t)
    seen = {}
    named = []
    for multiset in products:
        word = (tuple(complexes.number[letters[i][1]] for i in multiset), base)
        col = index.get(word)
        # off the cell's basis, or not a cocycle (nontrivial coaction)
        if col is None or complexes._d_word(word):
            continue
        key = boundaries.residue(vec_from_terms(chart.p, [(col, 1)]))
        if not key:
            continue
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
    degrees = [mono.degree() for _, mono in cobar_letters(family, top)]
    exterior = [1] + [0] * top
    for d in degrees:
        for k in range(top, d - 1, -1):
            exterior[k] += exterior[k - d]
    if family.poincare(top) != exterior:
        raise ValueError(f"{family!r} is not exterior on its primitives through degree {top}")
    even = [d for d in degrees if d % 2 == 0]
    if even:
        raise ValueError(f"{family!r} has primitives in even degrees {even}")
