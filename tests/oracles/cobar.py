"""The reduced cobar complex: the reference Ext engine.

The reduced cobar complex of a quotient family B with coefficients in a
finite comodule M has C^{s,t} spanned by words [a_1|...|a_s]m with a_i
positive-degree basis monomials of B and deg(a_1...a_s) + deg(m) = t.
The differential alternates coface insertions of the reduced diagonal,
with position-only signs:

    d[a_1|...|a_s]m = sum_i (-1)^i [a_1|...|psi-bar(a_i)|...|a_s]m
                    + (-1)^{s+1} [a_1|...|a_s|b]m'

Internal degree t is preserved, so Ext^{s,t} is exact for every t below
the cap even when the family itself is infinite.  Its word count grows
exponentially in s, which is why the package resolves instead; the
complex stays here as the oracle the resolution is checked against,
and as the only engine that takes module coefficients.  The family's
membership rule is oracles.diagonal.allows.

CobarComplex numbers the family's letters once, in the string order of
their monomials, and a word is the pair (tuple of letter numbers, cell
name).  ext_ranks makes one pass over the columns, names each class
by products of degree-one letters (cobar concatenation), and reads a
product word that is a cocycle as its residue modulo the boundaries.
Its candidate products are every multiset of s letters of degree t,
enumerated from scratch by _letter_products, where the package extends
the products one filtration below; the two name the same classes.
"""

from chromadefect.ext import ExtChart, _multiset_name, cobar_letters
from chromadefect.gradedlin import PrimeFieldMatrix, vec_from_terms
from chromadefect.steenrod import elt_add_term

from oracles.diagonal import DualMonomial, allows, coproduct, monomials, reduced_coproduct
from oracles.linalg import rank, residue


class Comodule:
    """Finite left comodule over a profile quotient.

    basis: iterable of (name, degree).  coaction: {name: [(mono, coef,
    target-name), ...]} including the counit term (1, 1, name).  The
    construction validates the counit, grading, and coassociativity.
    """

    def __init__(self, profile, basis, coaction):
        self.profile = profile
        self.p = profile.p
        pairs = sorted(((d, n) for n, d in basis))
        self.names = [n for _, n in pairs]
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate basis names")
        self.degree_of = {n: d for d, n in pairs}
        self.coaction = {}
        for name in self.names:
            terms = []
            for mono, coef, target in coaction.get(name, ()):
                coef %= self.p
                if coef:
                    terms.append((mono, coef, target))
            terms.sort(key=lambda t: (str(t[0]), t[2]))
            self.coaction[name] = terms
        self._validate()

    def _validate(self):
        unit = DualMonomial(self.p)
        for name in self.names:
            d = self.degree_of[name]
            unit_terms = []
            for mono, coef, target in self.coaction[name]:
                if target not in self.degree_of:
                    raise ValueError(f"coaction of {name} hits unknown {target}")
                if not allows(self.profile, mono):
                    raise ValueError(f"coaction of {name} uses a killed monomial")
                if mono.degree() + self.degree_of[target] != d:
                    raise ValueError(f"coaction of {name} is not degree-preserving")
                if not mono.degree():
                    unit_terms.append((coef, target))
            if unit_terms != [(1, name)]:
                raise ValueError(f"counit axiom fails on {name}")
        # coassociativity, checked termwise through the finite basis
        for name in self.names:
            lhs = {}
            rhs = {}
            for mono, coef, target in self.coaction[name]:
                for (left, right), c in coproduct(mono, self.profile).items():
                    k = (left, right, target)
                    elt_add_term(self.p, lhs, k, coef * c)
                for mono2, coef2, target2 in self.coaction[target]:
                    k = (mono, mono2, target2)
                    elt_add_term(self.p, rhs, k, coef * coef2)
            if lhs != rhs:
                raise ValueError(f"coaction is not coassociative at {name}")

    # constructors ----------------------------------------------------------

    @classmethod
    def trivial(cls, profile, degrees=(0,)):
        unit = DualMonomial(profile.p)
        basis = []
        coaction = {}
        for k, d in enumerate(degrees):
            name = f"m{k}"
            basis.append((name, d))
            coaction[name] = [(unit, 1, name)]
        return cls(profile, basis, coaction)

    # structure ---------------------------------------------------------

    def poincare(self, cap):
        dims = [0] * (cap + 1)
        for n in self.names:
            if self.degree_of[n] <= cap:
                dims[self.degree_of[n]] += 1
        return dims


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
        self.letters = sorted((m for m in monomials(profile, t_max) if m.degree()), key=str)
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
                if mono.degree()
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
        return rank(self.differential_matrix(s, t))

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


def _letter_products(letters, s, t):
    """Multisets of s letters with total degree t, sorted canonically:
    every candidate name of cell (s, t), enumerated from scratch."""
    out = []

    def rec(idx, left, budget, acc):
        if left == 0:
            if budget == 0:
                out.append(tuple(acc))
            return
        if idx == len(letters):
            return
        d = letters[idx][1]
        c = 0
        while c <= left and c * d <= budget:
            rec(idx + 1, left - c, budget - c * d, acc + [idx] * c)
            c += 1

    rec(0, s, t, [])
    return sorted(out)


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
    monos = [DualMonomial(chart.p, *pair) for _, _, pair in letters]
    index = complexes._index_for(s, t)
    boundaries = complexes.differential_matrix(s - 1, t)
    seen = {}
    named = []
    for multiset in products:
        word = (tuple(complexes.number[monos[i]] for i in multiset), base)
        col = index.get(word)
        # off the cell's basis, or not a cocycle (nontrivial coaction)
        if col is None or complexes._d_word(word):
            continue
        key = residue(boundaries, vec_from_terms(chart.p, [(col, 1)]))
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
