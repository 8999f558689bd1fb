"""Margolis homology and freeness over finite Steenrod subalgebras.

A module here is a finite graded F_p vector space with explicit action
matrices for a declared set of Milnor operators, written P(t,s) (dual
to xi_t^{p^s}) and, at odd primes, Q(t) (dual to tau_t).  Every Q(t)
squares to zero, and the P(t,s) with s < t square to zero at p = 2 and
have vanishing p-th power at odd primes, so each one carries a
homology; a finite module is free over one of the standard subalgebras
exactly when all of those homologies vanish, and that is the test
is_free_over runs.

A finite comodule over a finite profile quotient (steenrod.Comodule)
becomes such a module through dual_module, which lets each Margolis
operation of the family act by slicing the coaction.  Cofreeness of the
comodule is then the same vanishing test (cofree_decompose), at every
prime.

Square-zero operator lists come from the height profile of the dual
quotient.  Spelled out at p = 2 through level 3:

    A-kind level 0: P(1,0)
    A-kind level 1: P(1,0) P(2,0)
    A-kind level 2: P(1,0) P(2,0) P(2,1) P(3,0)
    A-kind level 3: P(1,0) P(2,0) P(2,1) P(3,0) P(3,1) P(4,0)

The even (P-kind) lists at p = 2 are the same with s bumped once, per
DOUBLING_SHIFT.  At odd primes the A-kind list is Q(0)..Q(n) together
with the P(t,s), s < t, allowed by the heights n+1-t, and the P-kind
list uses heights n+2-t with no shift and no Q's.
"""

import re
from math import comb

from .gradedlin import (
    PrimeFieldMatrix,
    SubquotientBasis,
    vec_support,
)
from .steenrod import (
    MilnorBasisElement,
    Profile,
    elt_add_term,
    family_margolis_indices,
    milnor_product,
    milnor_q,
    operator_basis,
    tau_gen,
    xi_gen,
)

__all__ = [
    "DOUBLING_SHIFT",
    "FiniteSteenrodModule",
    "MargolisHomology",
    "MargolisVerdict",
    "cofree_decompose",
    "cp_module",
    "dual_module",
    "free_module",
    "is_free_over",
    "margolis_homology",
    "operator_degree",
    "parse_operator",
    "ptzero_nontriviality",
    "rp_module",
    "subalgebra_dimension",
    "subalgebra_module",
    "subalgebra_operators",
    "trivial_module",
    "two_cell_module",
]


_OP_RE = re.compile(r"^(P|Q)\((\d+)(?:,(\d+))?\)$")

# Degree-doubling pairing between the square-zero operators of the
# A-kind subalgebras (levels 0..3) and their even-subalgebra twins.
# Literal data, so the pairing can be audited against the docstring.
DOUBLING_SHIFT = {
    "P(1,0)": "P(1,1)",
    "P(2,0)": "P(2,1)",
    "P(2,1)": "P(2,2)",
    "P(3,0)": "P(3,1)",
    "P(3,1)": "P(3,2)",
    "P(4,0)": "P(4,1)",
}


def parse_operator(name):
    """'P(t,s)' -> ('P', t, s); 'Q(t)' -> ('Q', t, None)."""
    m = _OP_RE.match(name)
    if not m:
        raise ValueError(f"unrecognized operator name {name!r}")
    kind, t, s = m.group(1), int(m.group(2)), m.group(3)
    if kind == "P":
        if s is None:
            raise ValueError(f"operator {name!r} is missing its power index")
        if t < 1:
            raise ValueError(f"operator {name!r} has a bad column index")
        return "P", t, int(s)
    if s is not None:
        raise ValueError(f"exterior operator {name!r} takes a single index")
    return "Q", t, None


def operator_degree(p, name):
    kind, t, s = parse_operator(name)
    if kind == "Q":
        if p == 2:
            raise ValueError("Q-operators are odd-prime notation; use P(t,0) at p = 2")
        return 2 * p**t - 1
    if p == 2:
        return 2**s * (2**t - 1)
    return 2 * p**s * (p**t - 1)


def _margolis_type(name, p, even_only):
    """Operators that differentiate every module of this mode: nilpotent
    of the order _nilpotence_order reports."""
    kind, t, s = parse_operator(name)
    if kind == "Q":
        return True
    if even_only:
        # degree-doubling moves P(t,s) down to P(t,s-1)
        return s - 1 < t
    return s < t


def _nilpotence_order(name, p):
    """2 for the honest differentials; the P-operators at odd primes
    generate a height-p truncated polynomial algebra instead."""
    kind, t, s = parse_operator(name)
    if kind == "Q" or p == 2:
        return 2
    return p


def _nilpotence_message(op, k, name):
    if k == 2:
        return f"{op} squared is nonzero on basis element {name}"
    return f"{op} to the power {k} is nonzero on basis element {name}"


def _derivation_type(name, p, even_only):
    """Operators that act on tensor products as (signed) derivations:
    the primitive ones."""
    kind, t, s = parse_operator(name)
    if kind == "Q":
        return True
    if even_only:
        return s == 1
    return p == 2 and s == 0


class FiniteSteenrodModule:
    """Finite graded module over a piece of the Steenrod algebra.

    basis: iterable of (name, degree).  actions: {operator name:
    {source name: [(coef, target name), ...]}}; omitted sources act by
    zero, and an operator with an empty table is still declared.
    even_only marks modules over the even subalgebra at p = 2: only
    P(t,s) with s >= 1 may then be declared, and P(t,t) joins the
    square-zero operators.  The flag is a statement about the action,
    not the grading, so odd suspensions keep it.

    Construction validates the grading and the nilpotence of every
    homology-carrying operator (squares at p = 2 and for the Q(t),
    p-th powers for the odd-prime P(t,s)); instances are immutable
    once built.
    """

    def __init__(self, p, basis, actions, even_only=False, validate=True):
        self.p = int(p)
        if self.p < 2:
            raise ValueError("p must be a prime >= 2")
        self.even_only = bool(even_only)
        if self.even_only and self.p != 2:
            raise ValueError("even-only mode is a p = 2 notion")
        pairs = sorted((d, n) for n, d in basis)
        self.names = [n for _, n in pairs]
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate basis names")
        self.degree_of = {n: d for d, n in pairs}
        self.operators = tuple(sorted(actions))
        self.actions = {}
        for op in self.operators:
            table = {}
            for src, terms in actions[op].items():
                acc = {}
                for coef, tgt in terms:
                    elt_add_term(self.p, acc, tgt, coef)
                if acc:
                    table[src] = tuple((c, t) for t, c in sorted(acc.items()))
            self.actions[op] = table
        if validate:
            self._validate()

    def _validate(self):
        for op in self.operators:
            kind, t, s = parse_operator(op)
            if self.even_only and kind == "P" and s == 0:
                raise ValueError(f"{op} does not belong to the even subalgebra")
            step = operator_degree(self.p, op)
            for src, terms in self.actions[op].items():
                if src not in self.degree_of:
                    raise ValueError(f"action of {op} on unknown element {src}")
                for coef, tgt in terms:
                    if tgt not in self.degree_of:
                        raise ValueError(f"action of {op} hits unknown element {tgt}")
                    if self.degree_of[tgt] != self.degree_of[src] + step:
                        raise ValueError(
                            f"action of {op} on {src} is not degree-preserving"
                        )
            if _margolis_type(op, self.p, self.even_only):
                k = _nilpotence_order(op, self.p)
                bad = self._nilpotence_offender(op, k)
                if bad is not None:
                    raise ValueError(_nilpotence_message(op, k, bad))

    # structure ---------------------------------------------------------

    def dim(self):
        return len(self.names)

    def degrees(self):
        return sorted(set(self.degree_of.values()))

    def dims(self):
        out = {}
        for n in self.names:
            d = self.degree_of[n]
            out[d] = out.get(d, 0) + 1
        return out

    def slice_names(self, degree):
        return [n for n in self.names if self.degree_of[n] == degree]

    def _table(self, op):
        try:
            return self.actions[op]
        except KeyError:
            raise ValueError(f"operator {op} is not declared on this module") from None

    def act(self, op, vector):
        """Apply a declared operator to a {name: coef} vector."""
        table = self._table(op)
        out = {}
        for src, c in vector.items():
            for coef, tgt in table.get(src, ()):
                elt_add_term(self.p, out, tgt, c * coef)
        return out

    def _nilpotence_offender(self, op, k):
        """Name of a basis element where the k-fold op is nonzero."""
        for src in self.actions[op]:
            v = {src: 1}
            for _ in range(k):
                v = self.act(op, v)
                if not v:
                    break
            if v:
                return src
        return None

    def operator_matrix(self, op, degree, power=1):
        """Matrix of the power-fold composite of op out of the degree
        slice, rows following slice order."""
        self._table(op)
        step = operator_degree(self.p, op) * power
        src = self.slice_names(degree)
        tgt = self.slice_names(degree + step)
        pos = {n: j for j, n in enumerate(tgt)}
        terms = []
        for i, name in enumerate(src):
            v = {name: 1}
            for _ in range(power):
                v = self.act(op, v)
                if not v:
                    break
            for t, coef in v.items():
                terms.append((i, pos[t], coef))
        return PrimeFieldMatrix.from_terms(self.p, len(src), len(tgt), terms)

    # constructions -----------------------------------------------------

    def suspend(self, k):
        basis = [(n, self.degree_of[n] + k) for n in self.names]
        return FiniteSteenrodModule(
            self.p, basis, self.actions, self.even_only, validate=False
        )

    def direct_sum(self, other):
        """Block sum; an operator declared on one side only acts by
        zero on the other."""
        if self.p != other.p:
            raise ValueError("summands live over different primes")
        left = {n: f"a.{n}" for n in self.names}
        right = {n: f"b.{n}" for n in other.names}
        basis = [(left[n], self.degree_of[n]) for n in self.names]
        basis += [(right[n], other.degree_of[n]) for n in other.names]
        actions = {}
        for op in set(self.operators) | set(other.operators):
            table = {}
            for src, terms in self.actions.get(op, {}).items():
                table[left[src]] = [(c, left[t]) for c, t in terms]
            for src, terms in other.actions.get(op, {}).items():
                table[right[src]] = [(c, right[t]) for c, t in terms]
            actions[op] = table
        return FiniteSteenrodModule(
            self.p,
            basis,
            actions,
            self.even_only and other.even_only,
            validate=False,
        )

    def tensor(self, other, ops=None):
        """Tensor product over F_p with the diagonal operator action.

        Only primitive operators act on a tensor product by the Leibniz
        rule: Q(t), the P(t,0) at p = 2, and P(t,1) in even-only mode.
        The default keeps every common declared operator of that shape;
        asking for anything else raises.
        """
        if self.p != other.p:
            raise ValueError("factors live over different primes")
        p = self.p
        even = self.even_only and other.even_only
        if ops is None:
            ops = [
                op
                for op in self.operators
                if op in other.actions and _derivation_type(op, p, even)
            ]
        else:
            for op in ops:
                if op not in self.actions or op not in other.actions:
                    raise ValueError(f"operator {op} is not declared on both factors")
                if not _derivation_type(op, p, even):
                    raise ValueError(f"{op} is not primitive; no tensor action")
        name = {}
        basis = []
        for a in self.names:
            for b in other.names:
                nm = f"{a}|{b}"
                name[a, b] = nm
                basis.append((nm, self.degree_of[a] + other.degree_of[b]))
        actions = {}
        for op in ops:
            odd_step = operator_degree(p, op) % 2
            table = {}
            for a in self.names:
                for b in other.names:
                    terms = [
                        (coef, name[t, b]) for coef, t in self.actions[op].get(a, ())
                    ]
                    sign = -1 if odd_step and self.degree_of[a] % 2 else 1
                    terms += [
                        (sign * coef, name[a, t])
                        for coef, t in other.actions[op].get(b, ())
                    ]
                    if terms:
                        table[name[a, b]] = terms
            actions[op] = table
        return FiniteSteenrodModule(p, basis, actions, even_only=even)

    # serialization -----------------------------------------------------

    def to_json(self):
        return {
            "prime": self.p,
            "even_only": self.even_only,
            "operators": list(self.operators),
            "basis": [{"name": n, "degree": self.degree_of[n]} for n in self.names],
            "actions": [
                {
                    "operator": op,
                    "on": src,
                    "terms": [{"coef": c, "to": t} for c, t in self.actions[op][src]],
                }
                for op in self.operators
                for src in sorted(self.actions[op])
            ],
        }

    @classmethod
    def from_json(cls, data):
        try:
            p = int(data["prime"])
            even = bool(data.get("even_only", False))
            basis = [(str(b["name"]), int(b["degree"])) for b in data["basis"]]
            actions = {str(op): {} for op in data.get("operators", ())}
            for row in data.get("actions", ()):
                table = actions.setdefault(str(row["operator"]), {})
                table[str(row["on"])] = [
                    (int(t["coef"]), str(t["to"])) for t in row["terms"]
                ]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed module data: {exc}") from exc
        return cls(p, basis, actions, even_only=even)


class MargolisHomology:
    """Graded homology of one square-zero operator.

    dims holds the nonzero graded dimensions; witnesses holds chosen
    representative cycles per degree as {basis name: coef} dicts.
    """

    __slots__ = ("operator", "dims", "witnesses")

    def __init__(self, operator, dims, witnesses):
        self.operator = operator
        self.dims = dims
        self.witnesses = witnesses

    def dim_at(self, degree):
        return self.dims.get(degree, 0)

    @property
    def total(self):
        return sum(self.dims.values())

    def is_zero(self):
        return not self.dims

    def to_json(self):
        return {
            "operator": self.operator,
            "dims": {str(d): v for d, v in sorted(self.dims.items())},
            "witnesses": {str(d): w for d, w in sorted(self.witnesses.items())},
        }

    def __repr__(self):
        return f"MargolisHomology({self.operator}, total={self.total})"


def margolis_homology(module, op):
    """Homology of a finite module under one nilpotent operator.

    For the order-2 operators (all of them at p = 2, the Q(t) at odd
    primes) this is ker/im; the P(t,s) at odd primes have p-th power
    zero instead, and the homology taken is ker(op)/im(op^(p-1)),
    whose vanishing on a finite module is still equivalent to freeness
    over the truncated algebra the operator generates.  An operator
    whose nilpotence fails on the module is rejected with an offending
    basis element named.
    """
    module._table(op)
    p = module.p
    k = _nilpotence_order(op, p)
    bad = module._nilpotence_offender(op, k)
    if bad is not None:
        raise ValueError(_nilpotence_message(op, k, bad))
    step = operator_degree(p, op)
    dims = {}
    wits = {}
    for d in module.degrees():
        cur = module.slice_names(d)
        kernel = module.operator_matrix(op, d).kernel_vectors()
        image = module.operator_matrix(op, d - step * (k - 1), power=k - 1).rows
        sub = SubquotientBasis(p, len(cur), image, kernel)
        if sub.dim:
            dims[d] = sub.dim
            wits[d] = [
                {cur[i]: c for i, c in vec_support(p, rep, len(cur))}
                for rep in sub.reps
            ]
    return MargolisHomology(op, dims, wits)


class MargolisVerdict:
    """Freeness verdict over a named subalgebra.

    homology maps each operator to its nonzero graded dims; free holds
    exactly when every one is empty, rank is then the generator count,
    and witness otherwise carries (operator, degree, class) for the
    first nonvanishing homology.
    """

    __slots__ = ("subalgebra", "operators", "homology", "free", "rank", "witness")

    def __init__(self, subalgebra, operators, homology, free, rank, witness):
        self.subalgebra = subalgebra
        self.operators = operators
        self.homology = homology
        self.free = free
        self.rank = rank
        self.witness = witness

    def to_json(self):
        witness = None
        if self.witness is not None:
            witness = {
                "operator": self.witness[0],
                "degree": self.witness[1],
                "class": self.witness[2],
            }
        return {
            "subalgebra": self.subalgebra,
            "operators": list(self.operators),
            "free": self.free,
            "rank": self.rank,
            "homology": {
                op: {str(d): v for d, v in sorted(h.items())}
                for op, h in self.homology.items()
            },
            "witness": witness,
        }

    def __repr__(self):
        tag = f"free, rank {self.rank}" if self.free else "not free"
        return f"MargolisVerdict({self.subalgebra}: {tag})"


def _parse_subalgebra(spec):
    m = re.match(r"^([AP])\((\d+)\)$", spec.strip()) if isinstance(spec, str) else None
    if not m:
        raise ValueError(f"unrecognized subalgebra {spec!r}; expected 'A(n)' or 'P(n)'")
    return m.group(1), int(m.group(2))


def _profile_for(p, kind, level):
    if kind == "A":
        return Profile.A(p, level)
    if kind == "P":
        return Profile.P(p, level)
    raise ValueError("subalgebra kind must be 'A' or 'P'")


def subalgebra_operators(p, kind, level):
    """Square-zero operator names for the level-n subalgebra.

    kind 'A' is generated by the first level+1 power operations (plus
    the Bockstein at odd p); kind 'P' is the even counterpart.  At
    p = 2 the P-kind list is the A-kind list pushed through
    DOUBLING_SHIFT, which caps the supported level.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    if p == 2 and kind == "P":
        base = subalgebra_operators(2, "A", level)
        if any(op not in DOUBLING_SHIFT for op in base):
            raise ValueError("the doubling table covers levels 0..3 only")
        return [DOUBLING_SHIFT[op] for op in base]
    xi_ops, tau_ops = family_margolis_indices(_profile_for(p, kind, level))
    out = [f"Q({t})" for t in tau_ops]
    out += [f"P({t},{s})" for t, s in xi_ops]
    return out


def subalgebra_dimension(p, kind, level):
    return _profile_for(p, kind, level).total_dimension()


def is_free_over(module, subalgebra):
    """Freeness over 'A(n)' or 'P(n)' through vanishing of every
    Margolis homology of the subalgebra.

    Every required operator must be declared on the module, and P-kind
    tests at p = 2 need even-only mode, where the shifted operators
    square to zero.
    """
    kind, level = _parse_subalgebra(subalgebra)
    if module.p == 2 and kind == "P" and not module.even_only:
        raise ValueError("freeness over an even subalgebra needs an even-only module")
    ops = subalgebra_operators(module.p, kind, level)
    missing = [op for op in ops if op not in module.actions]
    if missing:
        raise ValueError(
            f"module does not declare {', '.join(missing)} "
            f"needed for freeness over {subalgebra}"
        )
    homology = {}
    free = True
    witness = None
    for op in ops:
        h = margolis_homology(module, op)
        homology[op] = dict(h.dims)
        if not h.is_zero():
            free = False
            if witness is None:
                d = min(h.dims)
                witness = (op, d, h.witnesses[d][0])
    rank = module.dim() // subalgebra_dimension(module.p, kind, level) if free else None
    return MargolisVerdict(subalgebra, tuple(ops), homology, free, rank, witness)


# ---------------------------------------------------------------------------
# comodules over finite families


def _dual_operations(profile):
    """(operator name, dual monomial) per Margolis operation of a finite
    family, in family_margolis_indices order."""
    p = profile.p
    xi_ops, tau_ops = family_margolis_indices(profile)
    step = 2 if profile.even_only else 1
    out = []
    for t, s in xi_ops:
        name = f"P({t},{s + 1})" if profile.even_only else f"P({t},{s})"
        out.append((name, xi_gen(p, t, step * p**s)))
    for t in tau_ops:
        out.append((f"Q({t})", tau_gen(p, t)))
    return out


def dual_module(comodule):
    """A finite comodule as a module over its family's Margolis operations.

    One operator per entry of family_margolis_indices: P(t,s) dual to
    xi_t^(p^s) (named P(t,s+1) and dual to xi_t^(2^(s+1)) in the
    even-only case) and Q(t) dual to tau_t.  Each acts by slicing the
    coaction at its monomial: it sends m to the sum of c * m' over the
    coaction terms (monomial, c, m').  The dual operations lower
    comodule degree, so the basis is graded by the negated comodule
    degree.
    """
    profile = comodule.profile
    actions = {}
    for op, mono in _dual_operations(profile):
        actions[op] = {
            src: [(c, tgt) for m, c, tgt in comodule.coaction[src] if m == mono]
            for src in comodule.names
        }
    basis = [(n, -comodule.degree_of[n]) for n in comodule.names]
    return FiniteSteenrodModule(profile.p, basis, actions, even_only=profile.even_only)


def cofree_decompose(comodule):
    """Decide cofreeness of a comodule over a finite family (even-only
    at p = 2).

    The comodule is cofree exactly when every Margolis homology of its
    dual_module vanishes; at odd primes the P(t,s) homology is taken
    against the (p-1)-fold power, as in margolis_homology.  Returns
    (True, sorted cogenerator degrees) or (False, witness), where
    witness is (operator, total homology dimension) for the first
    operation in family_margolis_indices order with nonvanishing
    homology.  Cogenerator degrees come from dividing Poincare series.
    """
    profile = comodule.profile
    if profile.p == 2 and not profile.even_only:
        raise ValueError("expected an even-only family at p = 2")
    module = dual_module(comodule)
    for op, _ in _dual_operations(profile):
        total = margolis_homology(module, op).total
        if total:
            return False, (op, total)
    fam = profile.poincare(max(comodule.degrees(), default=0))
    work = comodule.poincare()
    cogens = []
    for d in range(len(work)):
        c = work[d]
        if c < 0:
            return False, ("series", d)
        if not c:
            continue
        cogens.extend([d] * c)
        for k, b in enumerate(fam):
            if d + k < len(work):
                work[d + k] -= c * b
    if any(work):
        return False, ("series", "remainder")
    return True, cogens


# ---------------------------------------------------------------------------
# builders


def _operator_element(p, op, even_only=False):
    """Milnor basis element computing the operator by left product.

    In even-only mode coordinates are halved (degree-doubling), and the
    odd-degree s = 0 operators act by zero, returned as None.
    """
    kind, t, s = parse_operator(op)
    if kind == "Q":
        if p == 2:
            raise ValueError("Q-operators are odd-prime notation; use P(t,0) at p = 2")
        return milnor_q(p, t)
    if even_only:
        if s == 0:
            return None
        s -= 1
    return MilnorBasisElement(p, (), (0,) * (t - 1) + (p**s,))


def subalgebra_module(p, kind, level, extra_ops=()):
    """The level-n subalgebra as a left module over itself.

    Basis: its Milnor basis; each operator acts by left multiplication
    through milnor_product.  extra_ops declares more operators on top
    of the square-zero list, e.g. to probe ones with nonzero square.
    In the even kind at p = 2, elements are stored on halved
    coordinates and labeled by their doubled exponents.
    """
    ops = list(subalgebra_operators(p, kind, level))
    for op in extra_ops:
        if op not in ops:
            ops.append(op)
    even = kind == "P" and p == 2
    elements = operator_basis(Profile.A(p, level) if even else _profile_for(p, kind, level))
    scale = 2 if even else 1

    def label(elt):
        if not even:
            return str(elt)
        return str(MilnorBasisElement(2, (), tuple(2 * r for r in elt.r)))

    name_of = {elt: label(elt) for elt in elements}
    basis = [(name_of[e], scale * e.degree()) for e in elements]
    actions = {}
    for op in ops:
        theta = _operator_element(p, op, even)
        table = {}
        if theta is not None:
            for e in elements:
                terms = []
                for key, coef in sorted(milnor_product(theta, e).items()):
                    nm = name_of.get(key)
                    if nm is None:
                        raise ValueError(f"{op} does not lie in the subalgebra {kind}({level})")
                    terms.append((coef, nm))
                if terms:
                    table[name_of[e]] = terms
        actions[op] = table
    return FiniteSteenrodModule(p, basis, actions, even_only=even)


def free_module(p, kind, level, generator_degrees, extra_ops=()):
    """Free module over the level-n subalgebra with one generator per
    listed degree: a direct sum of shifted copies of the subalgebra."""
    base = subalgebra_module(p, kind, level, extra_ops)
    basis = []
    actions = {op: {} for op in base.operators}
    for k, shift in enumerate(generator_degrees):
        tag = f"g{k}."
        for n in base.names:
            basis.append((tag + n, base.degree_of[n] + shift))
        for op in base.operators:
            for src, terms in base.actions[op].items():
                actions[op][tag + src] = [(c, tag + t) for c, t in terms]
    return FiniteSteenrodModule(
        p, basis, actions, even_only=base.even_only, validate=False
    )


def trivial_module(p, degrees=(0,), ops=(), even_only=False):
    """Trivial action, one generator per listed degree; the operators
    are declared with zero action."""
    basis = [(f"m{k}", d) for k, d in enumerate(degrees)]
    actions = {op: {} for op in ops}
    return FiniteSteenrodModule(p, basis, actions, even_only=even_only)


def two_cell_module(op, p=2):
    """Two cells joined by one operator: x0 in degree zero mapping onto
    the cell in degree |op|.  Even-only mode switches on when the
    operator lives in the even subalgebra."""
    kind, t, s = parse_operator(op)
    even = p == 2 and kind == "P" and s >= 1
    step = operator_degree(p, op)
    top = f"x{step}"
    actions = {op: {"x0": [(1, top)]}}
    return FiniteSteenrodModule(p, [("x0", 0), (top, step)], actions, even_only=even)


# projective spaces: Milnor's coaction x -> sum_i x^(p^i) (x) xi_i on
# the generator, raised to the j-th power, makes P(t,s) (dual to
# xi_t^(p^s)) send x^j to C(j, p^s) x^(j + p^s (p^t - 1))


def _projective_action(p, family, m, op):
    """Exponent-level action table {j: [(coef, j2)]} of a Milnor
    operator on reduced projective space with cells x^1..x^m.

    Complex cells at p = 2 sit in degree 2, where P(t,s) acts as
    P(t,s-1) does on the real cells; the odd-degree operators (the
    s = 0 ones there, every Q(t)) act on evenly graded cells by zero.
    """
    step = operator_degree(p, op)
    _, t, s = parse_operator(op)
    if family == "C" and step % 2:
        return {}
    if family == "C" and p == 2:
        s -= 1
    k = p**s
    shift = k * (p**t - 1)
    table = {}
    for j in range(k, m - shift + 1):
        c = comb(j, k) % p
        if c:
            table[j] = [(c, j + shift)]
    return table


def _exponent_actions(p, family, m, ops):
    actions = {}
    for op in dict.fromkeys(ops):
        table = _projective_action(p, family, m, op)
        actions[op] = {
            f"x^{j}": [(c, f"x^{j2}") for c, j2 in terms] for j, terms in table.items()
        }
    return actions


def rp_module(m, ops=("P(1,0)",)):
    """Reduced mod-2 cohomology of real projective m-space: cells
    x^1..x^m in degrees 1..m, with the requested Milnor operators."""
    if m < 1:
        raise ValueError("need at least one cell")
    basis = [(f"x^{j}", j) for j in range(1, m + 1)]
    return FiniteSteenrodModule(2, basis, _exponent_actions(2, "R", m, ops))


def cp_module(p, m, ops):
    """Reduced mod-p cohomology of complex projective m-space: cells
    x^1..x^m in degrees 2..2m.  Even-only mode switches on at p = 2
    when every requested operator lies in the even subalgebra."""
    if m < 1:
        raise ValueError("need at least one cell")
    basis = [(f"x^{j}", 2 * j) for j in range(1, m + 1)]
    even = p == 2 and all(
        parse_operator(op)[0] == "P" and parse_operator(op)[2] >= 1 for op in ops
    )
    return FiniteSteenrodModule(
        p, basis, _exponent_actions(p, "C", m, ops), even_only=even
    )


_SPACE_RE = re.compile(r"^(RP|CP)[\^(](\d+)\)?$")


def ptzero_nontriviality(space, t, p):
    """True iff P(t,0) acts nonzero on the reduced cohomology of the
    named projective space ('RP^9', 'CP^4')."""
    m = _SPACE_RE.match(space.strip().upper())
    if not m:
        raise ValueError(f"unrecognized projective space {space!r}")
    family, cells = m.group(1), int(m.group(2))
    op = f"P({t},0)"
    if family == "RP":
        if p != 2:
            raise ValueError("real projective spaces live at p = 2")
        module = rp_module(cells, ops=(op,))
    else:
        module = cp_module(p, cells, ops=(op,))
    return bool(module.actions[op])
