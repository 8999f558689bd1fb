"""Margolis homology and freeness over finite Steenrod subalgebras.

A module here is a finite graded F_p vector space with explicit action
matrices for a declared set of Milnor operators, written P(t,s) (dual
to xi_t^{p^s}) and, at odd primes, Q(t) (dual to tau_t).  Every Q(t)
squares to zero, and the P(t,s) with s < t square to zero at p = 2 and
have vanishing p-th power at odd primes, so each one carries a
homology; a finite module is free over one of the standard subalgebras
exactly when all of those homologies vanish, and that is the test
is_free_over runs.

The `margolis` job reads a module from JSON (FiniteSteenrodModule.
from_json) and runs is_free_over on it.  Errors in that input, or in
the subalgebra name, raise InputError; any other ValueError is the
engine refusing to certify.  The modules the tests feed it (subalgebras
over themselves, free modules, projective spaces, comodule duals) are
built under tests/oracles/.

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

from .gradedlin import (
    PrimeFieldMatrix,
    SubquotientBasis,
    vec_support,
)
from .steenrod import (
    MAX_FAMILY_HEIGHT,
    Profile,
    elt_add_term,
    family_margolis_indices,
)

__all__ = [
    "DOUBLING_SHIFT",
    "FiniteSteenrodModule",
    "InputError",
    "MargolisHomology",
    "MargolisVerdict",
    "is_free_over",
    "margolis_homology",
    "operator_degree",
    "parse_operator",
    "subalgebra_dimension",
    "subalgebra_operators",
]


class InputError(ValueError):
    """A module or subalgebra name that does not describe a valid job."""


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
    """'P(t,s)' -> ('P', t, s); 'Q(t)' -> ('Q', t, None).  An index past
    the largest an A(MAX_FAMILY_HEIGHT) operator uses is refused before
    operator_degree raises p to it."""
    m = _OP_RE.match(name)
    if not m:
        raise ValueError(f"unrecognized operator name {name!r}")
    kind, t, s = m.group(1), m.group(2), m.group(3)
    top = MAX_FAMILY_HEIGHT + 1
    # digit count first: int() refuses strings past 4300 digits
    if any(len(d) > len(str(top)) or int(d) > top for d in (t, s or "0")):
        raise ValueError(f"operator {name!r} has an index over the limit {top}")
    t = int(t)
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

    def __init__(self, p, basis, actions, even_only=False):
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
                bad = self._nilpotence_failure(op)
                if bad is not None:
                    raise ValueError(bad)

    # structure ---------------------------------------------------------

    def dim(self):
        return len(self.names)

    def degrees(self):
        return sorted(set(self.degree_of.values()))

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

    def _nilpotence_failure(self, op):
        """Message naming a basis element where op to its nilpotence
        order is nonzero, or None."""
        k = _nilpotence_order(op, self.p)
        for src in self.actions[op]:
            v = {src: 1}
            for _ in range(k):
                v = self.act(op, v)
                if not v:
                    break
            if v:
                if k == 2:
                    return f"{op} squared is nonzero on basis element {src}"
                return f"{op} to the power {k} is nonzero on basis element {src}"
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

    # serialization -----------------------------------------------------

    @classmethod
    def from_json(cls, data):
        """Parse and validate a module; every failure is an InputError."""
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
            return cls(p, basis, actions, even_only=even)
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed module data: {exc}") from exc
        except ValueError as exc:
            raise InputError(str(exc)) from exc


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

    def is_zero(self):
        return not self.dims

    def __repr__(self):
        return f"MargolisHomology({self.operator}, total={sum(self.dims.values())})"


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
    bad = module._nilpotence_failure(op)
    if bad is not None:
        raise ValueError(bad)
    step = operator_degree(p, op)
    dims = {}
    wits = {}
    for d in module.degrees():
        cur = module.slice_names(d)
        kernel = module.operator_matrix(op, d).kernel_vectors()
        image = module.operator_matrix(op, d - step * (k - 1), power=k - 1).rows
        reps = SubquotientBasis(p, len(cur), image, kernel).reps
        if reps:
            dims[d] = len(reps)
            wits[d] = [
                {cur[i]: c for i, c in vec_support(p, rep, len(cur))}
                for rep in reps
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
        raise InputError(f"unrecognized subalgebra {spec!r}; expected 'A(n)' or 'P(n)'")
    digits = m.group(2).lstrip("0") or "0"
    # compare lengths first: int() refuses strings past 4300 digits
    if len(digits) > len(str(MAX_FAMILY_HEIGHT)) or int(digits) > MAX_FAMILY_HEIGHT:
        raise InputError(f"subalgebra level {digits} is over the limit {MAX_FAMILY_HEIGHT}")
    return m.group(1), int(digits)


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
        raise InputError("freeness over an even subalgebra needs an even-only module")
    ops = subalgebra_operators(module.p, kind, level)
    missing = [op for op in ops if op not in module.actions]
    if missing:
        raise InputError(
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
