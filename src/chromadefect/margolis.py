"""Margolis homology and freeness over finite Steenrod subalgebras.

A module here is a finite graded F_p vector space with explicit action
matrices for a declared set of Milnor operators, written P(t,s) (dual
to xi_t^{p^s}) and, at odd primes, Q(t) (dual to tau_t).  Every Q(t)
squares to zero, and the P(t,s) with s < t square to zero at p = 2 and
have vanishing p-th power at odd primes, so each one carries a
homology; a finite module is free over one of the standard subalgebras
exactly when all of those homologies vanish, and that is the test
is_free_over runs.

margolis_homology(module, op) returns {degree: [class, ...]} over the
degrees where the homology is nonzero, each class a {basis name: coef}
cycle.  is_free_over returns the verdict report as plain JSON data.

The `margolis` job (margolis_job) reads a module from JSON
(FiniteSteenrodModule.from_json) and writes is_free_over's report.  Errors
in that input, or in the subalgebra name, raise chromadefect.InputError;
any other ValueError is the engine refusing to certify.  The modules
the tests feed it (subalgebras over themselves, free modules,
projective spaces, comodule duals) are built under tests/oracles/.

Square-zero operator lists come from the height profile of the dual
quotient.  Spelled out at p = 2 through level 3:

    A-kind level 0: P(1,0)
    A-kind level 1: P(1,0) P(2,0)
    A-kind level 2: P(1,0) P(2,0) P(2,1) P(3,0)
    A-kind level 3: P(1,0) P(2,0) P(2,1) P(3,0) P(3,1) P(4,0)

The even (P-kind) lists at p = 2 are the same with s bumped once: the
family is generated by the squares xi_t^2, and the operation dual to
(xi_t^2)^{2^s} is P(t,s+1).  At odd primes the A-kind list is
Q(0)..Q(n) together with the P(t,s), s < t, allowed by the heights
n+1-t, and the P-kind list uses heights n+2-t with no shift and no Q's.
"""

import re

from . import InputError
from .charts import json_bytes
from .gradedlin import SubquotientBasis, check_prime, subquotient, vec_from_terms, vec_support
from .steenrod import MAX_FAMILY_HEIGHT, Profile, elt_add_term

__all__ = [
    "FiniteSteenrodModule",
    "family_margolis_indices",
    "is_free_over",
    "margolis_homology",
    "margolis_job",
    "margolis_params",
    "operator_degree",
    "parse_operator",
    "subalgebra_dimension",
    "subalgebra_operators",
    "total_dimension",
]


_OP_RE = re.compile(r"^(P|Q)\((\d+)(?:,(\d+))?\)$")


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


def _nilpotence_order(name, p):
    """2 for the honest differentials; the P-operators at odd primes
    generate a height-p truncated polynomial algebra instead."""
    return 2 if p == 2 or name.startswith("Q") else p


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
        self.p = check_prime(int(p))
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
            # even-only mode: degree-doubling moves P(t,s) down to P(t,s-1)
            if kind == "Q" or s - self.even_only < t:
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
        """Rows of the power-fold composite of op out of the degree
        slice, one vector over the target slice per source element, in
        slice order; ValueError for an image outside the target slice."""
        self._table(op)
        step = operator_degree(self.p, op) * power
        tgt = self.slice_names(degree + step)
        pos = {n: j for j, n in enumerate(tgt)}
        rows = []
        for name in self.slice_names(degree):
            v = {name: 1}
            for _ in range(power):
                v = self.act(op, v)
                if not v:
                    break
            if not v.keys() <= pos.keys():
                raise ValueError(f"{op} maps {name} outside degree {degree + step}")
            rows.append(vec_from_terms(self.p, [(pos[t], coef) for t, coef in v.items()]))
        return rows

    # serialization -----------------------------------------------------

    @classmethod
    def from_json(cls, data):
        """Parse and validate a module; every failure is an InputError.
        The prime, each degree and each coef must be JSON integers and
        even_only a JSON boolean, read as they stand: int() would take
        2.9 for 2, and bool() the string "no" for true.  Each (operator,
        on) pair has at most one action row, since a second row would
        silently replace the first."""
        try:
            p = _exact(data["prime"], int, "prime")
            even = _exact(data.get("even_only", False), bool, "even_only")
            basis = [(str(b["name"]), _exact(b["degree"], int, "degree")) for b in data["basis"]]
            actions = {str(op): {} for op in data.get("operators", ())}
            for row in data.get("actions", ()):
                op, on = str(row["operator"]), str(row["on"])
                table = actions.setdefault(op, {})
                if on in table:
                    raise ValueError(f"action of {op} on {on} is declared twice")
                table[on] = [
                    (_exact(t["coef"], int, "coef"), str(t["to"])) for t in row["terms"]
                ]
            return cls(p, basis, actions, even_only=even)
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed module data: {exc}") from exc
        except ValueError as exc:
            raise InputError(str(exc)) from exc


def _exact(value, kind, what):
    """value when its type is kind itself: a bool is no integer here."""
    if type(value) is not kind:
        name = "boolean" if kind is bool else "integer"
        raise TypeError(f"{what} must be a JSON {name}, got {value!r}")
    return value


def margolis_homology(module, op):
    """Homology of a finite module under one nilpotent operator.

    For the order-2 operators (all of them at p = 2, the Q(t) at odd
    primes) this is ker/im; the P(t,s) at odd primes have p-th power
    zero instead, and the homology taken is ker(op)/im(op^(p-1)),
    whose vanishing on a finite module is still equivalent to freeness
    over the truncated algebra the operator generates.  An operator
    whose nilpotence fails on the module is rejected with an offending
    basis element named.

    Returns {degree: [class, ...]} over the degrees where the homology
    is nonzero, in increasing degree; each class is a representative
    cycle as a {basis name: coef} dict, and the list's length is the
    graded dimension.  An acyclic operator gives {}.
    """
    module._table(op)
    p = module.p
    k = _nilpotence_order(op, p)
    bad = module._nilpotence_failure(op)
    if bad is not None:
        raise ValueError(bad)
    step = operator_degree(p, op)
    classes = {}
    for d in module.degrees():
        cur = module.slice_names(d)
        width = len(module.slice_names(d + step))
        kernel = subquotient(p, width, module.operator_matrix(op, d), [])[0]
        image = module.operator_matrix(op, d - step * (k - 1), power=k - 1)
        reps = SubquotientBasis(p, len(cur), image, kernel).reps
        if reps:
            classes[d] = [{cur[i]: c for i, c in vec_support(p, rep)} for rep in reps]
    return classes


def _parse_subalgebra(spec):
    m = re.match(r"^([AP])\((\d+)\)$", spec.strip()) if isinstance(spec, str) else None
    if not m:
        raise InputError(f"unrecognized subalgebra {spec!r}; expected 'A(n)' or 'P(n)'")
    digits = m.group(2).lstrip("0") or "0"
    # compare lengths first: int() refuses strings past 4300 digits
    if len(digits) > len(str(MAX_FAMILY_HEIGHT)) or int(digits) > MAX_FAMILY_HEIGHT:
        raise InputError(f"subalgebra level {digits} is over the limit {MAX_FAMILY_HEIGHT}")
    return m.group(1), int(digits)


def family_margolis_indices(profile):
    """Nilpotent dual operations of a finite family, whose homologies
    decide freeness over the dual subalgebra (subalgebra_operators).

    Returns (xi_ops, tau_ops): xi_ops is a list of (t, s) pairs meaning
    the operation dual to g_t^{p^s} (g_t = xi_t, or xi_t^2 in the
    even-only case), kept exactly when s < t: it then squares to zero
    at p = 2 and has vanishing p-th power at odd primes.  tau_ops lists
    the exterior indices (odd primes), whose operations square to zero.
    """
    if total_dimension(profile) is None:
        raise ValueError("family must be finite")
    xi_ops = []
    for i, h in enumerate(profile.heights):
        t = i + 1
        for s in range(h):
            if s < t:
                xi_ops.append((t, s))
    tau_ops = []
    if profile.p != 2 and profile.tau != "all":
        tau_ops = sorted(profile.tau)
    return xi_ops, tau_ops


def subalgebra_operators(p, kind, level):
    """Square-zero operator names for the level-n subalgebra.

    kind 'A' is generated by the first level+1 power operations (plus
    the Bockstein at odd p); kind 'P' is the even counterpart.  At
    p = 2 the P-kind family is generated by the squares xi_t^2, so its
    operation (t, s) is P(t,s+1).
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    xi_ops, tau_ops = family_margolis_indices(getattr(Profile, kind)(p, level))
    shift = 1 if p == 2 and kind == "P" else 0
    out = [f"Q({t})" for t in tau_ops]
    out += [f"P({t},{s + shift})" for t, s in xi_ops]
    return out


def total_dimension(profile):
    """Dimension of a family when it is finite, else None."""
    if profile.tail is None:
        return None
    if profile.p != 2 and profile.tau == "all":
        return None
    total = 1
    for h in profile.heights:
        if h is None:
            return None
        total *= profile.p**h
    if profile.p != 2:
        total *= 2 ** len(profile.tau)
    return total


def subalgebra_dimension(p, kind, level):
    return total_dimension(getattr(Profile, kind)(p, level))


def is_free_over(module, subalgebra):
    """Freeness over 'A(n)' or 'P(n)' through vanishing of every
    Margolis homology of the subalgebra.

    Every required operator must be declared on the module, and P-kind
    tests at p = 2 need even-only mode, where the shifted operators
    square to zero.  Returns the report the `margolis` job writes:
    homology maps each operator to {str(degree): dim} over its nonzero
    degrees (string keys sort as text, so the artifact lists "16" before
    "6"); free holds exactly when every one is empty, rank is then the
    generator count, and witness otherwise names the operator, degree
    and class of the first nonvanishing homology.
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
    witness = None
    for op in ops:
        h = margolis_homology(module, op)
        homology[op] = {str(d): len(c) for d, c in h.items()}
        if h and witness is None:
            d = min(h)
            witness = {"operator": op, "degree": d, "class": h[d][0]}
    free = witness is None
    rank = module.dim() // subalgebra_dimension(module.p, kind, level) if free else None
    return {
        "subalgebra": subalgebra,
        "operators": ops,
        "free": free,
        "rank": rank,
        "homology": homology,
        "witness": witness,
    }


def margolis_params(args):
    """The `margolis` job's params from its flags: the subalgebra name,
    which margolis_job checks with the module."""
    return {"subalgebra": args.subalgebra}


def margolis_job(params, payload) -> dict:
    """The `margolis` job's artifacts, {filename: bytes}: the freeness
    verdict of the module `payload` (parsed JSON) over the subalgebra
    the validated CLI params name.  Bad input raises InputError."""
    module = FiniteSteenrodModule.from_json(payload)
    report = is_free_over(module, params["subalgebra"])
    base = "margolis_verdict"
    out = {}
    if "json" in params["formats"]:
        out[f"{base}.json"] = json_bytes(report)
    if "tsv" in params["formats"]:
        witness = report.get("witness") or {}
        row = (report["subalgebra"], report["free"],
               "-" if report["rank"] is None else report["rank"],
               witness.get("operator", "-"), witness.get("degree", "-"))
        head = "subalgebra\tfree\trank\twitness-operator\twitness-degree\n"
        out[f"{base}.tsv"] = (head + "\t".join(map(str, row)) + "\n").encode("utf-8")
    return out
