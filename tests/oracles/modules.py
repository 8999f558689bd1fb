"""Test builders: modules and comodules with known structure.

Subalgebras act on themselves through milnor_product; projective
spaces carry Milnor's coaction formula; free, trivial and two-cell
modules, sums, suspensions and tensor products (primitive operators
acting by the Leibniz rule) are assembled by hand; a finite family
is a comodule over itself through its diagonal.  `module_json` writes
the input format the `margolis` job reads (FiniteSteenrodModule.
from_json); the golden inputs under tests/golden/inputs/ were written
from these builders.  operator_basis lists a finite family's Milnor
basis, each element as its dual monomial, independently of the
numbering the resolution makes from Profile.basis; milnor_name gives
an element its Milnor name.
"""

import re
from math import comb

from chromadefect.margolis import (
    FiniteSteenrodModule,
    operator_degree,
    parse_operator,
    subalgebra_operators,
)
from chromadefect.steenrod import Profile

from oracles.cobar import Comodule
from oracles.diagonal import DualMonomial, coproduct, milnor_product, monomials, xi_gen


def milnor_name(p, q, r):
    """Name of the Milnor basis element Q_q P(r) dual to xi^r tau_q: Sq(r)
    at p = 2, "Q(q) P(r)" at odd p, with empty parts left out."""
    if p == 2:
        return "Sq(" + ",".join(map(str, r)) + ")" if r else "1"
    parts = []
    if q:
        parts.append("Q(" + ",".join(map(str, q)) + ")")
    if r:
        parts.append("P(" + ",".join(map(str, r)) + ")")
    return " ".join(parts) if parts else "1"


def operator_basis(profile):
    """Milnor basis of the finite subalgebra dual to a profile quotient,
    listed independently of Profile.basis: every exponent below its
    height's cap, times every subset of the surviving tau indices."""
    if profile.even_only:
        raise ValueError("even-only families have no separate operator basis here")
    dim = profile.total_dimension()
    if dim is None:
        raise ValueError("family must be finite")
    p = profile.p
    exps = [[]]
    for h in profile.heights:
        exps = [e + [k] for e in exps for k in range(p**h)]
    taus = sorted(profile.tau) if (p != 2 and profile.tau != "all") else []
    subsets = [[]]
    for t in taus:
        subsets = subsets + [s + [t] for s in subsets]
    out = [DualMonomial(p, tuple(e), tuple(s)) for e in exps for s in subsets]
    assert len(out) == dim
    return sorted(out, key=lambda m: (m.degree(), milnor_name(p, m.tau, m.xi)))


def suspend(module, k):
    basis = [(n, module.degree_of[n] + k) for n in module.names]
    return FiniteSteenrodModule(module.p, basis, module.actions, module.even_only)


def direct_sum(a, b):
    """Block sum; an operator declared on one side only acts by zero on
    the other."""
    if a.p != b.p:
        raise ValueError("summands live over different primes")
    left = {n: f"a.{n}" for n in a.names}
    right = {n: f"b.{n}" for n in b.names}
    basis = [(left[n], a.degree_of[n]) for n in a.names]
    basis += [(right[n], b.degree_of[n]) for n in b.names]
    actions = {}
    for op in set(a.operators) | set(b.operators):
        table = {}
        for src, terms in a.actions.get(op, {}).items():
            table[left[src]] = [(c, left[t]) for c, t in terms]
        for src, terms in b.actions.get(op, {}).items():
            table[right[src]] = [(c, right[t]) for c, t in terms]
        actions[op] = table
    return FiniteSteenrodModule(a.p, basis, actions, a.even_only and b.even_only)


def _derivation_type(name, p, even_only):
    """Operators that act on tensor products as (signed) derivations:
    the primitive ones."""
    kind, t, s = parse_operator(name)
    if kind == "Q":
        return True
    if even_only:
        return s == 1
    return p == 2 and s == 0


def tensor(a, b, ops=None):
    """Tensor product over F_p with the diagonal operator action.

    Only primitive operators act on a tensor product by the Leibniz
    rule: Q(t), the P(t,0) at p = 2, and P(t,1) in even-only mode.  The
    default keeps every common declared operator of that shape; asking
    for anything else raises.
    """
    if a.p != b.p:
        raise ValueError("factors live over different primes")
    p = a.p
    even = a.even_only and b.even_only
    if ops is None:
        ops = [op for op in a.operators if op in b.actions and _derivation_type(op, p, even)]
    else:
        for op in ops:
            if op not in a.actions or op not in b.actions:
                raise ValueError(f"operator {op} is not declared on both factors")
            if not _derivation_type(op, p, even):
                raise ValueError(f"{op} is not primitive; no tensor action")
    name = {}
    basis = []
    for x in a.names:
        for y in b.names:
            name[x, y] = f"{x}|{y}"
            basis.append((name[x, y], a.degree_of[x] + b.degree_of[y]))
    actions = {}
    for op in ops:
        odd_step = operator_degree(p, op) % 2
        table = {}
        for x in a.names:
            for y in b.names:
                terms = [(coef, name[t, y]) for coef, t in a.actions[op].get(x, ())]
                sign = -1 if odd_step and a.degree_of[x] % 2 else 1
                terms += [(sign * coef, name[x, t]) for coef, t in b.actions[op].get(y, ())]
                if terms:
                    table[name[x, y]] = terms
        actions[op] = table
    return FiniteSteenrodModule(p, basis, actions, even_only=even)


def module_json(module):
    """The JSON form FiniteSteenrodModule.from_json reads."""
    return {
        "prime": module.p,
        "even_only": module.even_only,
        "operators": list(module.operators),
        "basis": [{"name": n, "degree": module.degree_of[n]} for n in module.names],
        "actions": [
            {
                "operator": op,
                "on": src,
                "terms": [{"coef": c, "to": t} for c, t in module.actions[op][src]],
            }
            for op in module.operators
            for src in sorted(module.actions[op])
        ],
    }


# ---------------------------------------------------------------------------
# comodules


def coalgebra_self(profile, cap):
    """The family itself as a comodule via its diagonal, through degree
    cap (valid because the diagonal never raises degree)."""
    monos = monomials(profile, cap)
    names = {m: str(m) for m in monos}
    basis = [(names[m], m.degree()) for m in monos]
    coaction = {
        names[m]: [(left, c, names[right]) for (left, right), c in coproduct(m, profile).items()]
        for m in monos
    }
    return Comodule(profile, basis, coaction)


def thom_height_one(top):
    """The height-1 Thom homology F_2[z^2] over P(0), one cell m<d> per
    even degree d <= 4 * top + 2, with m<4k+2> coacting onto m<4k>
    through xi_1^2; cofree with cogenerators in degrees 4k."""
    unit = DualMonomial(2)
    basis = [(f"m{2 * k}", 2 * k) for k in range(2 * top + 2)]
    coaction = {}
    for k in range(2 * top + 2):
        terms = [(unit, 1, f"m{2 * k}")]
        if k % 2:
            terms.append((xi_gen(2, 1, 2), 1, f"m{2 * (k - 1)}"))
        coaction[f"m{2 * k}"] = terms
    return Comodule(Profile.P(2, 0), basis, coaction)


def comodule_suspend(comodule, k):
    basis = [(n, comodule.degree_of[n] + k) for n in comodule.names]
    return Comodule(comodule.profile, basis, comodule.coaction)


def comodule_sum(a, b):
    if a.profile is not b.profile:
        raise ValueError("summands live over different families")
    left = {n: f"a.{n}" for n in a.names}
    right = {n: f"b.{n}" for n in b.names}
    basis = [(left[n], a.degree_of[n]) for n in a.names]
    basis += [(right[n], b.degree_of[n]) for n in b.names]
    coaction = {}
    for n in a.names:
        coaction[left[n]] = [(m, c, left[t]) for m, c, t in a.coaction[n]]
    for n in b.names:
        coaction[right[n]] = [(m, c, right[t]) for m, c, t in b.coaction[n]]
    return Comodule(a.profile, basis, coaction)


# ---------------------------------------------------------------------------
# modules


def _operator_element(p, op, even_only=False):
    """Milnor basis element computing the operator by left product, as
    its dual monomial.

    In even-only mode coordinates are halved (degree-doubling), and the
    odd-degree s = 0 operators act by zero, returned as None.
    """
    kind, t, s = parse_operator(op)
    if kind == "Q":
        if p == 2:
            raise ValueError("Q-operators are odd-prime notation; use P(t,0) at p = 2")
        return DualMonomial(p, (), (t,))
    if even_only:
        if s == 0:
            return None
        s -= 1
    return DualMonomial(p, (0,) * (t - 1) + (p**s,))


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
    elements = operator_basis(Profile.A(p, level) if kind == "A" or even else Profile.P(p, level))
    scale = 2 if even else 1
    name_of = {e: milnor_name(p, e.tau, tuple(scale * r for r in e.xi)) for e in elements}
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
    return FiniteSteenrodModule(p, basis, actions, even_only=base.even_only)


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
