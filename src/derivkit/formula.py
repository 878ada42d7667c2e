"""Quantified formulas over expressions, plus the theory object model.

Formulas, proof steps and theories are `expr.Node` records built from
tuples, so whole theories compare structurally, and `expr.children` and
`expr.map_children` walk formulas as they walk expressions. The parser
produces these objects, the printer consumes them, and the checker
walks them; none of the three needs private knowledge of the others.

`STEPS` is the one list of proof steps, keyword to class. The parser
looks a step's keyword up there, the printer writes a step as its
keyword and its fields, and the kernel maps each class to its handler.

The scope rule is here once: the parser checks declarations and the
kernel checks script terms with `unbound_symbol`, both read
`Theory.implicit_states`, and `fresh` makes every primed name. So is
substitution: `subst` replaces names in terms and formulas without
capture, for the kernel, the oracle and the normalizer alike. So is a
visit that knows the binders: `walk` gives each node with the names
bound around it, for the oracle's series guard, application test and
grounding and for the parser's binder sorts.
"""

from __future__ import annotations

from typing import Collection, Dict, Optional, Sequence, Tuple

from .errors import ArityMismatch, NonIntegerPow
from .expr import (App, Const, Deriv, Expr, Formula, Node, Pow, SeriesSum, Var,
                   children, free_vars, map_children)

REAL = "Real"
STATE = "State"


class EqF(Formula):
    __slots__ = ("left", "right")
    left: Expr
    right: Expr


class Ne0(Formula):
    __slots__ = ("arg",)
    arg: Expr


class Lt(Formula):
    __slots__ = ("left", "right")
    left: Expr
    right: Expr


class Forall(Formula):
    __slots__ = ("binders", "body")
    binders: Tuple[Tuple[str, str], ...]
    body: Formula


class Exists(Formula):
    __slots__ = ("binder", "body")
    binder: Tuple[str, str]
    body: Formula


class Implies(Formula):
    __slots__ = ("ante", "cons")
    ante: Formula
    cons: Formula


class And(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula


class DivergesLeftAt(Formula):
    """The named let-bound expression grows without bound as its free
    variable approaches `point` from the left."""

    __slots__ = ("fn_name", "point")
    fn_name: str
    point: Expr


def bound_names(x: Node) -> set:
    """The names x itself binds: a quantifier's binders or a series
    index, if any."""
    if isinstance(x, Forall):
        return {b for b, _ in x.binders}
    if isinstance(x, Exists):
        return {x.binder[0]}
    if isinstance(x, SeriesSum):
        return {x.index}
    return set()


def walk(x: Node):
    """(node, bound) for every node of the term or formula x, parents
    before children and left to right; bound is the frozenset of names
    that the series indices and quantifier binders enclosing node bind
    around it, not counting node's own. An explicit stack keeps a long
    flat sum from deep recursion."""
    stack = [(x, frozenset())]
    while stack:
        item = stack.pop()
        yield item
        n, bound = item
        cs = children(n)
        if cs:
            if isinstance(n, (SeriesSum, Forall, Exists)):
                bound = bound | bound_names(n)
            stack.extend([(c, bound) for c in reversed(cs)])


def formula_free_vars(f: Formula) -> set:
    fv = set()
    for p in children(f):
        fv |= free_vars(p) if isinstance(p, Expr) else formula_free_vars(p)
    return fv - bound_names(f)


def unbound_symbol(x: Node, names: Collection[str], fns: Collection[str],
                   lets: Collection[str]) -> Optional[str]:
    """The first symbol of the term or formula x that is out of scope,
    or None. A name must be in `names` or bound by a quantifier or a
    series index around it; a function head must be in `fns`, and a
    `deriv` head may also be a let; `diverges_left` must name a let; a
    symbolic exponent must be the index of an enclosing series, checked
    after the exponent's base."""

    def scan(x: Node, names, indices) -> Optional[str]:
        if isinstance(x, Var):
            if x.name not in names:
                return x.name
        elif isinstance(x, App):
            deriv = isinstance(x.fn, Deriv)
            fn = x.fn.fn if deriv else x.fn
            if fn not in fns and not (deriv and fn in lets):
                return fn
        elif isinstance(x, DivergesLeftAt) and x.fn_name not in lets:
            return x.fn_name
        elif isinstance(x, SeriesSum):
            indices = indices | {x.index}
        names = names | bound_names(x)
        for c in children(x):
            bad = scan(c, names, indices)
            if bad is not None:
                return bad
        if isinstance(x, Pow) and isinstance(x.exp, str) and x.exp not in indices:
            return x.exp
        return None

    return scan(x, frozenset(names), frozenset())


def fresh(base: str, avoid: Collection[str]) -> str:
    """base, primed until it is not in avoid."""
    name = base
    while name in avoid:
        name += "'"
    return name


def subst(x: Node, mapping: Dict[str, Expr]) -> Node:
    """The term or formula x with every free name of mapping replaced by
    its value, all at once; x itself when none is free in it. A binder
    hides its own name, and is renamed with `fresh`, in the exponents
    too, where it would capture a free name of a value entering its
    body. An exponent takes a `Var` value's name or an integral `Const`;
    any other value there raises NonIntegerPow."""
    return _subst(x, mapping, None) if mapping else x


def _subst(x: Node, mapping: Dict[str, Expr], vfree: Optional[set]) -> Node:
    # vfree holds every free name of the values in mapping, or more; it
    # is computed at the first binder
    if isinstance(x, Var):
        return mapping.get(x.name, x)
    if not isinstance(x, (SeriesSum, Forall, Exists)):
        out = map_children(x, _subst, mapping, vfree)
        if not (isinstance(x, Pow) and x.exp in mapping):
            return out
        v = mapping[x.exp]
        if isinstance(v, Var):
            return Pow(out.base, v.name)
        if isinstance(v, Const) and v.value.denominator == 1:
            return Pow(out.base, int(v.value))
        raise NonIntegerPow(f"cannot substitute {v!r} for exponent {x.exp}")
    names = bound_names(x)
    inner = {k: v for k, v in mapping.items() if k not in names}
    if not inner:
        return x
    renamed = {}
    if vfree is None:
        vfree = set().union(*map(free_vars, mapping.values()))
    if not vfree.isdisjoint(names):
        # only here are the body's free names worth computing
        body_free = (free_vars if isinstance(x, SeriesSum) else formula_free_vars)(x.body)
        entering = set().union(*(free_vars(v) for k, v in inner.items() if k in body_free))
        avoid = entering | body_free | names
        for b in sorted(names & entering):
            renamed[b] = fresh(b, avoid)
            avoid.add(renamed[b])
        inner.update((b, Var(nb)) for b, nb in renamed.items())
        vfree = vfree | avoid
    body = _subst(x.body, inner, vfree)
    if body is x.body:
        return x
    if isinstance(x, Forall):
        return Forall(tuple((renamed.get(b, b), s) for b, s in x.binders), body)
    if isinstance(x, Exists):
        return Exists((renamed.get(x.binder[0], x.binder[0]), x.binder[1]), body)
    return SeriesSum(renamed.get(x.index, x.index), x.start, body)


def unfold_lets(lets: Sequence[Tuple[str, Expr]]) -> Dict[str, Expr]:
    """Each let name mapped to its body with earlier lets expanded."""
    expanded: Dict[str, Expr] = {}
    for name, body in lets:
        expanded[name] = subst(body, expanded)
    return expanded


def instantiate_forall(f: Formula, terms) -> Formula:
    """Plug terms into the leading universal binders, left to right."""
    cur = f
    for t in terms:
        if not isinstance(cur, Forall):
            raise ArityMismatch(f"too many instantiation terms for {f!r}")
        (name, _), rest = cur.binders[0], cur.binders[1:]
        inner: Formula = Forall(rest, cur.body) if rest else cur.body
        cur = subst(inner, {name: t})
    return cur


def pointwise(f: Formula) -> Optional[Tuple[object, str, Expr]]:
    """(head, u, rhs) when f is `forall u, head(u) = rhs`, head being a
    function name or a `Deriv`; otherwise None."""
    if isinstance(f, Forall) and len(f.binders) == 1 and isinstance(f.body, EqF):
        u, lhs = f.binders[0][0], f.body.left
        if isinstance(lhs, App) and lhs.arg == Var(u):
            return lhs.fn, u, f.body.right
    return None


# ---------------------------------------------------------------------------
# proof steps


class Step(Node):
    """Base class for proof steps."""

    __slots__ = ()


class RewriteWith(Step):
    __slots__ = ("hyp", "reverse")
    _defaults = {"reverse": False}
    hyp: str
    reverse: bool


class Unfold(Step):
    __slots__ = ("name",)
    name: str


class FieldNormalize(Step):
    __slots__ = ()


class RingClose(Step):
    __slots__ = ()


class Intro(Step):
    __slots__ = ("names",)
    names: Tuple[str, ...]


class Specialize(Step):
    __slots__ = ("hyp", "terms")
    hyp: str
    terms: Tuple[Expr, ...]


class ExistsIntro(Step):
    __slots__ = ("witness",)
    witness: Expr


class ApplyLemma(Step):
    __slots__ = ("name",)
    name: str


class SeriesGeom(Step):
    __slots__ = ()


class SeriesGeomWeighted(Step):
    __slots__ = ()


class IndexShift(Step):
    __slots__ = ()


class AntiderivConst(Step):
    __slots__ = ()


class Antideriv(Step):
    __slots__ = ()


class LimitDivergenceWitness(Step):
    __slots__ = ("depth",)
    depth: int


# the one list of proof steps: the keyword that starts a step's script
# line, and the class it builds
STEPS = {
    "rw": RewriteWith, "unfold": Unfold, "field_normalize": FieldNormalize,
    "ring": RingClose, "intro": Intro, "specialize": Specialize,
    "use": ExistsIntro, "apply": ApplyLemma, "series_geom": SeriesGeom,
    "series_geom_weighted": SeriesGeomWeighted, "index_shift": IndexShift,
    "antideriv_const": AntiderivConst, "antideriv": Antideriv,
    "limit_witness": LimitDivergenceWitness,
}


# ---------------------------------------------------------------------------
# theories


class Theory(Node):
    __slots__ = ("name", "var_decls", "fn_decls", "const_decls", "hyps",
                 "lets", "goal", "steps")
    name: str
    var_decls: Tuple[Tuple[str, str], ...]
    fn_decls: Tuple[str, ...]
    const_decls: Tuple[str, ...]
    hyps: Tuple[Tuple[str, Formula], ...]
    lets: Tuple[Tuple[str, Expr], ...]
    goal: Formula
    steps: Tuple[Step, ...]

    def replace(self, **changes) -> Theory:
        """This theory with the named fields changed."""
        return Theory(**dict(zip(self._fields, self._values()), **changes))

    def implicit_states(self) -> Tuple[str, ...]:
        """The states s1 and s2, which a theory with functions or State
        variables has without declaring them; a name it declares is
        left out."""
        if not (self.fn_decls or any(s == STATE for _, s in self.var_decls)):
            return ()
        declared = ({n for n, _ in self.var_decls} | set(self.fn_decls)
                    | set(self.const_decls) | {n for n, _ in self.lets})
        return tuple(n for n in ("s1", "s2") if n not in declared)
