"""Quantified formulas over expressions, plus the theory object model.

Everything here is a frozen dataclass built from tuples, so whole
theories compare structurally. The parser produces these objects, the
printer consumes them, and the checker walks them; none of the three
needs private knowledge of the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

from .errors import ArityMismatch
from .expr import Expr, Var, free_vars, substitute

REAL = "Real"
STATE = "State"


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class EqF(Formula):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Ne0(Formula):
    arg: Expr


@dataclass(frozen=True)
class Lt(Formula):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Forall(Formula):
    binders: Tuple[Tuple[str, str], ...]
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    binder: Tuple[str, str]
    body: Formula


@dataclass(frozen=True)
class Implies(Formula):
    ante: Formula
    cons: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class DivergesLeftAt(Formula):
    """The named let-bound expression grows without bound as its free
    variable approaches `point` from the left."""

    fn_name: str
    point: Expr


def formula_children(f: Formula) -> tuple:
    """The direct parts of f, expressions and subformulas, left to right."""
    if isinstance(f, (EqF, Lt, And)):
        return (f.left, f.right)
    if isinstance(f, Ne0):
        return (f.arg,)
    if isinstance(f, (Forall, Exists)):
        return (f.body,)
    if isinstance(f, Implies):
        return (f.ante, f.cons)
    if isinstance(f, DivergesLeftAt):
        return (f.point,)
    raise TypeError(f"not a formula: {f!r}")


def map_formula_children(f: Formula, fn: Callable) -> Formula:
    """f rebuilt with fn applied to each direct part; binders are kept."""
    if isinstance(f, (EqF, Lt, And)):
        return type(f)(fn(f.left), fn(f.right))
    if isinstance(f, Ne0):
        return Ne0(fn(f.arg))
    if isinstance(f, Forall):
        return Forall(f.binders, fn(f.body))
    if isinstance(f, Exists):
        return Exists(f.binder, fn(f.body))
    if isinstance(f, Implies):
        return Implies(fn(f.ante), fn(f.cons))
    if isinstance(f, DivergesLeftAt):
        return DivergesLeftAt(f.fn_name, fn(f.point))
    raise TypeError(f"not a formula: {f!r}")


def bound_names(f: Formula) -> set:
    """The names f itself binds: its quantifier's binders, if any."""
    if isinstance(f, Forall):
        return {b for b, _ in f.binders}
    if isinstance(f, Exists):
        return {f.binder[0]}
    return set()


def map_formula(f: Formula, fn: Callable[[Expr], Expr]) -> Formula:
    """f with fn applied to every expression in it, blind to binders."""
    return map_formula_children(
        f, lambda p: fn(p) if isinstance(p, Expr) else map_formula(p, fn))


def formula_free_vars(f: Formula) -> set:
    fv = set()
    for p in formula_children(f):
        fv |= free_vars(p) if isinstance(p, Expr) else formula_free_vars(p)
    return fv - bound_names(f)


def _fresh(base: str, avoid: set) -> str:
    name = base
    while name in avoid:
        name += "'"
    return name


def subst_formula(f: Formula, name: str, value: Expr) -> Formula:
    """Capture-avoiding substitution of value for the free variable name."""
    if isinstance(f, Forall):
        if any(b == name for b, _ in f.binders):
            return f
        vfree = free_vars(value)
        binders = list(f.binders)
        body = f.body
        for i, (b, sort) in enumerate(binders):
            if b in vfree:
                nb = _fresh(b, vfree | formula_free_vars(body) | {x for x, _ in binders})
                body = subst_formula(body, b, Var(nb))
                binders[i] = (nb, sort)
        return Forall(tuple(binders), subst_formula(body, name, value))
    if isinstance(f, Exists):
        b, sort = f.binder
        if b == name:
            return f
        vfree = free_vars(value)
        body = f.body
        if b in vfree:
            nb = _fresh(b, vfree | formula_free_vars(body))
            body = subst_formula(body, b, Var(nb))
            b = nb
        return Exists((b, sort), subst_formula(body, name, value))
    return map_formula_children(
        f, lambda p: substitute(p, name, value) if isinstance(p, Expr)
        else subst_formula(p, name, value))


def instantiate_forall(f: Formula, terms) -> Formula:
    """Plug terms into the leading universal binders, left to right."""
    cur = f
    for t in terms:
        if not isinstance(cur, Forall):
            raise ArityMismatch(f"too many instantiation terms for {f!r}")
        (name, _), rest = cur.binders[0], cur.binders[1:]
        inner: Formula = Forall(rest, cur.body) if rest else cur.body
        cur = subst_formula(inner, name, t)
    return cur


# ---------------------------------------------------------------------------
# proof steps


class Step:
    __slots__ = ()


@dataclass(frozen=True)
class RewriteWith(Step):
    hyp: str
    reverse: bool = False


@dataclass(frozen=True)
class Unfold(Step):
    name: str


@dataclass(frozen=True)
class FieldNormalize(Step):
    pass


@dataclass(frozen=True)
class RingClose(Step):
    pass


@dataclass(frozen=True)
class Intro(Step):
    names: Tuple[str, ...]


@dataclass(frozen=True)
class Specialize(Step):
    hyp: str
    terms: Tuple[Expr, ...]


@dataclass(frozen=True)
class ExistsIntro(Step):
    witness: Expr


@dataclass(frozen=True)
class ApplyLemma(Step):
    name: str


@dataclass(frozen=True)
class SeriesGeom(Step):
    pass


@dataclass(frozen=True)
class SeriesGeomWeighted(Step):
    pass


@dataclass(frozen=True)
class IndexShift(Step):
    pass


@dataclass(frozen=True)
class DerivRule(Step):
    rule: str


@dataclass(frozen=True)
class AntiderivConst(Step):
    pass


@dataclass(frozen=True)
class Antideriv(Step):
    pass


@dataclass(frozen=True)
class LimitDivergenceWitness(Step):
    depth: int


# ---------------------------------------------------------------------------
# theories


@dataclass(frozen=True)
class Theory:
    name: str
    var_decls: Tuple[Tuple[str, str], ...]
    fn_decls: Tuple[str, ...]
    const_decls: Tuple[str, ...]
    hyps: Tuple[Tuple[str, Formula], ...]
    lets: Tuple[Tuple[str, Expr], ...]
    goal: Formula
    steps: Tuple[Step, ...]

    def uses_state(self) -> bool:
        return bool(self.fn_decls) or any(s == STATE for _, s in self.var_decls)
