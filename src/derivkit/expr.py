"""Symbolic expression trees with exact rational constants.

Nodes are frozen dataclasses, so structural equality and hashing come
for free and every tree is safe to share. Numeric literals are stored
as `fractions.Fraction`; floats are rejected at construction time to
keep the symbolic layer exact.

Division is total: a zero denominator evaluates to 0. Downstream code
that needs real division is responsible for discharging the matching
nonzeroness obligation before it rewrites.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Sequence, Tuple, Union

from .errors import NonIntegerPow, UnboundSymbol


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Const(Expr):
    value: Fraction

    def __post_init__(self):
        if isinstance(self.value, bool) or not isinstance(self.value, (int, Fraction)):
            raise TypeError(f"Const requires int or Fraction, got {type(self.value).__name__}")
        if isinstance(self.value, int):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Pow(Expr):
    """Power with an integer exponent, or a series index name.

    A string exponent is only meaningful inside the body of a
    SeriesSum that binds that name.
    """

    base: Expr
    exp: Union[int, str]

    def __post_init__(self):
        if isinstance(self.exp, bool) or not isinstance(self.exp, (int, str)):
            raise NonIntegerPow(f"exponent must be int or index name, got {self.exp!r}")


@dataclass(frozen=True)
class SeriesSum(Expr):
    """sum over index = start, start+1, ... of body; start is 0 or 1."""

    index: str
    start: int
    body: Expr

    def __post_init__(self):
        if self.start not in (0, 1):
            raise ValueError(f"series start must be 0 or 1, got {self.start}")


@dataclass(frozen=True)
class Deriv:
    """Marker for the derivative of a named function symbol.

    Not itself an Expr; it only appears in the head position of App.
    """

    fn: str


@dataclass(frozen=True)
class App(Expr):
    fn: Union[str, Deriv]
    arg: Expr


def children(e: Expr) -> tuple:
    """The child expressions of e, left to right; none for a leaf."""
    if isinstance(e, (Add, Sub, Mul, Div)):
        return (e.left, e.right)
    if isinstance(e, Neg):
        return (e.arg,)
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, SeriesSum):
        return (e.body,)
    if isinstance(e, App):
        return (e.arg,)
    if isinstance(e, (Var, Const)):
        return ()
    raise TypeError(f"not an expression: {e!r}")


def map_children(e: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """e rebuilt with fn applied to each child; a leaf comes back as is.

    Everything that is not a child (a series index and start, an
    exponent, a function head) is kept. Walkers handle the nodes they
    care about and pass the rest through here.
    """
    if isinstance(e, (Add, Sub, Mul, Div)):
        return type(e)(fn(e.left), fn(e.right))
    if isinstance(e, Neg):
        return Neg(fn(e.arg))
    if isinstance(e, Pow):
        return Pow(fn(e.base), e.exp)
    if isinstance(e, SeriesSum):
        return SeriesSum(e.index, e.start, fn(e.body))
    if isinstance(e, App):
        return App(e.fn, fn(e.arg))
    if isinstance(e, (Var, Const)):
        return e
    raise TypeError(f"not an expression: {e!r}")


def free_vars(e: Expr) -> set:
    """Free variable names of e, respecting the SeriesSum binder."""
    if isinstance(e, Var):
        return {e.name}
    fv = set().union(*map(free_vars, children(e)))
    if isinstance(e, Pow) and isinstance(e.exp, str):
        fv.add(e.exp)
    elif isinstance(e, SeriesSum):
        fv.discard(e.index)
    return fv


def substitute(e: Expr, name: str, value: Expr) -> Expr:
    """Replace free occurrences of Var(name) by value.

    An index name used as an exponent can only be replaced by an
    integer literal.
    """
    if isinstance(e, Var):
        return value if e.name == name else e
    if isinstance(e, SeriesSum) and e.index == name:
        return e
    out = map_children(e, lambda c: substitute(c, name, value))
    if isinstance(e, Pow) and e.exp == name:
        if isinstance(value, Const) and value.value.denominator == 1:
            return Pow(out.base, int(value.value))
        raise NonIntegerPow(f"cannot substitute {value!r} for exponent {name}")
    return out


def subst_vars(e: Expr, mapping: Dict[str, Expr]) -> Expr:
    """Replace every free Var named in mapping, all at once.

    Exponents are left alone, and a SeriesSum hides its own index
    from the mapping.
    """
    if not mapping:
        return e
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, SeriesSum) and e.index in mapping:
        inner = {k: v for k, v in mapping.items() if k != e.index}
        return SeriesSum(e.index, e.start, subst_vars(e.body, inner))
    return map_children(e, lambda c: subst_vars(c, mapping))


def unfold_lets(lets: Sequence[Tuple[str, Expr]]) -> Dict[str, Expr]:
    """Each let name mapped to its body with earlier lets expanded."""
    expanded: Dict[str, Expr] = {}
    for name, body in lets:
        expanded[name] = subst_vars(body, expanded)
    return expanded


# terms of a series that eval_expr sums by default
SERIES_CUTOFF = 2000


def _pow_val(b: float, n: int) -> float:
    if n >= 0:
        return b ** n
    d = b ** (-n)
    return 0.0 if d == 0.0 else 1.0 / d


def _series_fast(s: SeriesSum, env: Dict[str, float], cutoff: int):
    """Closed loop for bodies that factor as c * i^k * x^i.

    Returns None when the body has a shape the fast path does not
    recognize; the caller falls back to per-term substitution.
    """
    idx = s.index
    factors = []
    stack = [s.body]
    while stack:
        f = stack.pop()
        if isinstance(f, Mul):
            stack.append(f.left)
            stack.append(f.right)
        else:
            factors.append(f)
    const_part = 1.0
    i_degree = 0
    base_val = None
    for f in factors:
        if isinstance(f, Var) and f.name == idx:
            i_degree += 1
        elif isinstance(f, Pow) and isinstance(f.exp, str) and f.exp == idx:
            if base_val is not None or idx in free_vars(f.base):
                return None
            base_val = eval_expr(f.base, env, cutoff)
        elif idx not in free_vars(f):
            const_part *= eval_expr(f, env, cutoff)
        else:
            return None
    if base_val is None:
        return None
    # The loop stops once no later term can change total, so the value
    # is exactly the partial sum to cutoff. Every 16 terms it tests:
    # (a) the term ratio ((i+1)/i)^k * |x| is below 1 with room for
    #     rounding, so while the power stays normal each later term is
    #     at most the current one;
    # (b) once the power goes subnormal it never grows again (|x| < 1
    #     and rounding is monotone), so a later term is at most
    #     |c| * cutoff^k * (smallest normal), `tail`;
    # (c) the current term and tail are below a quarter ulp of total,
    #     under half the float spacing on either side of it.
    # A later term that would overflow makes tail infinite, so a later
    # inf, nan or OverflowError comes out as in the full loop.
    try:
        tail = abs(const_part) * (cutoff ** i_degree if i_degree else 1) * sys.float_info.min
    except OverflowError:
        tail = math.inf
    total = 0.0
    power = _pow_val(base_val, s.start)
    for i in range(s.start, cutoff + 1):
        term = const_part * (i ** i_degree if i_degree else 1) * power
        total += term
        if not i & 15 and i and tail * 4 < math.ulp(total) \
                and abs(term) * 4 < math.ulp(total) \
                and ((i + 1) / i) ** i_degree * abs(base_val) < 1 - 1e-12:
            break
        power *= base_val
    return total


def eval_expr(e: Expr, env: Dict[str, float],
              series_cutoff: int = SERIES_CUTOFF) -> float:
    """Evaluate e to a float, with env giving each free name its value.

    Series are truncated at series_cutoff terms. Division by zero
    yields 0.0, matching the total-division convention used by the
    symbolic layer. A function application has no value here and
    raises UnboundSymbol; callers ground applications first.
    """
    if isinstance(e, Var):
        try:
            return float(env[e.name])
        except KeyError:
            raise UnboundSymbol(e.name) from None
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Add):
        return eval_expr(e.left, env, series_cutoff) + eval_expr(e.right, env, series_cutoff)
    if isinstance(e, Sub):
        return eval_expr(e.left, env, series_cutoff) - eval_expr(e.right, env, series_cutoff)
    if isinstance(e, Mul):
        return eval_expr(e.left, env, series_cutoff) * eval_expr(e.right, env, series_cutoff)
    if isinstance(e, Div):
        den = eval_expr(e.right, env, series_cutoff)
        if den == 0.0:
            return 0.0
        return eval_expr(e.left, env, series_cutoff) / den
    if isinstance(e, Neg):
        return -eval_expr(e.arg, env, series_cutoff)
    if isinstance(e, Pow):
        b = eval_expr(e.base, env, series_cutoff)
        exp = e.exp
        if isinstance(exp, str):
            try:
                v = env[exp]
            except KeyError:
                raise UnboundSymbol(exp) from None
            if v != int(v):
                raise NonIntegerPow(f"index {exp} bound to non-integer {v}")
            exp = int(v)
        return _pow_val(b, exp)
    if isinstance(e, SeriesSum):
        fast = _series_fast(e, env, series_cutoff)
        if fast is not None:
            return fast
        total = 0.0
        inner = dict(env)
        for i in range(e.start, series_cutoff + 1):
            inner[e.index] = i
            total += eval_expr(e.body, inner, series_cutoff)
        return total
    if isinstance(e, App):
        raise UnboundSymbol(f"deriv({e.fn.fn})" if isinstance(e.fn, Deriv) else e.fn)
    raise TypeError(f"not an expression: {e!r}")
