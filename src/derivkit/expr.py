"""Symbolic expression trees with exact rational constants.

Every syntax tree node derives from `Node`: a class annotates its
fields and lists them as its slots, and `Node` gives the class its
constructor, structural equality, a cached hash and a printed form.
Assigning a field raises AttributeError, so every tree is safe to
share. A child is a field that holds an `Expr` or a `Formula`; the one
`children` and `map_children` walk both kinds of tree. Numeric literals
are stored as `fractions.Fraction`; floats are rejected at construction
time to keep the symbolic layer exact.

Division is total: a zero denominator evaluates to 0. Downstream code
that needs real division is responsible for discharging the matching
nonzeroness obligation before it rewrites.

`eval_expr` is the one evaluator: in floats for the numeric oracle and
`limit_witness`, and in exact Fractions for the refutation points of
`discharge`. `geometric_terms` is the one recognizer of a series body
c * i^k * x^i, for the float sum's closed loop and the kernel's series
steps.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from operator import is_
from typing import Callable, Dict, Union

from .errors import NoExactValue, NonIntegerPow, UnboundSymbol

_setattr = object.__setattr__


class Node:
    """An immutable record with one slot per field, compared field by
    field and hashed once.

    A subclass annotates its fields and lists them, in the same order,
    as its `__slots__`, with any defaults in `_defaults`. It gets an
    `__init__` with those parameters, which calls `__post_init__` last
    when the class has one, and `_values`, the field values in order.
    """

    __slots__ = ("_hash",)
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("__slots__")
        if fields is None or tuple(fields) != tuple(cls.__annotations__):
            raise TypeError(f"{cls.__name__}.__slots__ must list its annotated fields")
        if not fields:
            return
        cls._fields = fields
        defaults = cls._defaults
        params = ", ".join(f"{f}=_defaults[{f!r}]" if f in defaults else f for f in fields)
        sets = "".join(f"\n    _setattr(self, {f!r}, {f})" for f in fields)
        post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        values = "".join(f"self.{f}, " for f in fields)
        # generated per class: a loop over the fields in one shared
        # __init__ makes construction up to twice as slow
        scope = {"_setattr": _setattr, "_defaults": defaults}
        exec(f"def __init__(self, {params}):{sets}{post}\n"
             f"def _values(self):\n    return ({values})\n", scope)
        for fn in (scope["__init__"], scope["_values"]):
            fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
            setattr(cls, fn.__name__, fn)

    def _values(self) -> tuple:
        return ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(self._values())
            _setattr(self, "_hash", h)
        return h

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Expr(Node):
    """Base class for expression nodes."""

    __slots__ = ()


class Formula(Node):
    """Base class for formula nodes; they live in `formula`."""

    __slots__ = ()


class Var(Expr):
    __slots__ = ("name",)
    name: str


class Const(Expr):
    __slots__ = ("value",)
    value: Fraction

    def __post_init__(self):
        if isinstance(self.value, bool) or not isinstance(self.value, (int, Fraction)):
            raise TypeError(f"Const requires int or Fraction, got {type(self.value).__name__}")
        if isinstance(self.value, int):
            object.__setattr__(self, "value", Fraction(self.value))


class Add(Expr):
    __slots__ = ("left", "right")
    left: Expr
    right: Expr


class Sub(Expr):
    __slots__ = ("left", "right")
    left: Expr
    right: Expr


class Mul(Expr):
    __slots__ = ("left", "right")
    left: Expr
    right: Expr


class Div(Expr):
    __slots__ = ("left", "right")
    left: Expr
    right: Expr


class Neg(Expr):
    __slots__ = ("arg",)
    arg: Expr


class Pow(Expr):
    """Power with an integer exponent, or a series index name.

    A string exponent is only meaningful inside the body of a
    SeriesSum that binds that name.
    """

    __slots__ = ("base", "exp")
    base: Expr
    exp: Union[int, str]

    def __post_init__(self):
        if isinstance(self.exp, bool) or not isinstance(self.exp, (int, str)):
            raise NonIntegerPow(f"exponent must be int or index name, got {self.exp!r}")


class SeriesSum(Expr):
    """sum over index = start, start+1, ... of body; start is 0 or 1."""

    __slots__ = ("index", "start", "body")
    index: str
    start: int
    body: Expr

    def __post_init__(self):
        if self.start not in (0, 1):
            raise ValueError(f"series start must be 0 or 1, got {self.start}")


class Deriv(Node):
    """Marker for the derivative of a named function symbol.

    Not itself an Expr; it only appears in the head position of App.
    """

    __slots__ = ("fn",)
    fn: str


class App(Expr):
    __slots__ = ("fn", "arg")
    fn: Union[str, Deriv]
    arg: Expr


def children(node: Node) -> tuple:
    """The child expressions and formulas of node, in field order; none
    for a leaf."""
    if not isinstance(node, Node):
        raise TypeError(f"not a syntax tree node: {node!r}")
    return tuple([v for v in node._values() if isinstance(v, (Expr, Formula))])


def map_children(node: Node, fn: Callable, *args) -> Node:
    """node rebuilt with fn(child, *args) for each child; when fn returns
    every child as it was (a leaf has none), node comes back as is.

    Every field that is not a child (a series index and start, an
    exponent, a function head, quantifier binders) is kept. Walkers
    handle the nodes they care about and pass the rest through here.
    """
    if not isinstance(node, Node):
        raise TypeError(f"not a syntax tree node: {node!r}")
    values = node._values()
    new = []  # not a comprehension, which costs a recursive walker a frame
    for v in values:
        new.append(fn(v, *args) if isinstance(v, (Expr, Formula)) else v)
    return node if all(map(is_, new, values)) else type(node)(*new)


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


# terms of a series that eval_expr sums
SERIES_CUTOFF = 2000
# the largest power, of either sign, that exact evaluation takes
_EXACT_MAX_EXP = 12


def _pow_val(b, n: int, exact: bool = False):
    if n >= 0:
        return b ** n
    d = b ** (-n)
    if d == 0:
        return Fraction(0) if exact else 0.0
    return 1 / d


def geometric_terms(s: SeriesSum):
    """The body of s read as c1 * ... * cm * i^k * x^i in its index i:
    `(factors, k, x)`, the factors c free of i in the order the float
    sum multiplies them, or None for a body of any other shape."""
    idx = s.index
    factors = []
    k = 0
    base = None
    stack = [s.body]
    while stack:
        f = stack.pop()
        if isinstance(f, Mul):
            stack.append(f.left)
            stack.append(f.right)
        elif isinstance(f, Var) and f.name == idx:
            k += 1
        elif isinstance(f, Pow) and f.exp == idx:
            if base is not None or idx in free_vars(f.base):
                return None
            base = f.base
        elif idx not in free_vars(f):
            factors.append(f)
        else:
            return None
    if base is None:
        return None
    return factors, k, base


def _series_fast(s: SeriesSum, env: Dict[str, float]):
    """Closed loop for bodies that factor as c * i^k * x^i.

    Returns None when `geometric_terms` does not recognize the body;
    the caller falls back to per-term substitution.
    """
    terms = geometric_terms(s)
    if terms is None:
        return None
    factors, i_degree, base = terms
    const_part = 1.0
    for f in factors:
        const_part *= eval_expr(f, env)
    base_val = eval_expr(base, env)
    cutoff = SERIES_CUTOFF
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


def eval_expr(e: Expr, env: Dict[str, float], exact: bool = False):
    """Evaluate e, with env giving each free name its value.

    By default the value is a float and a series is summed to
    SERIES_CUTOFF terms. With exact=True, env gives Fractions and the
    value is an exact Fraction; a series, a power past 12 of either
    sign, a function application or an unbound name raises NoExactValue
    instead. Division by zero and a negative power of zero yield 0,
    matching the total-division convention used by the symbolic layer.
    In floats, a function application has no value and raises
    UnboundSymbol; callers ground applications first.
    """
    if isinstance(e, Var):
        try:
            v = env[e.name]
        except KeyError:
            raise (NoExactValue if exact else UnboundSymbol)(e.name) from None
        return v if exact else float(v)
    if isinstance(e, Const):
        return e.value if exact else float(e.value)
    if isinstance(e, Add):
        return eval_expr(e.left, env, exact) + eval_expr(e.right, env, exact)
    if isinstance(e, Sub):
        return eval_expr(e.left, env, exact) - eval_expr(e.right, env, exact)
    if isinstance(e, Mul):
        return eval_expr(e.left, env, exact) * eval_expr(e.right, env, exact)
    if isinstance(e, Div):
        den = eval_expr(e.right, env, exact)
        if den == 0:
            return Fraction(0) if exact else 0.0
        return eval_expr(e.left, env, exact) / den
    if isinstance(e, Neg):
        return -eval_expr(e.arg, env, exact)
    if isinstance(e, Pow):
        exp = e.exp
        if exact and (isinstance(exp, str) or abs(exp) > _EXACT_MAX_EXP):
            raise NoExactValue(f"power {exp}")
        b = eval_expr(e.base, env, exact)
        if isinstance(exp, str):
            try:
                v = env[exp]
            except KeyError:
                raise UnboundSymbol(exp) from None
            if v != int(v):
                raise NonIntegerPow(f"index {exp} bound to non-integer {v}")
            exp = int(v)
        return _pow_val(b, exp, exact)
    if exact:
        raise NoExactValue(type(e).__name__)
    if isinstance(e, SeriesSum):
        fast = _series_fast(e, env)
        if fast is not None:
            return fast
        total = 0.0
        inner = dict(env)
        for i in range(e.start, SERIES_CUTOFF + 1):
            inner[e.index] = i
            total += eval_expr(e.body, inner)
        return total
    if isinstance(e, App):
        raise UnboundSymbol(f"deriv({e.fn.fn})" if isinstance(e.fn, Deriv) else e.fn)
    raise TypeError(f"not an expression: {e!r}")
