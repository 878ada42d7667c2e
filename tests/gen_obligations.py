"""A seeded generator of discharge obligations over x, y and z.

Each case is (facts, obligation): two to five random `Lt`/`Ne0` facts
on variables, their products and small expressions, and one `Lt` or
`Ne0` claim built from sums, differences, products, quotients,
negations and powers. The facts are oriented to hold at a hidden
witness point, so they are never contradictory, as a theory's
hypotheses should not be. Most claims are false under the facts and
some are provable, which is the mix a discharge search meets.
"""

import random
from fractions import Fraction

from derivkit.expr import Add, Const, Div, Mul, Neg, Pow, Sub, Var
from derivkit.formula import Lt, Ne0

VARS = [Var("x"), Var("y"), Var("z")]
ZERO, ONE = Const(Fraction(0)), Const(Fraction(1))


def value(e, point):
    """e at point, in exact arithmetic under total division; a series
    or a symbolic power raises ValueError."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return point[e.name]
    if isinstance(e, Neg):
        return -value(e.arg, point)
    if isinstance(e, Pow) and isinstance(e.exp, int):
        b = value(e.base, point)
        return b ** e.exp if b or e.exp >= 0 else Fraction(0)
    if not isinstance(e, (Add, Sub, Mul, Div)):
        raise ValueError(f"no exact value for {type(e).__name__}")
    l, r = value(e.left, point), value(e.right, point)
    if isinstance(e, Add):
        return l + r
    if isinstance(e, Sub):
        return l - r
    if isinstance(e, Mul):
        return l * r
    return l / r if r else Fraction(0)


def holds(ob, point):
    """The obligation is true at point."""
    if isinstance(ob, Ne0):
        return value(ob.arg, point) != 0
    return value(ob.left, point) < value(ob.right, point)


def _leaf(rng):
    if rng.random() < 0.75:
        return rng.choice(VARS)
    return Const(Fraction(rng.choice([1, 2, 3, -1, -2])))


def expr(rng, depth):
    """A random expression tree of at most the given depth."""
    if depth == 0 or rng.random() < 0.25:
        return _leaf(rng)
    op = rng.choice("+-*/^~*+")
    if op == "~":
        return Neg(expr(rng, depth - 1))
    if op == "^":
        return Pow(expr(rng, depth - 1), rng.choice([2, 2, 3, -1]))
    node = {"+": Add, "-": Sub, "*": Mul, "/": Div}[op]
    return node(expr(rng, depth - 1), expr(rng, depth - 1))


def _atom(rng):
    if rng.random() < 0.7:
        return rng.choice(VARS)
    return Mul(*rng.sample(VARS, 2))


def _oriented(a, b, witness):
    """a < b or b < a, whichever holds at the witness; None if equal."""
    va, vb = value(a, witness), value(b, witness)
    if va == vb:
        return None
    return Lt(a, b) if va < vb else Lt(b, a)


def fact(rng, witness):
    """A random fact true at the witness."""
    while True:
        kind = rng.randrange(5)
        a = _atom(rng)
        if kind == 0:
            f = _oriented(ZERO, a, witness)
        elif kind == 1:
            f = _oriented(a, Const(Fraction(rng.choice([1, -1]))), witness)
        elif kind == 2:
            f = Ne0(a)
        elif kind == 3:
            f = Ne0(Sub(ONE, a))
        else:
            f = _oriented(expr(rng, 1), expr(rng, 1), witness)
        if f is not None and holds(f, witness):
            return f


def obligation(rng, depth):
    e = expr(rng, depth)
    kind = rng.randrange(4)
    if kind == 0:
        return Lt(ZERO, e)
    if kind == 1:
        return Lt(e, ZERO)
    if kind == 2:
        return Lt(e, expr(rng, depth - 1))
    return Ne0(e)


def cases(seed, count, depth=3):
    """count (facts, obligation) pairs drawn from seed, with claims
    of at most the given depth."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        witness = {v.name: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
                   for v in VARS}
        facts = [(f"h{k}", fact(rng, witness)) for k in range(rng.randint(2, 5))]
        out.append((facts, obligation(rng, depth)))
    return out
