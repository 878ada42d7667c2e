"""Independent numeric falsification of accepted claims.

Everything here works on raw parsed expressions and plain float
evaluation; none of the checker's normalization machinery is imported.
So agreement between the two routes is evidence, not circularity, but
for `formula.subst`: both unfold lets and instantiate quantifiers with
it, so a fault there can pass one false claim through both (taking the
oracle off it is ROADMAP Direction 3).

Every goal but a divergence claim takes one path: the theory is
grounded into real arithmetic without function symbols, and its claims
are compared on environments drawn by rejection sampling against its
hypotheses. An equation with a bare name on one side defines it; each
other one that does not hold at a draw is solved, without replay, for
the latest-declared name not solved before that `_as_poly` finds it of
degree 1 in (a series is, when its body is). Names are drawn in
declaration order. A hypothesis `left < right` over no name an equation
defines or may be solved for bounds its latest-declared name when it is
of degree 1 in it: the name is drawn only inside the half-line the bound
gives at the names drawn before it. Every candidate is then checked
against every hypothesis, so the bounds change which candidates are
proposed, never which are accepted.
Disequalities are rejected with a safety margin so sampled identities
stay well conditioned. A series is summed to SERIES_CUTOFF terms; the
closed loop of `eval_expr` stops early only when no later term can
change the sum, so the value is exactly that partial sum. A sample is
rejected where a series of a claim has a term above 1e-12 at the
cutoff. A series in which an enclosing index occurs free is not
guarded on its own: it is evaluated within the term of the enclosing
series, which is guarded.

Trees are visited here with `formula.walk`, which gives each node with
the names bound around it: by the series guard, the test for a series
without applications, the grounder's closed arguments and its refusal
of an application at a series index, and the names a grounded theory
uses.

A divergence claim gets left-approach tables, and one judge,
`divergence_witness`, passes a table only when it is finite,
nonnegative, strictly increasing and ends above 1e6. The kernel's
limit_witness step and the oracle sample the names and facts that
`divergence_setup` picks: the step at the assignments of
`witness_envs`, the oracle at ten draws, keeping the first table.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import reduce
from typing import Callable, Collection, Dict, List, Optional, Sequence, Tuple

# the interpreter's built-in sha256 (`_sha2` from 3.12, `_sha256`
# before); `hashlib` would load OpenSSL on every call of the CLI
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .errors import DerivkitError, RejectionStarvation, StepFailed
from .expr import (SERIES_CUTOFF, Add, App, Const, Deriv, Div, Expr, Mul, Neg,
                   Node, Pow, SeriesSum, Sub, Var, children, eval_expr,
                   free_vars, map_children)
from .formula import (REAL, STATE, And, DivergesLeftAt, EqF, Exists, Forall,
                      Formula, Implies, Lt, Ne0, Theory, formula_free_vars,
                      fresh, instantiate_forall, pointwise, subst, unfold_lets,
                      walk)

_NE0_MARGIN = 1e-3
_DRAW_LIMIT = 100_000
_DEFAULT_RANGE = (-10.0, 10.0)
_POSITIVE_RANGE = (1e-3, 10.0)
_ABS_TOL = 1e-12
_REL_TOL = 1e-9
# sampled points every quantifier ranges over, beside the closed
# arguments, and the most instances one quantifier may have
_FRESH_POINTS = 3
_MAX_INSTANCES = 4096


class SamplePlan(Node):
    __slots__ = ("seed", "count")
    _defaults = {"seed": 0, "count": 100}
    seed: int
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("sample count must be at least 1")


class NumericReport(Node):
    __slots__ = ("seed", "samples", "worst_residual", "passed", "label", "table")
    _defaults = {"label": "", "table": ()}
    seed: int
    samples: int
    worst_residual: float
    passed: bool
    label: str
    # the first left-approach table of a divergence check
    table: Sequence[float]


def _rng(seed: int, name: str) -> random.Random:
    digest = sha256(f"{seed}:{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _close(l: float, r: float) -> bool:
    return math.isfinite(l) and abs(l - r) <= _REL_TOL * max(1.0, abs(l), abs(r))


def _guarded_series(e: Expr) -> List[SeriesSum]:
    """The series of e, left to right, but for those in which an
    enclosing index occurs free: such a series has no value on a
    sample alone, only inside the term of the series around it."""
    return [n for n, bound in walk(e)
            if isinstance(n, SeriesSum) and not bound & free_vars(n)]


# ---------------------------------------------------------------------------
# hypothesis-respecting environment sampling


def _positive_names(hyps: Sequence[Formula]) -> set:
    out = set()
    for f in hyps:
        if isinstance(f, Lt) and isinstance(f.left, Const) and f.left.value == 0 \
                and isinstance(f.right, Var):
            out.add(f.right.name)
    return out


def _linear(e: Expr, v: str) -> Optional[Tuple[Expr, Expr]]:
    """(c0, c1) with e = c0 + c1*v if e is of degree 1 in v, else None."""
    p = _as_poly(e, v, {})
    return (p[0], p[1]) if p is not None and len(p) == 2 else None


def _equation_plan(names: Sequence[str], hyps: Sequence[Formula]):
    """The rank of each name in declaration order, the definitions, and
    the other equations `l = r`, definitions substituted, each with the
    `_linear` forms of `l - r`, latest-declared name first. An equation
    with a bare name on one side that the other side lacks defines it
    (the later-declared one if both are names)."""
    rank = {n: i for i, n in enumerate(names)}
    defs: Dict[str, Expr] = {}
    rest = []
    for eq in (f for f in hyps if isinstance(f, EqF)):
        l, r = subst(eq.left, defs), subst(eq.right, defs)
        sides = [(a.name, b) for a, b in ((l, r), (r, l)) if isinstance(a, Var)
                 and a.name in rank and a.name not in free_vars(b)]
        if not sides:
            rest.append((l, r))
            continue
        v, e = max(sides, key=lambda s: rank[s[0]])
        defs = {k: subst(d, {v: e}) for k, d in defs.items()}
        defs[v] = e
    plan = []
    for l, r in rest:
        gap = Sub(subst(l, defs), subst(r, defs))
        order = sorted(free_vars(gap) & rank.keys(), key=rank.__getitem__, reverse=True)
        plan.append((gap.left, gap.right, {v: c for v in order for c in [_linear(gap, v)] if c}))
    return rank, defs, plan


def _solve(env: Dict[str, float], defs: Dict[str, Expr], rest) -> bool:
    """Solve each equation that does not hold for the first of its
    linear names not solved before, v = -c0/c1 at env. Then evaluate
    the definitions. False when such an equation has no name left; an
    equation that cannot be evaluated, or c1 = 0, raises."""
    solved: set = set()
    for l, r, linear in rest:
        if _close(eval_expr(l, env), eval_expr(r, env)):
            continue
        v = next((v for v in linear if v not in solved), None)
        if v is None:
            return False
        solved.add(v)
        env[v] = -eval_expr(linear[v][0], env) / eval_expr(linear[v][1], env)
    env.update({v: eval_expr(d, env) for v, d in defs.items()})
    return True


def _holds(f: Formula, env: Dict[str, float]) -> bool:
    if isinstance(f, EqF):
        return _close(eval_expr(f.left, env), eval_expr(f.right, env))
    if isinstance(f, Lt):
        return eval_expr(f.left, env) < eval_expr(f.right, env)
    return not isinstance(f, Ne0) or abs(eval_expr(f.arg, env)) > _NE0_MARGIN


def _admitter(hyps: Sequence[Formula], eqs
              ) -> Callable[[Dict[str, float]], bool]:
    """A test that solves an environment's equations `eqs` in place and
    tells whether it then satisfies every hypothesis. An environment
    whose solving or checking raises is not admitted: a point the
    hypotheses cannot be evaluated at decides nothing."""
    _, defs, rest = eqs

    def admit(env: Dict[str, float]) -> bool:
        try:
            return _solve(env, defs, rest) and all(_holds(f, env) for f in hyps)
        except (DerivkitError, ArithmeticError):
            return False

    return admit


def _bound_plan(hyps: Sequence[Formula], eqs
                ) -> Dict[str, List[Tuple[Expr, Expr]]]:
    """The linear bounds to draw each name inside. A hypothesis
    `left < right`, other than `0 < name`, that mentions no name the
    equations `eqs` define or may be solved for, bounds its
    latest-declared name v when `right - left` has a `_linear` form in
    v: it holds where c0 + c1*v > 0, with c0 and c1 over earlier names."""
    rank, defs, rest = eqs
    solved = set(defs).union(*(linear for _, _, linear in rest))
    plan: Dict[str, List[Tuple[Expr, Expr]]] = {}
    for f in hyps:
        if not isinstance(f, Lt) or _positive_names([f]):
            continue
        gap = Sub(f.right, f.left)
        fv = free_vars(gap)
        if not fv or not fv <= rank.keys() or fv & solved:
            continue
        v = max(fv, key=rank.__getitem__)
        c = _linear(gap, v)
        if c:
            plan.setdefault(v, []).append(c)
    return plan


def _cut(lo: float, hi: float, bounds: Sequence[Tuple[Expr, Expr]],
         env: Dict[str, float]) -> Tuple[float, float]:
    """(lo, hi) cut to the half-line of each bound c0 + c1*v > 0 at
    env, or an empty range for a bound with c1 = 0 and c0 <= 0; a bound
    whose coefficients are not finite cuts nothing."""
    for c0, c1 in bounds:
        try:
            a, b = eval_expr(c0, env), eval_expr(c1, env)
        except (DerivkitError, ArithmeticError):
            continue
        if not (math.isfinite(a) and math.isfinite(b)):
            continue
        if b > 0:
            lo = max(lo, -a / b)
        elif b < 0:
            hi = min(hi, -a / b)
        elif a <= 0:
            return lo, lo
    return lo, hi


def _draw(rng: random.Random, ranges) -> Optional[Dict[str, float]]:
    """One candidate: each name uniform in its range, cut by its bounds
    at the names drawn before it; None when a cut leaves nothing."""
    env: Dict[str, float] = {}
    for n, lo, hi, bounds in ranges:
        lo, hi = _cut(lo, hi, bounds, env)
        if not lo < hi:
            return None
        env[n] = rng.uniform(lo, hi)
    return env


def sample_envs(names: Sequence[str], hyps: Sequence[Formula],
                plan: SamplePlan, check_name: str,
                extra_reject: Optional[Callable[[Dict[str, float]], bool]] = None
                ) -> List[Dict[str, float]]:
    """Environments over `names` satisfying every hypothesis.

    Names are drawn in declaration order, each from its range cut by
    the bounds of `_bound_plan`: once before any draw by those over no
    other name (RejectionStarvation comes then if they leave no room),
    at each draw by the others. Every candidate is then solved and
    checked against every hypothesis, so a bound changes which
    candidates are proposed, never which are accepted; a candidate
    whose solving or checking raises is rejected."""
    rng = _rng(plan.seed, check_name)
    positive = _positive_names(hyps)
    eqs = _equation_plan(names, hyps)
    bounds = _bound_plan(hyps, eqs)
    ranges = []
    for n in names:
        bs = bounds.get(n, [])
        fixed = [b for b in bs if not free_vars(b[0]) | free_vars(b[1])]
        lo, hi = _cut(*(_POSITIVE_RANGE if n in positive else _DEFAULT_RANGE), fixed, {})
        if not lo < hi:
            raise RejectionStarvation(f"{check_name}: the hypotheses leave {n} no value")
        ranges.append((n, lo, hi, [b for b in bs if b not in fixed]))
    admit = _admitter(hyps, eqs)
    envs: List[Dict[str, float]] = []
    for _ in range(_DRAW_LIMIT):
        env = _draw(rng, ranges)
        if env is not None and admit(env) and not (extra_reject and extra_reject(env)):
            envs.append(env)
            if len(envs) == plan.count:
                return envs
    raise RejectionStarvation(
        f"{check_name}: {len(envs)} of {plan.count} samples in {_DRAW_LIMIT} draws")


def divergence_setup(body: Expr, point: Expr, variables: Collection[str],
                     names: Sequence[str], facts: Sequence[Formula]
                     ) -> Tuple[str, List[str], List[Formula]]:
    """(var, names, facts) to sample `body diverges as var nears point
    from the left` over. var is the one name of `variables` free in
    body; every other name of body and point must be in `names`. The
    facts are the atomic ones over `names` but var that link to body or
    point, directly or through each other; the names are those of body,
    point and facts, in `names` order."""
    fv = free_vars(body)
    approach = [v for v in variables if v in fv]
    if len(approach) != 1:
        raise StepFailed("the diverging expression needs exactly one free variable")
    var = approach[0]
    linked = (fv | free_vars(point)) - {var}
    if not linked <= set(names):
        raise StepFailed("the approach point must only involve constants")
    over = set(names) - {var}
    atomic = [(f, formula_free_vars(f)) for f in facts
              if isinstance(f, (EqF, Lt, Ne0)) and formula_free_vars(f) <= over]
    more = linked
    while more:
        more = set().union(*(fs for _, fs in atomic if fs & linked)) - linked
        linked |= more
    return var, [n for n in names if n in linked], [f for f, fs in atomic if fs <= linked]


def witness_envs(names: Sequence[str], hyps: Sequence[Formula],
                 seed: int) -> List[Dict[str, float]]:
    """Assignments to `names` for a divergence witness: each corner of
    the sign grid (1e-3, 1 and 10 for a name a hypothesis makes
    positive, -10, -1, 1 and 10 otherwise) that, solved like a drawn
    environment, satisfies every hypothesis, then eight sampled ones.
    Solving can map corners onto one assignment (a name an equation
    defines gets its value from the others); each distinct one comes
    once, where it first occurs. A corner the hypotheses cannot be
    evaluated at is left out, as a drawn one is. Raises
    RejectionStarvation when the sampler finds no eight."""
    positive = _positive_names(hyps)
    grids = [(1e-3, 1.0, 10.0) if n in positive else (-10.0, -1.0, 1.0, 10.0)
             for n in names]
    admit = _admitter(hyps, _equation_plan(names, hyps))
    corners = [dict(zip(names, c)) for c in itertools.product(*grids)]
    envs = [env for env in corners if admit(env)] \
        + sample_envs(names, hyps, SamplePlan(seed, count=8), "limit_witness")
    return list({tuple(env.values()): env for env in envs}.values())


# ---------------------------------------------------------------------------
# grounding


class _Unsupported(Exception):
    """A theory part that grounding does not take."""


# a polynomial: coefficients over sampled names, constant term first
_ZERO, _ONE = Const(0), Const(1)


def _plus(a: Expr, b: Expr) -> Expr:
    return b if a == _ZERO else a if b == _ZERO else Add(a, b)


def _times(a: Expr, b: Expr) -> Expr:
    if _ZERO in (a, b):
        return _ZERO
    return b if a == _ONE else a if b == _ONE else Mul(a, b)


def _padd(p: list, q: list) -> list:
    n = max(len(p), len(q))
    return [_plus(*(c[i] if i < len(c) else _ZERO for c in (p, q))) for i in range(n)]


def _pmul(p: list, q: list) -> list:
    out = [_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = _plus(out[i + j], _times(a, b))
    return out


def _compose(p: list, q: list) -> list:
    """p(q(u)), by Horner's rule."""
    return reduce(lambda acc, c: _padd(_pmul(acc, q), [c]), reversed(p[:-1]), [p[-1]])


def _as_poly(e: Expr, u: str, polys: Dict[object, list]) -> Optional[list]:
    """e as a polynomial in u, or None; `polys` gives the functions
    with a polynomial definition. A term free of u and of applications
    comes back as itself, known from its children's results."""
    if e == Var(u):
        return [_ZERO, _ONE]
    if isinstance(e, SeriesSum) and e.index == u:
        return None if any(isinstance(n, App) for n, _ in walk(e)) else [e]
    if isinstance(e, Pow) and e.exp == u:
        return None
    cs = children(e)
    parts = []  # not a comprehension, which costs a recursive walker a frame
    for c in cs:
        parts.append(_as_poly(c, u, polys))
    if None in parts:
        return None
    if isinstance(e, App):
        return None if e.fn not in polys else _compose(polys[e.fn], parts[0])
    if all(len(p) == 1 and p[0] is c for p, c in zip(parts, cs)):
        return [e]
    if isinstance(e, SeriesSum):
        # a partial sum of b0 + b1*u is that of b0 plus u times that of b1
        return None if len(parts[0]) > 2 else \
            [c if c == _ZERO else SeriesSum(e.index, e.start, c) for c in parts[0]]
    if isinstance(e, Pow):
        return reduce(_pmul, [parts[0]] * e.exp, [_ONE]) \
            if isinstance(e.exp, int) and e.exp >= 0 else None
    if isinstance(e, (Neg, Sub)):
        parts[-1] = _pmul([Const(-1)], parts[-1])
    if isinstance(e, (Add, Sub, Neg)):
        return reduce(_padd, parts)
    if isinstance(e, Mul):
        return _pmul(*parts)
    if isinstance(e, Div) and len(parts[1]) == 1:
        return [Div(c, parts[1][0]) for c in parts[0]]
    return None


class _Grounder:
    """A theory as sampled names, atomic hypotheses and equation claims.

    (a) `forall u, f(u) = E` or `forall u, deriv(f)(u) = E`, with E a
    polynomial in u over functions defined before, makes f a polynomial;
    a derivative's integration constant is the sampled name `f(0)`.
    (b) Every other application is one sampled name per ground point:
    the closed arguments, then _FRESH_POINTS sampled names.
    (c) Every other `forall` takes all tuples of points, an `exists` a
    fresh name; a claimed `exists` takes its first instance that names
    the witness as a hypothesis. Anything else, an application whose
    argument holds a series index, and a claimed witness inside an
    application's argument, raises _Unsupported."""

    def __init__(self, theory: Theory):
        self.declared = _theory_names(theory)
        self.extra = [n for n, s in theory.var_decls if s == STATE] \
            + list(theory.implicit_states())
        self.known = set(self.declared + self.extra)
        self.polys: Dict[object, list] = {}
        self.atoms: Dict[Tuple[object, Expr], str] = {}
        _, hyps, goal = _unfolded(theory)
        self.points: List[Expr] = list(dict.fromkeys(
            n.arg for f in hyps + [goal] for n, bound in walk(f)
            if isinstance(n, App) and free_vars(n.arg) <= self.known - bound))
        self.points += [self._name(f"#{k}") for k in range(1, _FRESH_POINTS + 1)]
        self.hyps: List[Formula] = []
        for f in self._define(hyps):
            self.hyps += self.ground(f, False)
        self.claims = self.ground(goal, True)

    def _name(self, base: str) -> Var:
        """A fresh sampled name, declared after every earlier one."""
        name = fresh(base, self.known)
        self.known.add(name)
        self.extra.append(name)
        return Var(name)

    def _define(self, hyps: List[Formula]) -> List[Formula]:
        """The hypotheses left after taking out pointwise definitions."""
        rest = list(hyps)
        while True:
            got = next(((f, d) for f in rest for d in [self._pointwise(f)] if d), None)
            if got is None:
                return rest
            f, (head, p) = got
            rest.remove(f)
            if isinstance(head, Deriv):
                lift = [_times(Const(Fraction(1, k + 1)), c) for k, c in enumerate(p)]
                self.polys[head.fn] = [self._name(f"{head.fn}(0)")] + lift
                self.polys[head] = p
            else:
                self.polys[head] = p
                self.polys[Deriv(head)] = \
                    [_times(Const(k), c) for k, c in enumerate(p)][1:] or [_ZERO]

    def _pointwise(self, f: Formula):
        """(f or deriv(f), polynomial) when f defines a new function;
        defining either one defines both."""
        d = pointwise(f)
        if d is None or d[0] in self.polys:
            return None
        head, u, rhs = d
        p = _as_poly(rhs, u, self.polys)
        return None if p is None else (head, p)

    def expr(self, e: Expr) -> Expr:
        if not isinstance(e, App):
            return map_children(e, self.expr)
        arg = self.expr(e.arg)
        if not free_vars(arg) <= self.known:
            raise _Unsupported(e)
        if e.fn in self.polys:
            return _compose(self.polys[e.fn], [arg])[0]
        if isinstance(e.fn, Deriv):
            raise _Unsupported(e)
        if (e.fn, arg) not in self.atoms:
            label = arg.name if isinstance(arg, Var) else \
                str(arg.value) if isinstance(arg, Const) else repr(arg)
            self.atoms[e.fn, arg] = self._name(f"{e.fn}({label})").name
        return Var(self.atoms[e.fn, arg])

    def ground(self, f: Formula, claim: bool) -> List[Formula]:
        """The atomic instances of f, equations only for a claim; a
        claim's implication premise goes to the hypotheses."""
        if isinstance(f, Forall):
            if len(self.points) ** len(f.binders) > _MAX_INSTANCES:
                raise _Unsupported(f)
            return [g for t in itertools.product(self.points, repeat=len(f.binders))
                    for g in self.ground(instantiate_forall(f, t), claim)]
        if isinstance(f, And):
            return self.ground(f.left, claim) + self.ground(f.right, claim)
        if isinstance(f, Exists):
            w = self._name(f.binder[0])
            out = self.ground(subst(f.body, {f.binder[0]: w}), claim)
            if claim:
                if any(w.name in free_vars(arg) for _, arg in self.atoms):
                    raise _Unsupported(f)
                named = [g for g in out if w.name in free_vars(g.left) | free_vars(g.right)]
                if named:
                    self.hyps.append(named[0])
                    out.remove(named[0])
            return out
        if isinstance(f, Implies) and claim:
            self.hyps += self.ground(f.ante, False)
            return self.ground(f.cons, True)
        if isinstance(f, EqF) or isinstance(f, (Lt, Ne0)) and not claim:
            apps = [(n, bound) for n, bound in walk(f) if isinstance(n, App)]
            # an application at a series index has no sampled value,
            # even where the index shares a declared name
            if any(bound & free_vars(n.arg) for n, bound in apps):
                raise _Unsupported(f)
            return [map_children(f, self.expr)] if apps else [f]
        raise _Unsupported(f)


def _ground(theory: Theory):
    """(names, hypotheses, claims, applications) of the grounded theory,
    or None. The names are the declared ones, then the others in use,
    arguments of applications in use included, in the order they were
    made; an application is (function, argument, sampled name)."""
    try:
        g = _Grounder(theory)
    except _Unsupported:
        return None
    used = {n.name for f in g.hyps + g.claims for n, _ in walk(f) if isinstance(n, Var)}
    # an argument is grounded before its application is named, so
    # taking the latest application first finds those nested in it
    apps = []
    for (fn, arg), n in reversed(g.atoms.items()):
        if n in used:
            apps.append((fn, arg, n))
            used |= free_vars(arg)
    return g.declared + [n for n in g.extra if n in used], g.hyps, g.claims, apps


# ---------------------------------------------------------------------------
# checks


def _compare(claims: Sequence[EqF], envs: Sequence[Dict[str, float]],
             seed: int) -> NumericReport:
    """Both sides of every claim compared on each environment."""
    worst = 0.0
    ok = True
    for env in envs:
        for c in claims:
            l = eval_expr(c.left, env)
            r = eval_expr(c.right, env)
            diff = abs(l - r)
            if not math.isfinite(diff):
                # a side that overflows or is NaN fails the claim
                ok, worst = False, math.inf
                continue
            if diff > max(_ABS_TOL, _REL_TOL * max(abs(l), abs(r))):
                ok = False
            worst = max(worst, diff / max(1.0, abs(l), abs(r)))
    return NumericReport(seed, len(envs), worst, ok, "identity")


class DivergenceReport(Node):
    __slots__ = ("values", "reason")
    values: List[float]
    reason: Optional[str]

    @property
    def verdict(self) -> bool:
        return self.reason is None


def divergence_witness(fn_expr: Expr, var: str, point: float, m: int,
                       env: Dict[str, float]) -> DivergenceReport:
    """Left-approach table at point - 10^-j for j = 1..m, evaluated up
    to the first offset where it fails.

    The table passes iff every value is finite and nonnegative, the
    values strictly increase, and the final one exceeds 1e6; otherwise
    the reason says where it failed.
    """
    values: List[float] = []
    for j in range(1, m + 1):
        y = eval_expr(fn_expr, {**env, var: point - 10.0 ** -j})
        values.append(y)
        fault = "is not finite" if not math.isfinite(y) else \
            "goes negative" if y < 0 else \
            "is not increasing" if j > 1 and y <= values[-2] else None
        if fault:
            return DivergenceReport(values, f"divergence table {fault} at offset 1e-{j}")
    if not values or values[-1] <= 1e6:
        return DivergenceReport(values, "divergence table does not exceed 1e6")
    return DivergenceReport(values, None)


# ---------------------------------------------------------------------------
# per-theory suites


def _theory_names(theory: Theory) -> List[str]:
    names = [n for n, s in theory.var_decls if s == REAL]
    names += [n for n in theory.const_decls]
    return names


def _unfolded(theory: Theory) -> Tuple[Dict[str, Expr], List[Formula], Formula]:
    """The theory's lets unfolded, and its hypotheses and goal with them
    expanded."""
    lets = unfold_lets(theory.lets)
    return lets, [subst(f, lets) for _, f in theory.hyps], subst(theory.goal, lets)


def _truncation_guard(series: Sequence[SeriesSum]):
    """Reject samples where a series has not converged by the cutoff.

    At such a point the partial sum cannot distinguish truncation
    error from a genuine mismatch, so the sample decides nothing."""

    def guard(env: Dict[str, float]) -> bool:
        for s in series:
            try:
                last = abs(eval_expr(s.body, {**env, s.index: SERIES_CUTOFF}))
            except OverflowError:
                return True
            if last > _ABS_TOL:
                return True
        return False

    return guard


def run_suite(theory: Theory, plan: SamplePlan) -> Optional[NumericReport]:
    """The numeric check of a theory, or None when grounding does not
    take it."""
    if isinstance(theory.goal, DivergesLeftAt):
        return _suite_divergence(theory, plan)
    grounded = _ground(theory)
    if grounded is None:
        return None
    names, hyps, claims, apps = grounded
    if not claims:
        return None
    series = [s for c in claims for side in (c.left, c.right)
              for s in _guarded_series(side)]
    guard = _truncation_guard(series) if series else None
    envs = sample_envs(names, hyps, plan, theory.name, guard)
    if _incongruent(apps, envs):
        return None
    return _compare(claims, envs, plan.seed)


def _incongruent(apps, envs: Sequence[Dict[str, float]]) -> bool:
    """Whether two applications of one function meet at one point with
    different values in some sample. Grounding names each application
    apart, so it cannot follow the equal arguments that the kernel's
    congruence and rewriting use (`f(x + 1)` and `f(1 + x)`, or `f(x)`
    and `f(y)` under `x = y`); such a theory is not checked."""
    for env in envs:
        seen: Dict[object, list] = {}
        for fn, arg, name in apps:
            try:
                p = eval_expr(arg, env)
            except (DerivkitError, ArithmeticError):
                continue
            if any(_close(p, q) and not _close(env[name], env[m])
                   for q, m in seen.get(fn, ())):
                return True
            seen.setdefault(fn, []).append((p, name))
    return False


def _suite_divergence(theory: Theory, plan: SamplePlan) -> NumericReport:
    lets, hyps, goal = _unfolded(theory)
    body, point_e = lets[goal.fn_name], goal.point
    var, names, facts = divergence_setup(
        body, point_e, [n for n, s in theory.var_decls if s == REAL],
        _theory_names(theory), hyps)
    # the witness runs on ten environments at most; sample_envs is
    # prefix-stable, so drawing only those keeps the same ten
    few = SamplePlan(plan.seed, min(plan.count, 10))
    envs = sample_envs(names, facts, few, theory.name)
    reps = [divergence_witness(body, var, eval_expr(point_e, env), 8, env)
            for env in envs]
    return NumericReport(plan.seed, len(envs), 0.0, all(r.verdict for r in reps),
                         "divergence_witness", reps[0].values)
