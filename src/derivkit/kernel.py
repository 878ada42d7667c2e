"""The proof checker: one check state and one handler per step kind.

A theory is checked by replaying its proof script against the goal.
Every step either transforms the goal soundly or fails the whole
check; side conditions raised along the way must be discharged from
the hypotheses in scope. Nothing in here trusts the script: a check
that returns accepted constitutes a derivation of the goal from the
hypotheses under the total-division reading of expressions.

One `_State` holds everything a check works on: scope, hypotheses,
goal, lemma pool, seed, refutation points and the running step's
obligations. `_STEPS` maps each step class of `formula.STEPS` to its
handler; every handler takes `(state, step)`, changes the state and
returns nothing. Handlers raise errors that carry no step:
`check_theory` alone counts the steps, and any `DerivkitError` raised
while step N runs fails the check at step N. So too `_discharge_or_fail`
records each obligation it discharges: step N's are those discharged
while it ran. A term a step brings in
(a `use` witness, `specialize` terms, an applied lemma's conclusion)
must pass `formula.unbound_symbol`, the parser's scope rule, against
the names in scope.

Every comparison (rewriting, goal closure, hypothesis matching, the
antiderivative rate) uses atom-mode canonical form (division and
applications opaque), which is sound without side conditions. Only
`_rational_forms` clears denominators, for field_normalize, lemma
application and the antiderivative schemas; it pays with one
nonzeroness obligation per distinct denominator crossed.

The one numeric step, limit_witness, is the exception: its verdict is
numeric_certified. It samples the constants and facts that
`numcheck.divergence_setup` picks, as the oracle does, at assignments
from the oracle's sampler (`numcheck.witness_envs`: the sign-grid
corners that satisfy those facts, then hypothesis-respecting draws),
and has each left-approach table judged by `numcheck.divergence_witness`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .discharge import discharge
from .errors import (ArityMismatch, DerivkitError, DuplicateName,
                     GoalNotClosed, NotDerivable, ObligationFailed,
                     RejectionStarvation, SearchBudgetExhausted, StepFailed,
                     UnboundSymbol)
from .expr import (Add, App, Const, Deriv, Div, Expr, Mul, Neg, Node, Pow,
                   SeriesSum, Sub, Var, eval_expr, free_vars, geometric_terms,
                   map_children)
from .formula import (And, Antideriv, AntiderivConst, ApplyLemma,
                      DivergesLeftAt, EqF, Exists, ExistsIntro,
                      FieldNormalize, Forall, Formula, Implies, IndexShift,
                      Intro, LimitDivergenceWitness, Lt, Ne0, RewriteWith,
                      RingClose, SeriesGeom, SeriesGeomWeighted, Specialize,
                      Step, Theory, Unfold, bound_names, fresh,
                      instantiate_forall, pointwise, subst, unbound_symbol,
                      unfold_lets)
from .numcheck import divergence_setup, divergence_witness, witness_envs
from .parser import print_formula, print_step
from .poly import Poly, derivative, divexact
from .ringnorm import Normalizer

SYMBOLIC = "symbolic"
NUMERIC_CERTIFIED = "numeric_certified"


class StepRecord(Node):
    __slots__ = ("step", "goal_after", "obligations")
    step: str
    goal_after: str
    obligations: List[str]


class CheckResult(Node):
    __slots__ = ("name", "accepted", "soundness", "steps", "failure")
    _defaults = {"failure": None}
    name: str
    accepted: bool
    soundness: str
    steps: List[StepRecord]
    failure: Optional[Tuple[Optional[int], str]]


class LemmaEntry(Node):
    __slots__ = ("theory", "accepted")
    theory: Theory
    accepted: bool


LemmaPool = Dict[str, LemmaEntry]


class _State:
    """Everything one check of a theory works on: the names in scope
    (no sorts: the kernel checks none), the hypotheses, the goal and
    whether a step closed it, the lemma pool and seed that steps draw
    on, and the refutation points its obligations share (`discharge`)."""

    def __init__(self, theory: Theory, pool: Optional[LemmaPool] = None,
                 seed: int = 0):
        self.vars = {n for n, _ in theory.var_decls} | set(theory.implicit_states())
        self.fns = set(theory.fn_decls)
        self.consts = theory.const_decls
        self.lets: Dict[str, Expr] = dict(theory.lets)
        self.hyps: Dict[str, Formula] = dict(theory.hyps)
        self.unfolded: Dict[str, Expr] = unfold_lets(theory.lets)
        self.goal = theory.goal
        self.closed = False
        self.soundness = SYMBOLIC
        self.pool = pool
        self.seed = seed
        self.points: dict = {}
        self.obligations: List[str] = []

    def all_names(self) -> set:
        return self.vars | self.fns | set(self.consts) | set(self.lets) | set(self.hyps)

    def unfold(self, x: Node) -> Node:
        return subst(x, self.unfolded)

    def facts(self) -> List[Tuple[str, Formula]]:
        return [(n, self.unfold(f)) for n, f in self.hyps.items()]

    def check_symbols(self, x: Node) -> None:
        """Every symbol of a script-supplied term or formula must be in
        scope, by the rule the parser applies to declarations."""
        names = self.vars | set(self.consts) | self.lets.keys()
        bad = unbound_symbol(x, names, self.fns, self.lets)
        if bad is not None:
            raise UnboundSymbol(bad)


def _formula_key(f: Formula, N: Normalizer, depth: int = 0) -> tuple:
    if isinstance(f, EqF):
        return ("eq", N.atom_key(f.left), N.atom_key(f.right))
    if isinstance(f, Ne0):
        return ("ne0", N.atom_key(f.arg))
    if isinstance(f, Lt):
        return ("lt", N.atom_key(f.left), N.atom_key(f.right))
    if isinstance(f, (Forall, Exists)):
        binders = f.binders if isinstance(f, Forall) else (f.binder,)
        body = subst(f.body, {b: Var(f"@b{depth + i}") for i, (b, _) in enumerate(binders)})
        return (type(f).__name__, tuple(s for _, s in binders),
                _formula_key(body, N, depth + len(binders)))
    if isinstance(f, Implies):
        return ("imp", _formula_key(f.ante, N, depth),
                _formula_key(f.cons, N, depth))
    if isinstance(f, And):
        return ("and", _formula_key(f.left, N, depth),
                _formula_key(f.right, N, depth))
    if isinstance(f, DivergesLeftAt):
        return ("dvg", f.fn_name, N.atom_key(f.point))
    raise TypeError(f"not a formula: {f!r}")


def _ring_equal(state: _State, g: EqF) -> bool:
    N = Normalizer()
    return N.atom_key(state.unfold(g.left)) == N.atom_key(state.unfold(g.right))


# ---------------------------------------------------------------------------
# step implementations


def _discharge_or_fail(state: _State, ob: Formula) -> None:
    """Discharge ob from the hypotheses or fail the step; a discharged
    obligation is recorded, printed, against the step that raised it."""
    try:
        discharge(state.facts(), ob, state.points)
    except NotDerivable:
        raise ObligationFailed(print_formula(ob)) from None
    state.obligations.append(print_formula(ob))


def _equation(state: _State, needs: str) -> EqF:
    """The goal, which the step that `needs` names requires to be an equation."""
    if not isinstance(state.goal, EqF):
        raise StepFailed(f"{needs} an equational goal")
    return state.goal


def _rewrite_goal(state: _State, goal: Formula, reason: str) -> None:
    """Make goal the goal; a goal that is the same object as before,
    nothing rebuilt, fails the step with reason."""
    if goal is state.goal:
        raise StepFailed(reason)
    state.goal = goal


def _do_rewrite(state: _State, step: RewriteWith) -> None:
    h = state.hyps.get(step.hyp)
    if h is None:
        raise StepFailed(f"unknown hypothesis {step.hyp!r}")
    if not isinstance(h, EqF):
        raise StepFailed(f"hypothesis {step.hyp!r} is not an equation")
    pattern, replacement = (h.right, h.left) if step.reverse else (h.left, h.right)
    N = Normalizer()
    pkey = N.atom_key(state.unfold(pattern))
    # under a series binding a let or a free name of h, that name is not h's
    shadowed = (free_vars(state.unfold(h.left))
                | free_vars(state.unfold(h.right)) | state.lets.keys())
    # counted: a replacement that is the very object it matched rewrites
    total = 0
    unfolded: dict = {}  # id(x) -> (x, x with the lets unfolded)

    def unfold(x: Expr) -> Expr:
        # built from the children's unfolded forms, so that the
        # normalizer meets them again and its identity cache hits
        got = unfolded.get(id(x))
        if got is None:
            u = (map_children(x, unfold) if state.unfolded
                 and isinstance(x, (Add, Sub, Mul, Div, Neg)) else state.unfold(x))
            got = unfolded[id(x)] = (x, u)
        return got[1]

    def rw(x: Expr) -> Expr:
        nonlocal total
        if N.atom_key(unfold(x)) == pkey:
            total += 1
            return replacement
        if isinstance(x, SeriesSum) and x.index in shadowed:
            return x
        return map_children(x, rw)

    if not isinstance(state.goal, (EqF, Lt, Ne0, DivergesLeftAt)):
        raise StepFailed("rewriting needs an unquantified goal")
    state.goal = map_children(state.goal, rw)
    if total == 0:
        side = "right" if step.reverse else "left"
        raise StepFailed(f"no occurrence of the {side}-hand side of {step.hyp!r}")


def _do_unfold(state: _State, step: Unfold) -> None:
    if step.name not in state.lets:
        raise StepFailed(f"{step.name!r} is not a let binding")
    _rewrite_goal(state, subst(state.goal, {step.name: state.lets[step.name]}),
                  f"no occurrence of {step.name!r} in the goal")


def _rational_forms(state: _State, exprs: List[Expr]):
    """The canonical rational forms of exprs, in one table, once the
    `!= 0` obligation of each distinct denominator they cross (a nonzero
    literal needs none) is discharged."""
    R = Normalizer()
    forms = [R.norm(e) for e in exprs]
    distinct: Dict[tuple, Expr] = {}
    for d in R.denominators:
        if not (isinstance(d, Const) and d.value != 0):
            distinct.setdefault(R.atom_key(d), d)
    for d in distinct.values():
        _discharge_or_fail(state, Ne0(d))
    return R, forms


def _do_field_normalize(state: _State, step: FieldNormalize) -> None:
    g = _equation(state, "field_normalize needs")
    R, [(nL, dL), (nR, dR)] = _rational_forms(
        state, [state.unfold(g.left), state.unfold(g.right)])
    state.goal = EqF(R.to_expr(nL * dR), R.to_expr(nR * dL))


def _do_ring(state: _State, step: RingClose) -> None:
    if not _ring_equal(state, _equation(state, "ring needs")):
        raise StepFailed("sides are not equal as ring expressions")
    state.closed = True


def _do_intro(state: _State, step: Intro) -> None:
    for name in step.names:
        g = state.goal
        if not isinstance(g, (Implies, Forall)):
            raise StepFailed(f"nothing to introduce for {name!r}")
        if name in state.all_names():
            raise DuplicateName(f"{name!r} is already in scope")
        if isinstance(g, Implies):
            state.hyps[name] = g.ante
            state.goal = g.cons
        else:
            state.vars.add(name)
            state.goal = instantiate_forall(g, [Var(name)])


def _do_specialize(state: _State, step: Specialize) -> None:
    h = state.hyps.get(step.hyp)
    if h is None:
        raise StepFailed(f"unknown hypothesis {step.hyp!r}")
    for t in step.terms:
        state.check_symbols(t)
    if isinstance(h, Exists):
        # skolemize once, in place: later specializations of the same
        # hypothesis share the witness constant
        b = h.binder[0]
        name = fresh(b, state.all_names())
        state.vars.add(name)
        h = subst(h.body, {b: Var(name)})
        state.hyps[step.hyp] = h
    if not isinstance(h, Forall):
        raise StepFailed(f"hypothesis {step.hyp!r} is not universally quantified")
    try:
        inst = instantiate_forall(h, step.terms)
    except ArityMismatch:
        raise StepFailed(f"too many terms for {step.hyp!r}") from None
    k = 1
    while f"{step.hyp}_{k}" in state.all_names():
        k += 1
    state.hyps[f"{step.hyp}_{k}"] = inst


def _do_use(state: _State, step: ExistsIntro) -> None:
    g = state.goal
    if not isinstance(g, Exists):
        raise StepFailed("use needs an existential goal")
    state.check_symbols(step.witness)
    state.goal = subst(g.body, {g.binder[0]: step.witness})


def _do_apply(state: _State, step: ApplyLemma) -> None:
    entry = (state.pool or {}).get(step.name)
    if entry is None or not entry.accepted:
        raise StepFailed(f"lemma {step.name!r} is not available")
    lem = entry.theory
    lem_lets = unfold_lets(lem.lets)
    N = Normalizer()
    current = {_formula_key(state.unfold(f), N) for f in state.hyps.values()}
    for hn, hf in lem.hyps:
        if _formula_key(subst(hf, lem_lets), N) not in current:
            raise StepFailed(f"hypothesis {hn!r} of {step.name!r} is not present")
    g = state.goal
    lg = subst(lem.goal, lem_lets)
    if isinstance(g, EqF) and isinstance(lg, EqF):
        _, [(ng, dg), (nl, dl)] = _rational_forms(
            state, [Sub(state.unfold(g.left), state.unfold(g.right)),
                    Sub(lg.left, lg.right)])
        if nl.is_zero():
            if not ng.is_zero():
                raise StepFailed(f"lemma {step.name!r} is trivial but the goal is not")
        else:
            q = divexact(ng * dl, nl * dg)
            if q is None:
                raise StepFailed(f"goal difference is not a multiple of {step.name!r}")
        state.closed = True
        return
    if step.name in state.all_names():
        raise DuplicateName(f"{step.name!r} is already in scope")
    state.check_symbols(lg)
    state.hyps[step.name] = lg


def _do_series(state: _State, step: Step) -> None:
    weighted = isinstance(step, SeriesGeomWeighted)
    _equation(state, "series steps need")
    bases: List[Expr] = []
    # a body x^i with no other factor, times i when weighted
    shape = ([], 1 if weighted else 0)

    def walk(e: Expr, bound: frozenset) -> Expr:
        if isinstance(e, SeriesSum) and e.start == 1:
            terms = geometric_terms(e)
            # the obligations on a base cannot speak of an enclosing index
            if terms is not None and terms[:2] == shape \
                    and bound.isdisjoint(free_vars(terms[2])):
                base = terms[2]
                bases.append(base)
                if weighted:
                    return Div(base, Pow(Sub(Const(Fraction(1)), base), 2))
                return Div(base, Sub(Const(Fraction(1)), base))
        return map_children(e, lambda c: walk(c, bound | bound_names(e)))

    kind = "weighted geometric" if weighted else "geometric"
    _rewrite_goal(state, map_children(state.goal, lambda e: walk(e, frozenset())),
                  f"no {kind} series in the goal")
    N = Normalizer()
    distinct: Dict[tuple, Expr] = {}
    for b in bases:
        ub = state.unfold(b)
        distinct.setdefault(N.atom_key(ub), ub)
    for ub in distinct.values():
        _discharge_or_fail(state, Lt(Const(Fraction(0)), ub))
        _discharge_or_fail(state, Lt(ub, Const(Fraction(1))))


def _do_index_shift(state: _State, step: IndexShift) -> None:
    _equation(state, "index_shift needs")

    def walk(e: Expr) -> Expr:
        if isinstance(e, SeriesSum) and e.start == 0:
            head = subst(e.body, {e.index: Const(Fraction(0))})
            return Add(head, SeriesSum(e.index, 1, e.body))
        return map_children(e, walk)

    _rewrite_goal(state, map_children(state.goal, walk), "no zero-based series in the goal")


# where the antiderivative steps compare rates: a name no script can use
_AT = Var("@t")


def _chase(e: Expr, state: _State, hops: int = 3) -> Expr:
    """Follow pointwise definitions: while e is g(@t) and some
    hypothesis says forall w, g(w) = rhs, replace e by rhs[w := @t]."""
    cur = e
    for _ in range(hops):
        if not (isinstance(cur, App) and isinstance(cur.fn, str) and cur.arg == _AT):
            return cur
        d = next((d for d in map(pointwise, state.hyps.values())
                  if d is not None and d[0] == cur.fn), None)
        if d is None:
            return cur
        _, w, rhs = d
        cur = subst(rhs, {w: _AT})
    return cur


def _antideriv_parts(state: _State):
    """Shared analysis for the antiderivative schemas: the goal must be
    forall t, F(t) = rhs with rhs rational over a constant denominator
    and every opaque subterm free of t. Clearing the denominators of rhs
    discharges their `!= 0` obligations."""
    g = state.goal
    if not (isinstance(g, Forall) and len(g.binders) == 1
            and isinstance(g.body, EqF)):
        raise StepFailed("goal must be a single universal equation")
    d = pointwise(state.unfold(g))
    if d is None or not isinstance(d[0], str):
        raise StepFailed("left side must be a function applied to the bound variable")
    F, t, rhs = d
    # a canonical denominator that is constant is 1
    R, [(rhs_p, den)] = _rational_forms(state, [rhs])
    if not den.is_const():
        raise StepFailed("right side must have a constant denominator")
    if t in R.opaque_names(rhs_p):
        raise StepFailed("opaque terms on the right must not involve the bound variable")
    return t, F, R, rhs_p


def _deriv_hyp_matches(state: _State, F: str, t: str, R: Normalizer,
                       want: Poly) -> bool:
    """Is there a hypothesis forall u, deriv(F)(u) = rhs whose chased
    closed form equals `want` (written in the bound variable t) in atom
    mode? Atom-mode equality needs no side condition, so a rate such
    as x / x does not match 1."""
    want_key = R.atom_key(state.unfold(subst(R.to_expr(want), {t: _AT})))
    for d in map(pointwise, state.hyps.values()):
        if d is not None and d[0] == Deriv(F):
            _, u, rhs = d
            closed = _chase(subst(rhs, {u: _AT}), state)
            if R.atom_key(state.unfold(closed)) == want_key:
                return True
    return False


def _do_antideriv_const(state: _State, step: AntiderivConst) -> None:
    t, F, R, rhs_p = _antideriv_parts(state)
    if rhs_p.degree_in(t) > 1:
        raise StepFailed("right side must be linear in the bound variable")
    c1 = rhs_p.coeff_in(t, 1)
    c0 = rhs_p.coeff_in(t, 0)
    f0 = R.atom_poly(App(F, Const(Fraction(0))))
    if c0 != f0:
        raise StepFailed("constant term must be the function's value at zero")
    if not _deriv_hyp_matches(state, F, t, R, c1):
        raise StepFailed(f"no hypothesis gives a constant derivative for {F!r}")
    state.closed = True


def _do_antideriv(state: _State, step: Antideriv) -> None:
    t, F, R, rhs_p = _antideriv_parts(state)
    f0 = R.atom_poly(App(F, Const(Fraction(0))))
    f0_var = next(iter(f0.terms))
    if rhs_p.terms.get(f0_var) != 1:
        raise StepFailed("value at zero must appear exactly once on the right")
    G = rhs_p - f0
    if f0_var[0][0] in G.vars():
        raise StepFailed("value at zero must enter linearly")
    if not G.coeff_in(t, 0).is_zero():
        raise StepFailed("right side must vanish at zero apart from the initial value")
    dG = derivative(G, t)
    if not _deriv_hyp_matches(state, F, t, R, dG):
        raise StepFailed(f"no hypothesis matches the derivative of the right side for {F!r}")
    state.closed = True


# -- divergence witness ------------------------------------------------


def _do_limit_witness(state: _State, step: LimitDivergenceWitness) -> None:
    g = state.goal
    if not isinstance(g, DivergesLeftAt):
        raise StepFailed("limit_witness needs a divergence goal")
    if g.fn_name not in state.lets:
        raise StepFailed(f"{g.fn_name!r} is not a let binding")
    body = state.unfolded[g.fn_name]
    point = state.unfold(g.point)
    pvar, names, facts = divergence_setup(body, point, state.vars, state.consts,
                                          [f for _, f in state.facts()])
    _discharge_or_fail(state, Lt(Const(Fraction(0)), point))
    try:
        envs = witness_envs(names, facts, state.seed)
        for env in envs:
            rep = divergence_witness(body, pvar, eval_expr(point, env), step.depth, env)
            if not rep.verdict:
                raise StepFailed(rep.reason)
    except RejectionStarvation:
        raise StepFailed("no admissible constant assignment found") from None
    except ArithmeticError as e:
        raise StepFailed("the divergence check cannot be evaluated "
                              f"({type(e).__name__})") from None
    state.closed = True
    state.soundness = NUMERIC_CERTIFIED


# ---------------------------------------------------------------------------
# the checker


def _goal_holds(state: _State) -> bool:
    if state.closed:
        return True
    g = state.goal
    if isinstance(g, EqF):
        return _ring_equal(state, g)
    if isinstance(g, (Ne0, Lt)):
        try:
            discharge(state.facts(), state.unfold(g), state.points)
            return True
        except (NotDerivable, SearchBudgetExhausted):
            return False
    return False


_STEPS = {
    RewriteWith: _do_rewrite, Unfold: _do_unfold,
    FieldNormalize: _do_field_normalize, RingClose: _do_ring, Intro: _do_intro,
    Specialize: _do_specialize, ExistsIntro: _do_use, ApplyLemma: _do_apply,
    SeriesGeom: _do_series, SeriesGeomWeighted: _do_series,
    IndexShift: _do_index_shift,
    AntiderivConst: _do_antideriv_const, Antideriv: _do_antideriv,
    LimitDivergenceWitness: _do_limit_witness,
}


def _run_step(state: _State, step: Step) -> None:
    handler = _STEPS.get(type(step))
    if handler is None:
        raise StepFailed(f"unknown step {step!r}")
    handler(state, step)


def check_theory(theory: Theory, pool: Optional[LemmaPool] = None,
                 seed: int = 0) -> CheckResult:
    """Replay the proof of theory. A failure names the step that raised
    it; a goal still open after the last step names none."""
    records: List[StepRecord] = []
    idx = None
    try:
        state = _State(theory, pool, seed)
        for idx, step in enumerate(theory.steps, start=1):
            if state.closed:
                raise StepFailed("goal is already closed")
            state.obligations = []
            _run_step(state, step)
            records.append(StepRecord(print_step(step), print_formula(state.goal),
                                      state.obligations))
        idx = None
        if not _goal_holds(state):
            raise GoalNotClosed("goal not closed after the final step")
    except DerivkitError as e:
        return CheckResult(theory.name, False, SYMBOLIC, records,
                           (idx, f"{type(e).__name__}: {e}"))
    return CheckResult(theory.name, True, state.soundness, records, None)
