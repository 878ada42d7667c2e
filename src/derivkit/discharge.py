"""Automatic discharge of nonzeroness and sign side conditions.

Obligations are closed by structural recursion over the expression,
consulting the hypotheses in scope modulo canonical form. The rules
are deliberately one-directional: every rule concludes its claim from
strictly sufficient premises under the total-division semantics, so a
returned trace is always sound; failure raises NotDerivable, or
SearchBudgetExhausted when an obligation spends its judgement calls
before a rule chain is found.

There are two judgements: `ne0(e)` proves `e != 0`, and
`sign(e, s, strict)` proves `0 < s*e` (strict) or `0 <= s*e` for a sign
`s` of 1 or -1. An obligation `a < b` is `sign(b - a, 1, True)`.

Hypotheses enter as facts of two shapes: nonzeroness keys from `e != 0`
hypotheses, and positivity polynomials `b - a` from `a < b` hypotheses.
All comparisons happen on atom-mode canonical forms, which keep
division, series, and application nodes opaque.

Before a query is searched it is evaluated exactly, by the Fraction
path of `expr.eval_expr`, at a few refutation points: rational
assignments that satisfy every fact. The rules are sound, so a claim
that fails at such a point has no derivation, and the query is refused
without a search. The points can only refuse. They depend on nothing
but the facts and the free names, so a caller that keeps one `points`
dict across a theory's obligations draws them once per fact set.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import NoExactValue, NotDerivable, SearchBudgetExhausted
from .expr import (Add, Div, Expr, Mul, Neg, Pow, SeriesSum, Sub, Var,
                   eval_expr, free_vars)
from .formula import Formula, Lt, Ne0, formula_free_vars, fresh, subst
from .parser import print_formula
from .poly import Poly, divexact
from .ringnorm import Normalizer

_DEPTH = 5
# raw judgement calls one obligation may make; the corpus needs 36 at
# most, and no proof in the tests 1,000 even without refutation points
_BUDGET = 2000
# refutation points per obligation, and draws to find them
_POINTS = 3
_DRAWS = 1000
# the values a point draws from: n/d for |n| <= 8, 1 <= d <= 8
_CANDIDATES = sorted({Fraction(n, d) for n in range(-8, 9) for d in range(1, 9)})

# trace words of the sign judgement, by (s, strict)
_SIGN = {(1, True): "pos", (-1, True): "neg",
         (1, False): "nonneg", (-1, False): "nonpos"}
# the product rule's name, by (s, strict) and the left factor's sign
_PRODUCT = {
    (1, True): {1: "both-pos", -1: "both-neg"},
    (-1, True): {1: "pos-neg", -1: "neg-pos"},
    (1, False): {1: "both-nonneg", -1: "both-nonpos"},
    (-1, False): {1: "nonneg-nonpos", -1: "nonpos-nonneg"},
}


def _signed_terms(e: Expr, sign: int = 1):
    if isinstance(e, Add):
        return _signed_terms(e.left, sign) + _signed_terms(e.right, sign)
    if isinstance(e, Sub):
        return _signed_terms(e.left, sign) + _signed_terms(e.right, -sign)
    if isinstance(e, Neg):
        return _signed_terms(e.arg, -sign)
    return [(sign, e)]


def _point_key(facts: List[Tuple[str, Formula]], goal: Expr) -> tuple:
    """The inputs of `_refutation_points`: Lt sides, Ne0 args, names."""
    pos = tuple(Sub(f.right, f.left) for _, f in facts if isinstance(f, Lt))
    ne0 = tuple(f.arg for _, f in facts if isinstance(f, Ne0))
    return pos, ne0, tuple(sorted(free_vars(goal).union(*map(free_vars, pos + ne0))))


def _refutation_points(facts: List[Tuple[str, Formula]],
                       goal: Expr) -> List[Dict[str, Fraction]]:
    """Up to _POINTS assignments to the variables of the facts and goal
    under which every `Lt` fact holds strictly and every `Ne0` fact
    holds, by rejection sampling from a fixed seed. There are none when
    a fact has a node exact evaluation does not take."""
    pos, ne0, names = _point_key(facts, goal)
    rng = random.Random(0)
    points = []
    try:
        for _ in range(_DRAWS):
            pt = {n: rng.choice(_CANDIDATES) for n in names}
            if all(eval_expr(e, pt, exact=True) > 0 for e in pos) \
                    and all(eval_expr(e, pt, exact=True) for e in ne0):
                points.append(pt)
                if len(points) == _POINTS:
                    break
    except NoExactValue:
        return []
    return points


class _Discharger:
    def __init__(self, facts: List[Tuple[str, Formula]], goal: Expr,
                 points: Optional[dict] = None):
        self.N = Normalizer()
        self.ne0_facts: List[Tuple[str, tuple]] = []
        self.pos_facts: List[Tuple[str, Poly]] = []
        self.nonneg_vars: set = set()
        self._scope: tuple = ()
        self._hit: dict = {}
        self._miss: dict = {}
        self._active: set = set()
        points = {} if points is None else points
        key = _point_key(facts, goal)
        if key not in points:
            points[key] = _refutation_points(facts, goal)
        self.points = points[key]
        # raw judgement calls, the size of the search
        self.raw_calls = 0
        # the names the facts and the enclosing series indices speak of
        self.names = set().union(*(formula_free_vars(f) for _, f in facts))
        for name, f in facts:
            if isinstance(f, Ne0):
                self.ne0_facts.append((name, self.N.atom_key(f.arg)))
            elif isinstance(f, Lt):
                self.pos_facts.append((name, self.N.atom_poly(Sub(f.right, f.left))))

    def _refuted(self, kind, e: Expr) -> bool:
        """The claim fails at a refutation point. A series index in
        scope has no value there, so inside a series nothing is refuted."""
        if not self.points or self._scope:
            return False
        try:
            vals = [eval_expr(e, pt, exact=True) for pt in self.points]
        except NoExactValue:
            return False
        if kind == "ne0":
            return 0 in vals
        s, strict = kind
        return any(s * v <= 0 if strict else s * v < 0 for v in vals)

    def _memo(self, kind, e: Expr, depth: int, raw, *args) -> Optional[str]:
        """Memoize a judgement's queries on the canonical polynomial.

        A success holds at any depth and for any expression with the
        same canonical form. A failure only rules out retries at equal
        or lower depth for the same node, since some rules are
        shape-directed. The active set breaks self-referential loops."""
        if self._refuted(kind, e):
            return None
        pk = (kind, self._scope, self.N.atom_key(e))
        got = self._hit.get(pk)
        if got is not None:
            return got
        mk = (e,) + pk
        failed_at = self._miss.get(mk)
        if failed_at is not None and failed_at >= depth:
            return None
        if mk in self._active:
            return None
        self.raw_calls += 1
        if self.raw_calls > _BUDGET:
            raise SearchBudgetExhausted()
        self._active.add(mk)
        try:
            out = raw(e, depth, *args)
        finally:
            self._active.discard(mk)
        if out is not None:
            self._hit[pk] = out
        else:
            self._miss[mk] = max(depth, failed_at or 0)
        return out

    def ne0(self, e: Expr, depth: int) -> Optional[str]:
        return self._memo("ne0", e, depth, self._ne0_raw)

    def sign(self, e: Expr, s: int, strict: bool, depth: int) -> Optional[str]:
        return self._memo((s, strict), e, depth, self._sign_raw, s, strict)

    # -- e != 0 --------------------------------------------------------

    def _ne0_raw(self, e: Expr, depth: int) -> Optional[str]:
        p = self.N.atom_poly(e)
        if p.is_const():
            return "literal" if p.const_value() != 0 else None
        key = p.key()
        for name, fk in self.ne0_facts:
            if fk == key:
                return f"hyp {name}"
        if isinstance(e, Neg):
            t = self.ne0(e.arg, depth)
            if t:
                return f"neg({t})"
        if isinstance(e, (Mul, Div)):
            tl = self.ne0(e.left, depth)
            tr = self.ne0(e.right, depth) if tl else None
            if tl and tr:
                return f"factors({tl}; {tr})"
        if isinstance(e, Pow) and isinstance(e.exp, int):
            t = self.ne0(e.base, depth)
            if t:
                return f"pow({t})"
        t = self.sign(e, 1, True, depth)
        if t:
            return f"pos({t})"
        t = self.sign(e, -1, True, depth)
        if t:
            return f"neg-sign({t})"
        if depth > 0:
            cs = self._content_split(p)
            if cs is not None:
                me, qe = cs
                tm = self.ne0(me, depth - 1)
                tq = self.ne0(qe, depth - 1) if tm else None
                if tm and tq:
                    return f"content({tm}; {tq})"
            split = self._rat_split(e)
            if split is not None:
                ne, de = split
                tn = self.ne0(ne, depth - 1)
                td = self.ne0(de, depth - 1) if tn else None
                if tn and td:
                    return f"quotient({tn}; {td})"
        return None

    # -- 0 < s*e, 0 <= s*e ----------------------------------------------

    def _sign_raw(self, e: Expr, depth: int, s: int, strict: bool) -> Optional[str]:
        p = self.N.atom_poly(e)
        if p.is_const():
            c = s * p.const_value()
            return "literal" if (c > 0 if strict else c >= 0) else None
        if strict:
            # a fact 0 < fp closes 0 < s*e when s*fp is e; facts are
            # small, so flipping a fact is cheaper than flipping e
            for name, fp in self.pos_facts:
                if (fp if s > 0 else fp.scale(-1)) == p:
                    return f"hyp {name}"
        else:
            if s > 0 and isinstance(e, Var) and e.name in self.nonneg_vars:
                return "index"
            # the strict judgement also settles the nonstrict one
            t = self.sign(e, s, True, depth)
            if t:
                return t
        if isinstance(e, Neg):
            t = self.sign(e.arg, -s, strict, depth)
            if t:
                return f"negate({t})"
        if isinstance(e, (Mul, Div)):
            pair = self._pair(e.left, e.right, s, strict, depth)
            if pair:
                ls, tl, tr = pair
                return f"{_PRODUCT[s, strict][ls]}({tl}; {tr})"
        if isinstance(e, Pow):
            if isinstance(e.exp, str):
                if s > 0:
                    t = self.sign(e.base, 1, strict, depth)
                    if t:
                        return f"pow-base({t})"
            elif e.exp % 2 == 1:
                t = self.sign(e.base, s, strict, depth)
                if t:
                    return f"odd-pow({t})"
            elif s > 0:
                if not strict:
                    return "even-pow"
                t = self.ne0(e.base, depth)
                if t:
                    return f"even-pow({t})"
        # from a start of 0 the index may be 0, so only 0 <= e uses it
        if isinstance(e, SeriesSum) and s > 0 and (e.start == 1 or not strict):
            t = self._series_terms(e, strict, depth)
            if t:
                return f"series-terms({t})"
        if isinstance(e, (Add, Sub)):
            t = self._terms(e, s, strict, depth)
            if t:
                return t
        # the rules below prove only 0 < e
        if not (strict and s > 0):
            return None
        if isinstance(e, Var):
            t = self._extract_factor(e.name, depth)
            if t:
                return t
        if depth > 0:
            for name, fp in self.pos_facts:
                diff = self.N.to_expr(p - fp)
                t = self.sign(diff, 1, False, depth - 1)
                if t:
                    return f"above({name}; {t})"
            cs = self._content_split(p)
            if cs is not None:
                pair = self._pair(*cs, 1, True, depth - 1)
                if pair:
                    ls, tm, tq = pair
                    return f"content-{_SIGN[ls, True]}({tm}; {tq})"
            split = self._rat_split(e)
            if split is not None:
                pair = self._pair(*split, 1, True, depth - 1)
                if pair:
                    ls, tn, td = pair
                    return f"quotient-{_SIGN[ls, True]}({tn}; {td})"
        return None

    # -- helpers ---------------------------------------------------------

    def _pair(self, left: Expr, right: Expr, s: int, strict: bool, depth: int):
        """Sign s of left*right (or left/right): the left factor with sign
        ls, 1 before -1, and the right one with ls*s."""
        for ls in (1, -1):
            tl = self.sign(left, ls, strict, depth)
            if tl:
                tr = self.sign(right, ls * s, strict, depth)
                if tr:
                    return ls, tl, tr
        return None

    def _series_terms(self, e: SeriesSum, strict: bool, depth: int) -> Optional[str]:
        """Every term's sign, with the index known nonnegative from a
        start of 0 and positive otherwise. An index that a fact or an
        enclosing series speaks of is renamed apart first."""
        i = fresh(e.index, self.names | free_vars(e))
        body = e.body if i == e.index else subst(e.body, {e.index: Var(i)})
        self.names.add(i)
        if e.start == 0:
            self.nonneg_vars.add(i)
            self._scope += (("inn", i),)
        else:
            self.pos_facts.append(("index", Poly.var(i)))
            self._scope += (("ipos", i),)
        try:
            return self.sign(body, 1, strict, depth)
        finally:
            self.names.discard(i)
            if e.start == 0:
                self.nonneg_vars.discard(i)
            else:
                self.pos_facts.pop()
            self._scope = self._scope[:-1]

    def _terms(self, e: Expr, s: int, strict: bool, depth: int) -> Optional[str]:
        """Every term nonstrict with its sign; when strict, also one term
        strict, the first one found. A nonstrict trace lists each term's."""
        found = None
        traces = []
        for ts, term in _signed_terms(e):
            t = self.sign(term, s * ts, False, depth)
            if t is None:
                return None
            traces.append(t)
            if strict and found is None:
                found = self.sign(term, s * ts, True, depth)
        if not strict:
            return f"sum-{_SIGN[s, False]}({'; '.join(traces)})"
        if found:
            return f"sum-{_SIGN[s, True]}({found})"
        return None

    def _extract_factor(self, var: str, depth: int) -> Optional[str]:
        """A bare variable is positive when some positive fact factors
        as var * rest with rest itself positive."""
        if depth <= 0:
            return None
        v = Poly.var(var)
        for name, fp in self.pos_facts:
            q = divexact(fp, v)
            if q is None or var in q.vars():
                continue
            t = self.sign(self.N.to_expr(q), 1, True, depth - 1)
            if t:
                return f"factor-of({name}; {t})"
        return None

    def _content_split(self, p: Poly):
        """Factor out the common monomial of all terms, if any."""
        monos = list(p.terms)
        if len(monos) < 2:
            return None
        common = dict(monos[0])
        for m in monos[1:]:
            exps = dict(m)
            for v in list(common):
                k = min(common[v], exps.get(v, 0))
                if k <= 0:
                    del common[v]
                else:
                    common[v] = k
            if not common:
                return None
        mono = tuple(sorted(common.items()))
        mpoly = Poly({mono: 1})
        q = divexact(p, mpoly)
        if q is None:
            return None
        return self.N.to_expr(mpoly), self.N.to_expr(q)

    def _rat_split(self, e: Expr):
        R = Normalizer()
        n, d = R.norm_raw(e)
        if d.is_const():
            return None
        return R.to_expr(n), R.to_expr(d)


def discharge(facts: List[Tuple[str, Formula]], ob: Formula,
              points: Optional[dict] = None) -> str:
    """Close a Ne0 or Lt obligation from the given facts.

    Returns the rule trace; raises NotDerivable when no rule chain
    applies, and SearchBudgetExhausted when the search runs out first.
    `points`, refutation points by `_point_key`, is a dict the caller
    may keep across related obligations.
    """
    try:
        if isinstance(ob, Ne0):
            t = _Discharger(facts, ob.arg, points).ne0(ob.arg, _DEPTH)
        elif isinstance(ob, Lt):
            goal = Sub(ob.right, ob.left)
            t = _Discharger(facts, goal, points).sign(goal, 1, True, _DEPTH)
        else:
            t = None
    except SearchBudgetExhausted:
        raise SearchBudgetExhausted(
            f"{print_formula(ob)}: search budget of {_BUDGET} judgement calls "
            "used up") from None
    if t is None:
        raise NotDerivable(repr(ob))
    return t
