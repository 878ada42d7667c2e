"""Side-condition discharge rules and their failure behavior."""

from fractions import Fraction

import pytest

import derivkit.discharge as D
from derivkit.discharge import discharge
from derivkit.errors import NoExactValue, NotDerivable, SearchBudgetExhausted
from derivkit.expr import (Add, App, Const, Div, Mul, Neg, Pow, SeriesSum, Sub,
                           Var, eval_expr)
from derivkit.formula import Lt, Ne0

import gen_obligations

x, y, k = Var("x"), Var("y"), Var("k")
POS_X = [("hx", Lt(Const(0), x))]
POS_XY = POS_X + [("hy", Lt(Const(0), y))]


def ok(facts, ob):
    return discharge(facts, ob)


def refuse(facts, ob):
    with pytest.raises(NotDerivable):
        discharge(facts, ob)


def test_literal_constants():
    assert ok([], Ne0(Const(3)))
    assert ok([], Lt(Const(0), Const(2)))
    assert ok([], Lt(Const(-1), Const(1)))
    refuse([], Ne0(Const(0)))
    refuse([], Lt(Const(0), Const(0)))


def test_constant_valued_composites():
    assert ok([], Lt(Const(0), Add(Const(1), Mul(Const(0), x))))
    assert ok([], Ne0(Sub(Const(5), Const(3))))


def test_hypothesis_lookup_mod_ring():
    assert "hx" in ok(POS_X, Lt(Const(0), x))
    assert ok([("h", Ne0(Mul(x, y)))], Ne0(Mul(y, x)))
    assert "hx" in ok(POS_X, Lt(Neg(x), Const(0)))


def test_products_and_quotients():
    assert ok(POS_XY, Lt(Const(0), Mul(x, y)))
    assert ok(POS_XY, Lt(Const(0), Div(x, y)))
    assert ok(POS_XY, Ne0(Div(x, y)))
    neg_facts = [("hx", Lt(x, Const(0))), ("hy", Lt(y, Const(0)))]
    assert ok(neg_facts, Lt(Const(0), Mul(x, y)))
    refuse([("hx", Lt(Const(0), x))], Lt(Const(0), Mul(x, y)))


def test_even_powers():
    assert ok([("h", Ne0(x))], Lt(Const(0), Pow(x, 2)))
    assert ok([("h", Ne0(x))], Ne0(Pow(x, 4)))
    refuse([], Lt(Const(0), Pow(x, 2)))


def test_sum_of_positives():
    assert ok(POS_XY, Lt(Const(0), Add(x, y)))
    assert ok(POS_X, Lt(Const(0), Add(x, Const(1))))
    assert ok(POS_X, Lt(Const(0), Sub(Add(x, Const(3)), Const(2))))
    refuse(POS_X, Lt(Const(0), Sub(x, Const(1))))


def test_subtracting_a_positive_fact():
    facts = POS_X + [("hlt", Lt(x, Const(1)))]
    assert ok(facts, Lt(Const(0), Sub(Const(1), x)))
    assert ok(facts, Ne0(Sub(Const(1), x)))
    two_minus = Sub(Const(2), x)
    assert ok(facts, Lt(Const(0), two_minus))


def test_series_terms_positive():
    s = SeriesSum("i", 1, Mul(Var("i"), Pow(x, "i")))
    assert ok(POS_X, Lt(Const(0), s))
    s0 = SeriesSum("i", 1, Pow(x, "i"))
    assert ok(POS_X, Ne0(s0))
    refuse([], Lt(Const(0), s))


def test_monomial_content_extraction():
    cl, c1, p = Var("cl"), Var("c1"), Var("p")
    facts = [("hcl", Lt(Const(0), cl)), ("hc1", Lt(Const(0), c1)),
             ("hx2", Lt(Const(0), Mul(cl, p))), ("hx1", Lt(Mul(cl, p), Const(1)))]
    grouped = Add(Sub(Const(1), Mul(cl, p)), Mul(c1, p))
    assert ok(facts, Lt(Const(0), grouped))
    expanded = Add(Sub(cl, Mul(Mul(cl, cl), p)), Mul(Mul(c1, cl), p))
    assert ok(facts, Lt(Const(0), expanded))
    assert ok(facts, Ne0(expanded))


def test_quotient_split():
    facts = POS_XY
    e = Div(Add(x, y), y)
    assert ok(facts, Lt(Const(0), e))


def test_unknown_goals_refused():
    refuse([], Ne0(x))
    refuse(POS_X, Lt(Const(0), y))
    refuse([("h", Ne0(x))], Lt(Const(0), x))


def test_trace_mentions_rule_chain():
    t = ok(POS_XY, Lt(Const(0), Mul(x, y)))
    assert "hx" in t and "hy" in t


# -- one obligation per sign rule, with the exact trace ----------------

a, b, v, w, z, i = (Var(n) for n in "abvwzi")


def gt0(name, e):
    return (name, Lt(Const(0), e))


def lt0(name, e):
    return (name, Lt(e, Const(0)))


def lt1(name, e):
    return (name, Lt(e, Const(1)))


def pos(e):
    return Lt(Const(0), e)


def sq(e):
    return Pow(e, 2)


hx, hy, hz = gt0("hx", x), gt0("hy", y), gt0("hz", z)
hbn, hxn, hyn, hzn = lt0("hbn", b), lt0("hxn", x), lt0("hyn", y), lt0("hzn", z)
hw1, hx1, hy1 = lt1("hw1", w), lt1("hx1", x), lt1("hy1", y)
nx = ("nx", Ne0(x))
one_minus_w, one_minus_x = Sub(Const(1), w), Sub(Const(1), x)

# (rule, facts, obligation, trace; None when refused). A goal `0 < e` is
# searched as `0 < e - 0`, so most traces start with `sum-pos`. Sums keep
# only the trace of their strict term, so the nonstrict rules show under
# `above`, whose difference is rebuilt as a sum of monomials; a quotient
# `a/b` is `a * (1/b)`, and the reciprocal keeps its written denominator.
SIGN_RULES = [
    # 0 < e
    ("pos-literal", [], pos(Const(2)), "literal"),
    ("pos-hyp", [hx], pos(x), "hyp hx"),
    ("pos-negate", [hxn, hy, hz], pos(Mul(Neg(Mul(x, y)), z)),
     "sum-pos(both-pos(negate(neg-pos(hyp hxn; hyp hy)); hyp hz))"),
    ("pos-both-pos", [hx, hy], pos(Mul(x, y)), "sum-pos(both-pos(hyp hx; hyp hy))"),
    ("pos-both-neg", [hxn, hyn], pos(Mul(x, y)), "sum-pos(both-neg(hyp hxn; hyp hyn))"),
    ("pos-pow-base", [hx], pos(Pow(x, "n")), "sum-pos(pow-base(hyp hx))"),
    ("pos-even-pow", [nx], pos(sq(x)), "sum-pos(even-pow(hyp nx))"),
    ("pos-odd-pow", [hx], pos(Pow(x, 3)), "sum-pos(odd-pow(hyp hx))"),
    ("pos-series-terms", [hx], pos(SeriesSum("i", 1, Mul(i, Pow(x, "i")))),
     "sum-pos(series-terms(both-pos(hyp index; pow-base(hyp hx))))"),
    ("pos-series-terms-refused", [], pos(SeriesSum("i", 1, Mul(i, Pow(x, "i")))), None),
    ("pos-series-from-0-refused", [hx], pos(SeriesSum("i", 0, Pow(x, "i"))), None),
    ("pos-sum-pos", [hx], pos(Add(x, Const(1))), "sum-pos(hyp hx)"),
    ("pos-factor-of", [gt0("hxy", Mul(x, y)), hy], pos(x),
     "sum-pos(factor-of(hxy; hyp hy))"),
    ("pos-above", [hx1], pos(Sub(Const(2), x)), "above(hx1; literal)"),
    ("pos-content-pos", [hx, hy1], pos(Sub(x, Mul(x, y))),
     "content-pos(hyp hx; hyp hy1)"),
    ("pos-content-neg", [hxn, hy1], pos(Sub(Mul(x, y), x)),
     "content-neg(hyp hxn; hyp hy1)"),
    ("pos-content-pos-of-quotients", [hy, hx1], pos(Sub(Div(Const(1), y), Div(x, y))),
     "content-pos(both-pos(literal; hyp hy); hyp hx1)"),
    ("pos-quotient-pos-split", [hy, lt1("hxy1", Mul(x, y))], pos(Sub(Div(Const(1), y), x)),
     "quotient-pos(hyp hxy1; hyp hy)"),
    ("pos-quotient-neg", [hxn, hzn], pos(Sub(Add(Div(x, z), Div(y, z)), Div(y, z))),
     "quotient-neg(neg-pos(hyp hxn; even-pow(neg-sign(hyp hzn))); odd-pow(hyp hzn))"),
    # e < 0
    ("neg-literal", [hxn], pos(Mul(x, Const(-2))), "sum-pos(both-neg(hyp hxn; literal))"),
    ("neg-negate", [hx, hy, hzn], pos(Mul(Neg(Mul(x, y)), z)),
     "sum-pos(both-neg(negate(both-pos(hyp hx; hyp hy)); hyp hzn))"),
    ("neg-pos-neg", [hx, hyn], Lt(Mul(x, y), Const(0)),
     "sum-pos(pos-neg(hyp hx; hyp hyn))"),
    ("neg-neg-pos", [hxn, hy], Lt(Mul(x, y), Const(0)),
     "sum-pos(neg-pos(hyp hxn; hyp hy))"),
    ("neg-odd-pow", [hxn], Lt(Pow(x, 3), Const(0)), "sum-pos(odd-pow(hyp hxn))"),
    ("neg-sum-neg", [hxn, hyn, hzn], pos(Mul(Add(x, y), z)),
     "sum-pos(both-neg(sum-neg(hyp hxn); hyp hzn))"),
    # 0 <= e
    ("nonneg-literal-and-pos", [hx, hyn], pos(Sub(Const(1), Mul(x, y))), "sum-pos(literal)"),
    ("nonneg-index", [hx1], pos(Add(one_minus_x, Pow(SeriesSum("i", 0, i), 3))),
     "above(hx1; odd-pow(series-terms(index)))"),
    ("nonneg-index-in-sum", [hx],
     pos(Add(Const(1), SeriesSum("i", 0, Mul(i, Pow(x, "i"))))), "sum-pos(literal)"),
    ("nonneg-index-refused", [],
     pos(Add(Const(1), SeriesSum("i", 0, Mul(i, Pow(x, "i"))))), None),
    ("nonneg-series-terms-from-1", [hx1],
     pos(Add(one_minus_x, SeriesSum("i", 1, Mul(sq(y), i)))),
     "above(hx1; series-terms(both-nonneg(hyp index; even-pow)))"),
    ("nonneg-pow-base", [hx1], pos(Add(one_minus_x, Pow(sq(y), "n"))),
     "above(hx1; pow-base(even-pow))"),
    ("nonneg-even-pow", [hx1], pos(Add(one_minus_x, sq(y))), "above(hx1; even-pow)"),
    ("nonneg-both-nonneg", [hx1, hz], pos(Add(one_minus_x, Mul(sq(y), z))),
     "above(hx1; both-nonneg(even-pow; hyp hz))"),
    ("nonneg-both-nonpos", [hw1, hxn, hyn], pos(Add(one_minus_w, Mul(Mul(Mul(a, a), x), y))),
     "above(hw1; both-nonpos(nonneg-nonpos(even-pow; hyp hxn); hyp hyn))"),
    ("nonneg-negate", [hx1, hzn], pos(Sub(one_minus_x, Mul(z, sq(y)))),
     "above(hx1; negate(nonneg-nonpos(even-pow; hyp hzn)))"),
    ("nonneg-sum-nonneg", [hx1], pos(Add(one_minus_x, Add(sq(y), sq(z)))),
     "above(hx1; sum-nonneg(even-pow; even-pow))"),
    # e <= 0
    ("nonpos-nonneg-pos-neg-both-pos", [hw1, hxn, hz],
     pos(Add(one_minus_w, Div(Mul(x, Neg(sq(y))), z))),
     "above(hw1; negate(nonpos-nonneg(pos-neg(both-pos(literal; hyp hz); hyp hxn); "
     "even-pow)))"),
    ("nonpos-nonneg-neg-pos", [hw1, hx, hzn], pos(Add(one_minus_w, Div(Mul(x, Neg(sq(y))), z))),
     "above(hw1; negate(nonpos-nonneg(neg-pos(pos-neg(literal; hyp hzn); hyp hx); "
     "even-pow)))"),
    ("nonpos-nonpos-nonneg", [hx1, hbn], pos(Sub(one_minus_x, Mul(b, sq(y)))),
     "above(hx1; negate(nonpos-nonneg(hyp hbn; even-pow)))"),
    ("nonpos-nonneg-pos-neg", [hw1, hz], pos(Add(one_minus_w, Div(Pow(Neg(sq(y)), 3), Neg(z)))),
     "above(hw1; negate(nonpos-nonneg(pos-neg(literal; hyp hz); even-pow)))"),
    ("nonpos-odd-pow-denominator", [hw1],
     pos(Sub(one_minus_w, Div(Const(1), Pow(Neg(sq(y)), 3)))),
     "above(hw1; negate(nonneg-nonpos(literal; odd-pow(negate(even-pow)))))"),
    ("nonpos-nonneg-by-node", [hx1, hxn], pos(Sub(one_minus_x, Mul(Mul(x, y), y))),
     "above(hx1; negate(nonpos-nonneg(hyp hxn; even-pow)))"),
    ("nonneg-sum-nonneg-of-quotient", [hw1, hxn, hz],
     pos(Add(one_minus_w, Div(Mul(x, Add(Neg(sq(y)), Neg(sq(v)))), z))),
     "above(hw1; sum-nonneg(nonneg-nonpos(both-nonneg(both-pos(literal; hyp hz); "
     "even-pow); hyp hxn); nonpos-nonneg(pos-neg(both-pos(literal; hyp hz); hyp hxn); "
     "even-pow)))"),
    ("nonpos-sum-nonpos-denominator", [hw1, hxn],
     pos(Add(one_minus_w, Div(x, Add(Neg(sq(y)), Neg(sq(v)))))),
     "above(hw1; both-nonpos(nonneg-nonpos(literal; sum-nonpos(even-pow; even-pow)); "
     "hyp hxn))"),
    # a rule that holds for one sign only must not answer for another
    ("neg-no-factor-of", [gt0("hxy", Mul(x, y)), hy], Lt(x, Const(0)), None),
    ("neg-no-above", [hx], Lt(x, Const(0)), None),
    ("neg-no-pow-base", [hx], Lt(Pow(x, "n"), Const(0)), None),
    ("neg-no-even-pow", [nx], Lt(sq(x), Const(0)), None),
    ("nonpos-no-even-pow", [], Lt(sq(y), Const(1)), None),
    ("neg-no-series-terms", [hx, hx1], Lt(SeriesSum("i", 1, Pow(x, "i")), Const(0)), None),
    ("nonpos-no-index", [hx1], pos(Add(one_minus_x, SeriesSum("i", 0, Neg(i)))), None),
    # e != 0
    ("ne0-literal", [], Ne0(Const(3)), "literal"),
    ("ne0-hyp", [nx], Ne0(x), "hyp nx"),
    ("ne0-factors", [hx, nx], Ne0(Mul(x, Div(Const(1), x))),
     "factors(hyp nx; factors(literal; hyp nx))"),
    ("ne0-neg", [hx], Ne0(Neg(Mul(x, x))), "neg(factors(pos(hyp hx); pos(hyp hx)))"),
    ("ne0-pow", [nx], Ne0(Pow(x, 3)), "pow(hyp nx)"),
    ("ne0-neg-sign", [hxn], Ne0(x), "neg-sign(hyp hxn)"),
    ("ne0-content", [nx, ("ny1", Ne0(Add(y, Const(1))))], Ne0(Add(Mul(x, y), x)),
     "content(hyp nx; hyp ny1)"),
    ("ne0-content-of-quotients", [("ny", Ne0(y)), ("n1x", Ne0(one_minus_x))],
     Ne0(Sub(Div(Const(1), y), Div(x, y))),
     "content(factors(literal; hyp ny); hyp n1x)"),
    ("ne0-quotient-split", [("ny", Ne0(y)), ("n1xy", Ne0(Sub(Const(1), Mul(x, y))))],
     Ne0(Sub(Div(Const(1), y), x)), "quotient(hyp n1xy; hyp ny)"),
]


@pytest.mark.parametrize("facts,ob,trace", [r[1:] for r in SIGN_RULES],
                         ids=[r[0] for r in SIGN_RULES])
def test_rule_trace(facts, ob, trace):
    if trace is None:
        refuse(facts, ob)
    else:
        assert ok(facts, ob) == trace


# -- refutation points -------------------------------------------------


def _outcome(facts, ob):
    try:
        return discharge(facts, ob)
    except (NotDerivable, SearchBudgetExhausted):
        return None


def _goal(ob):
    return ob.arg if isinstance(ob, Ne0) else Sub(ob.right, ob.left)


def test_refutation_points_change_no_trace_and_hold_for_every_proof(monkeypatch):
    cases = [r[1:3] for r in SIGN_RULES] + gen_obligations.cases(0, 50, 2)
    points = [D._refutation_points(facts, _goal(ob)) for facts, ob in cases]
    live = [_outcome(facts, ob) for facts, ob in cases]
    monkeypatch.setattr(D, "_refutation_points", lambda facts, goal: [])
    searched = [_outcome(facts, ob) for facts, ob in cases]
    assert live == searched
    assert sum(t is not None for t in live) >= 60
    # the generated facts hold at a witness, so points are found for them
    assert all(len(pts) == D._POINTS for pts in points[len(SIGN_RULES):])
    for (facts, ob), t, pts in zip(cases, live, points):
        for point in pts:
            assert all(gen_obligations.holds(f, point) for _, f in facts)
            if t is None:
                continue
            try:
                true_there = gen_obligations.holds(ob, point)
            except ValueError:
                continue  # a series or symbolic power has no value here
            assert true_there, (ob, point, t)


def _search(facts, ob, points):
    """The trace, or None, and the raw judgement calls of one search."""
    goal = _goal(ob)
    d = D._Discharger(facts, goal, points)
    try:
        t = d.ne0(goal, D._DEPTH) if isinstance(ob, Ne0) else \
            d.sign(goal, 1, True, D._DEPTH)
    except SearchBudgetExhausted:
        t = "budget"
    return t, d.raw_calls


def test_shared_points_leave_every_search_unchanged():
    cases = [r[1:3] for r in SIGN_RULES] + gen_obligations.cases(0, 50, 2)
    fresh = [_search(facts, ob, None) for facts, ob in cases]
    points = {}
    for _ in range(2):  # the second pass finds every fact set drawn
        assert [_search(facts, ob, points) for facts, ob in cases] == fresh
    assert len(points) <= len(cases)


def test_shared_points_equal_fresh_ones_for_the_corpus_and_its_mutants(monkeypatch):
    """Every search of build_pool(0) and of the 68 single-hypothesis
    mutants of the builtins uses the points a fresh draw gives, and the
    kernel draws them fewer times than it searches."""
    from derivkit.kernel import check_theory
    from derivkit.parser import parse_theory
    from derivkit.theories import build_pool, registry

    used, draws = [], [0]
    init, draw = D._Discharger.__init__, D._refutation_points

    def recording_init(self, facts, goal, points=None):
        init(self, facts, goal, points)
        used.append((facts, goal, self.points))

    def counted(facts, goal):
        draws[0] += 1
        return draw(facts, goal)

    monkeypatch.setattr(D._Discharger, "__init__", recording_init)
    monkeypatch.setattr(D, "_refutation_points", counted)
    pool, _ = build_pool(0)
    mutants = 0
    for entry in registry():
        th = parse_theory(entry.script)
        for k in range(len(th.hyps)):
            check_theory(th.replace(hyps=th.hyps[:k] + th.hyps[k + 1:]), dict(pool))
            mutants += 1
    assert mutants == 68
    assert draws[0] < len(used)
    for facts, goal, points in used:
        assert points == draw(facts, goal)


def test_no_refutation_points_from_contradictory_facts():
    d = D._Discharger([hx, hxn], x)
    assert d.points == []
    assert d.sign(x, 1, True, D._DEPTH) == "hyp hx"


def test_refutation_skips_what_it_cannot_evaluate():
    d = D._Discharger([hx], x)
    assert len(d.points) == 3
    assert d._refuted((1, True), Neg(x))
    assert not d._refuted((1, True), SeriesSum("i", 1, Neg(Pow(x, "i"))))
    assert not d._refuted((1, True), Neg(Pow(x, 13)))
    assert d._refuted((1, True), Neg(Pow(x, 12)))
    assert d._refuted("ne0", Sub(x, x))
    assert d._refuted((-1, False), x)
    assert not d._refuted((1, False), Mul(x, Const(0)))
    # a zero denominator gives 0, so 0 < x/(x - x) is false everywhere
    assert d._refuted((1, True), Div(x, Sub(x, x)))
    d._scope = (("ipos", "i"),)
    assert not d._refuted((1, True), Neg(x))


def test_exact_value_is_total():
    # the exact path of eval_expr, which the refutation points use
    pt = {"x": Fraction(0), "y": Fraction(-3, 2)}

    def value(e):
        v = eval_expr(e, pt, exact=True)
        assert type(v) is Fraction
        return v

    assert value(Div(y, x)) == 0
    assert value(Pow(x, -2)) == 0
    assert value(Pow(x, 0)) == 1
    assert value(Sub(Pow(y, -1), Neg(Mul(y, y)))) == Fraction(-2, 3) + Fraction(9, 4)
    assert value(Pow(y, -12)) == Fraction(2, 3) ** 12
    # leaves come back as they are, not copied
    assert eval_expr(y, pt, exact=True) is pt["y"]
    for declined in (SeriesSum("i", 1, Pow(y, "i")), Pow(y, 13), Pow(y, -13),
                     Pow(y, "i"), App("f", y), Var("z")):
        with pytest.raises(NoExactValue):
            eval_expr(Add(Const(1), declined), pt, exact=True)


def test_search_effort_of_the_slowest_corpus_obligation():
    """brunauer_28_from_seq's `(1/C_L - P) * (1 + ...) != 0`, which took
    9,397 raw judgement calls before false queries were refuted."""
    cl, c1, p, s0 = Var("C_L"), Var("C_1"), Var("P"), Var("s_0")
    one = Const(1)
    facts = [gt0("hCL", cl), gt0("hC1", c1), gt0("hs0", s0),
             lt1("hx1", Mul(cl, p)), gt0("hx2", Mul(cl, p))]
    goal = Mul(Sub(Div(one, cl), p),
               Add(one, Mul(Sub(Div(c1, cl), one), Div(p, Div(one, cl)))))
    d = D._Discharger(facts, goal)
    assert d.ne0(goal, D._DEPTH) == (
        "factors(pos(quotient-pos(hyp hx1; hyp hCL)); pos(above(hx1; "
        "content-pos(factor-of(hx2; hyp hCL); quotient-pos(both-pos(hyp hC1; "
        "hyp hCL); hyp hCL)))))")
    assert d.raw_calls < 4000


def test_search_budget_fails_a_query_with_contradictory_facts():
    """Contradictory facts leave no refutation point, so without a budget
    this query took 3,802 raw judgement calls before its refusal."""
    facts = [lt0("hxn", x), gt0("hy", y), lt1("hz1", z),
             lt1("hzx", Mul(z, x)), gt0("hxy", Mul(x, y))]
    ob = Lt(sq(Mul(Add(x, y), Neg(x))), Mul(Sub(z, y), y))
    assert D._refutation_points(facts, Sub(ob.right, ob.left)) == []
    with pytest.raises(SearchBudgetExhausted, match="search budget of 2000 "
                       "judgement calls used up"):
        discharge(facts, ob)


def test_kernel_failure_names_the_budget(monkeypatch):
    from derivkit.kernel import check_theory
    from derivkit.theories import load_theory

    monkeypatch.setattr(D, "_BUDGET", 1)
    res = check_theory(load_theory("langmuir_kinetic_let"))
    assert not res.accepted
    assert res.failure == (3, "SearchBudgetExhausted: S + A != 0: search budget "
                              "of 1 judgement calls used up")


def test_budget_stop_in_the_final_goal_check_leaves_the_goal_open(monkeypatch):
    from derivkit.kernel import check_theory
    from derivkit.parser import parse_theory

    t = parse_theory("\n".join((
        "theory t", "  vars x : Real", "  const C : Real", "  const E : Real",
        "  hyp hC : 0 < C", "  hyp hE : 0 < E", "  hyp hx : x = C",
        "  goal 0 < x * E", "  proof", "    rw hx", "  qed", "")))
    assert check_theory(t).accepted
    monkeypatch.setattr(D, "_BUDGET", 1)
    assert check_theory(t).failure == (
        None, "GoalNotClosed: goal not closed after the final step")
