"""Surface syntax: lexing, parsing, validation, printing, round trips."""

import random
from fractions import Fraction

import pytest

from derivkit.errors import DerivSyntaxError, DuplicateName, UndeclaredSymbol
from derivkit.expr import (Add, App, Const, Deriv, Div, Mul, Neg, Pow,
                           SeriesSum, Sub, Var)
from derivkit.formula import (And, ApplyLemma, EqF, ExistsIntro,
                              FieldNormalize, Forall, Implies, IndexShift,
                              Intro, LimitDivergenceWitness, Lt, Ne0, REAL,
                              RewriteWith, RingClose, SeriesGeom,
                              SeriesGeomWeighted, Specialize, Unfold)
from derivkit.parser import parse_theories, parse_theory, print_theory
from derivkit.theories import load_script, registry


def mk(*body_lines):
    lines = ["theory t", "  vars x y : Real"]
    lines += [f"  {ln}" for ln in body_lines]
    lines += ["  proof", "    ring", "  qed"]
    return "\n".join(lines) + "\n"


def test_minimal_theory():
    t = parse_theory(mk("goal x + y = y + x"))
    assert t.name == "t"
    assert t.var_decls == (("x", REAL), ("y", REAL))
    assert t.goal == EqF(Add(Var("x"), Var("y")), Add(Var("y"), Var("x")))
    assert t.steps == (RingClose(),)


def test_negative_literal_folds_into_constant():
    t = parse_theory(mk("let a := -3", "goal a = a"))
    assert t.lets == (("a", Const(Fraction(-3))),)
    u = parse_theory(mk("let a := 0 - 3", "goal a = a"))
    assert u.lets[0][1] == Sub(Const(Fraction(0)), Const(Fraction(3)))


def test_decimal_constants():
    t = parse_theory(mk("let a := 0.25 * x", "goal a = a"))
    assert t.lets[0][1] == Mul(Const(Fraction(1, 4)), Var("x"))


def test_negative_base_takes_power_suffix():
    t = parse_theory(mk("goal -2^2 = 4"))
    assert t.goal.left == Pow(Const(Fraction(-2)), 2)


def test_unary_minus_on_variable():
    t = parse_theory(mk("goal x - -y = x + y"))
    assert t.goal.left == Sub(Var("x"), Neg(Var("y")))


def test_precedence_and_parens():
    t = parse_theory(mk("goal x + y * x = (x + y) * x"))
    assert t.goal.left == Add(Var("x"), Mul(Var("y"), Var("x")))
    assert t.goal.right == Mul(Add(Var("x"), Var("y")), Var("x"))


def test_symbolic_exponent_inside_series():
    t = parse_theory(mk("let g := sum[n>=1](x^n)", "goal g = g"))
    assert t.lets[0][1] == SeriesSum("n", 1, Pow(Var("x"), "n"))


def test_comments_are_ignored():
    src = mk("goal x = x  -- tautology", "-- a full comment line")
    assert parse_theory(src).goal == EqF(Var("x"), Var("x"))


def test_apostrophe_identifiers():
    src = "\n".join([
        "theory accel'",
        "  vars v v' : Real",
        "  hyp h : v' = v",
        "  goal v' = v",
        "  proof", "    rw h", "    ring", "  qed",
    ]) + "\n"
    t = parse_theory(src)
    assert t.name == "accel'"
    assert ("v'", REAL) in t.var_decls


def test_unicode_aliases():
    src = "\n".join([
        "theory u",
        "  vars x : Real",
        "  hyp hx : x ≠ 0",
        "  hyp hall : ∀ k, k * 0 = 0",
        "  let g := Σ[n≥1](x^n)",
        "  goal x = x",
        "  proof", "    ring", "  qed",
    ]) + "\n"
    t = parse_theory(src)
    assert t.hyps[0][1] == Ne0(Var("x"))
    assert isinstance(t.hyps[1][1], Forall)
    assert t.lets[0][1] == SeriesSum("n", 1, Pow(Var("x"), "n"))


def test_implication_and_conjunction():
    t = parse_theory(mk("hyp h : 0 < x /\\ x < 1 -> x != 0", "goal x = x"))
    f = t.hyps[0][1]
    assert f == Implies(And(Lt(Const(Fraction(0)), Var("x")),
                            Lt(Var("x"), Const(Fraction(1)))),
                        Ne0(Var("x")))


def test_state_declarations_and_apps():
    src = "\n".join([
        "theory st",
        "  vars s : State",
        "  fns p v : State -> Real",
        "  goal p(s) * v(s) = v(s) * p(s)",
        "  proof", "    ring", "  qed",
    ]) + "\n"
    t = parse_theory(src)
    assert t.fn_decls == ("p", "v")
    assert t.goal.left == Mul(App("p", Var("s")), App("v", Var("s")))


def test_vars_without_a_sort_are_real():
    t = parse_theory("theory t\n  vars x y\n  vars s : State\n  goal x = y\n"
                     "  proof\n    ring\n  qed\n")
    assert t.var_decls == (("x", "Real"), ("y", "Real"), ("s", "State"))


def test_deriv_application():
    src = "\n".join([
        "theory d",
        "  vars s : State",
        "  fns f : State -> Real",
        "  goal deriv(f)(s) = deriv(f)(s)",
        "  proof", "    ring", "  qed",
    ]) + "\n"
    t = parse_theory(src)
    assert t.goal.left == App(Deriv("f"), Var("s"))


# -- rejected inputs ------------------------------------------------------


def test_duplicate_var_rejected():
    with pytest.raises(DuplicateName):
        parse_theory(mk("vars x : Real", "goal x = x"))


def test_duplicate_hyp_rejected():
    with pytest.raises(DuplicateName):
        parse_theory(mk("hyp h : x = y", "hyp h : y = x", "goal x = x"))


def test_undeclared_symbol_carries_line():
    src = mk("hyp h : x = z", "goal x = x")
    with pytest.raises(UndeclaredSymbol) as ei:
        parse_theory(src)
    assert ei.value.name == "z"
    assert ei.value.line == 3


def test_syntax_error_carries_position():
    src = "theory t\n  vars x : Real\n  goal x $ = x\n"
    with pytest.raises(DerivSyntaxError) as ei:
        parse_theory(src)
    assert ei.value.line == 3
    assert ei.value.col == 10


def test_reserved_word_rejected_as_name():
    with pytest.raises(DerivSyntaxError):
        parse_theory(mk("vars sum : Real", "goal x = x"))


def test_ne0_only_against_zero():
    with pytest.raises(DerivSyntaxError):
        parse_theory(mk("hyp h : x != 1", "goal x = x"))


def test_series_start_limited():
    with pytest.raises(DerivSyntaxError):
        parse_theory(mk("let g := sum[n>=2](x^n)", "goal x = x"))


@pytest.mark.parametrize("depth", ["x", "2.5"])
def test_limit_witness_needs_an_integer_depth(depth):
    src = ("theory t\n  vars x : Real\n  goal x = x\n  proof\n"
           f"    limit_witness {depth}\n  qed\n")
    with pytest.raises(DerivSyntaxError, match="limit_witness needs an integer depth"):
        parse_theory(src)


def test_parse_theory_rejects_multiple():
    two = mk("goal x = x") + mk("goal y = y")
    assert len(parse_theories(two)) == 2
    with pytest.raises(DerivSyntaxError):
        parse_theory(two)


def steps(*step_lines):
    lines = ["theory t", "  vars x y : Real", "  hyp h : x = y", "  goal x = y",
             "  proof"]
    lines += [f"    {ln}" for ln in step_lines]
    lines += ["  qed"]
    return "\n".join(lines) + "\n"


# every syntax error the lexer and parser raise: script, message, line, column
SYNTAX_ERRORS = [
    (mk("goal x $ = x"), "unexpected character '$'", 3, 10),
    (mk("hyp h x = y", "goal x = x"), "expected ':', found 'x'", 3, 9),
    (mk("let w = x", "goal x = x"), "expected ':=', found '='", 3, 9),
    (mk("goal (x = y"), "expected ')', found '\\n'", 3, 14),
    (mk("let g := sum[n=1](x)", "goal x = x"), "expected '>=', found '='", 3, 17),
    ("goal x = x\n", "expected 'theory', found 'goal'", 1, 1),
    ("theory t\n  vars x : Real\n  goal x = x\n    ring\n  qed\n",
     "expected 'proof', found 'ring'", 4, 5),
    (mk("fns f : Real -> Real", "goal x = x"), "expected 'State', found 'Real'", 3, 11),
    ("theory 3\n  goal 1 = 1\n  proof\n    ring\n  qed\n",
     "expected theory name, found '3'", 1, 8),
    (steps("rw 3"), "expected the hyp of rw, found '3'", 6, 8),
    ("theory t\n  vars x : Real\n  goal x = x\n  proof\n    ring\n",
     "expected proof step, found ''", 6, 1),
    (mk("goal x = x y"), "expected end of line, found 'y'", 3, 14),
    (mk("vars z : Nat", "goal x = x"), "unknown sort 'Nat'", 3, 12),
    (mk("lemma x", "goal x = x"), "unexpected clause 'lemma'", 3, 3),
    (mk("3 x", "goal x = x"), "expected a declaration or goal, found '3'", 3, 3),
    (steps("frobnicate"), "unknown proof step 'frobnicate'", 6, 5),
    (steps("limit_witness 2.5"), "limit_witness needs an integer depth", 6, 19),
    (steps("deriv_rule pow"), "unknown proof step 'deriv_rule'", 6, 5),
    (mk("goal x"), "expected a comparison, found '\\n'", 3, 9),
    (mk("hyp h : x != 1", "goal x = x"),
     "only comparisons with zero are supported after !=", 3, 16),
    (mk("goal x^2.5 = x"), "expected an integer exponent", 3, 10),
    (mk("goal x^-2.5 = x"), "expected an integer exponent", 3, 11),
    (mk("goal x^(2) = x"), "expected an exponent", 3, 10),
    (mk("let g := sum[n>=2](x^n)", "goal x = x"), "series must start at 0 or 1", 3, 19),
    (mk("goal x = )"), "expected an expression, found ')'", 3, 12),
    (mk("vars sum : Real", "goal x = x"), "'sum' is a reserved word", 3, 8),
    (mk("goal x = vars"), "'vars' is a reserved word", 3, 12),
    (mk("goal x = x") + mk("goal y = y"), "expected exactly one theory, found 2", 1, 1),
]


@pytest.mark.parametrize("src, message, line, col", SYNTAX_ERRORS,
                         ids=[row[1] for row in SYNTAX_ERRORS])
def test_syntax_error_message_and_position(src, message, line, col):
    with pytest.raises(DerivSyntaxError) as ei:
        parse_theory(src)
    assert (str(ei.value), ei.value.line, ei.value.col) == (
        f"{message} at line {line}, col {col}", line, col)


# -- round trips -----------------------------------------------------------


@pytest.mark.parametrize("entry", registry(), ids=lambda e: e.name)
def test_print_parse_identity_builtin(entry):
    t = parse_theory(load_script(entry.name))
    assert parse_theory(print_theory(t)) == t


_VARS = ("a", "b", "c")
_CONSTS = ("K",)
_DENOMS = (2, 4, 5, 8, 10, 100)


def _gen_expr(rng, scope, depth, indices):
    if depth == 0 or rng.random() < 0.30:
        r = rng.random()
        if r < 0.50:
            return Var(rng.choice(scope))
        if r < 0.80:
            return Const(Fraction(rng.randint(0, 9)))
        return Const(Fraction(rng.randint(1, 399), rng.choice(_DENOMS)))
    kind = rng.choice(("add", "sub", "mul", "div", "neg", "pow", "pow", "series"))
    if kind in ("add", "sub", "mul", "div"):
        op = {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[kind]
        return op(_gen_expr(rng, scope, depth - 1, indices),
                  _gen_expr(rng, scope, depth - 1, indices))
    if kind == "neg":
        return Neg(_gen_expr(rng, scope, depth - 1, indices))
    if kind == "pow":
        base = _gen_expr(rng, scope, depth - 1, indices)
        if indices and rng.random() < 0.4:
            return Pow(base, rng.choice(sorted(indices)))
        return Pow(base, rng.choice((-2, -1, 0, 1, 2, 3)))
    idx = rng.choice(("i", "j", "n"))
    body = _gen_expr(rng, scope + (idx,), depth - 1, indices | {idx})
    return SeriesSum(idx, rng.choice((0, 1)), body)


def _gen_formula(rng, scope):
    kind = rng.choice(("eq", "eq", "lt", "ne0", "impl", "forall"))
    e = lambda: _gen_expr(rng, scope, rng.randint(1, 3), frozenset())
    if kind == "eq":
        return EqF(e(), e())
    if kind == "lt":
        return Lt(e(), e())
    if kind == "ne0":
        return Ne0(e())
    if kind == "impl":
        return Implies(Lt(e(), e()), EqF(e(), e()))
    q = rng.choice(("q", "r"))
    inner = scope + (q,)
    return Forall(((q, REAL),),
                  EqF(_gen_expr(rng, inner, 2, frozenset()),
                      _gen_expr(rng, inner, 2, frozenset())))


def _gen_steps(rng, hyp_names, let_names, scope):
    pool = [RingClose(), FieldNormalize(), SeriesGeom(), SeriesGeomWeighted(),
            IndexShift(),
            LimitDivergenceWitness(rng.randint(1, 9)),
            Intro(("q", "r")),
            ExistsIntro(_gen_expr(rng, scope, 2, frozenset())),
            ApplyLemma("other")]
    if hyp_names:
        pool.append(RewriteWith(rng.choice(hyp_names), rng.random() < 0.5))
        pool.append(Specialize(rng.choice(hyp_names),
                               tuple(_gen_expr(rng, scope, 1, frozenset())
                                     for _ in range(rng.randint(1, 2)))))
    if let_names:
        pool.append(Unfold(rng.choice(let_names)))
    return tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))


def _gen_theory(rng, k):
    from derivkit.formula import Theory
    scope = _VARS + _CONSTS
    hyps = tuple((f"h{i}", _gen_formula(rng, scope))
                 for i in range(rng.randint(0, 3)))
    lets = []
    for i in range(rng.randint(0, 2)):
        lets.append((f"w{i}", _gen_expr(rng, scope, 3, frozenset())))
        scope = scope + (f"w{i}",)
    goal = EqF(_gen_expr(rng, scope, 3, frozenset()),
               _gen_expr(rng, scope, 3, frozenset()))
    return Theory(
        name=f"t{k}",
        var_decls=tuple((v, REAL) for v in _VARS),
        fn_decls=(),
        const_decls=_CONSTS,
        hyps=hyps,
        lets=tuple(lets),
        goal=goal,
        steps=_gen_steps(rng, [n for n, _ in hyps], [n for n, _ in lets], scope),
    )


def test_fuzz_print_parse_identity():
    rng = random.Random(20260815)
    for k in range(100):
        t = _gen_theory(rng, k)
        src = print_theory(t)
        assert parse_theory(src) == t, src


def test_fuzz_multi_theory_file():
    rng = random.Random(7)
    ts = [_gen_theory(rng, k) for k in range(5)]
    blob = "".join(print_theory(t) for t in ts)
    assert parse_theories(blob) == ts
