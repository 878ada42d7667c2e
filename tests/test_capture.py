"""Capture-avoiding substitution: a series index or quantifier binder
that reuses a name in scope never changes what a claim says."""

import math
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from derivkit.cli import main
from derivkit.expr import Add, Const, Mul, Pow, SeriesSum, Var, eval_expr
from derivkit.formula import REAL, EqF, Forall, Specialize, subst
from derivkit.kernel import _State, _do_specialize, check_theory
from derivkit.parser import parse_theory, print_formula

GEOMETRIC = ("  hyp hlo : 0 < x", "  hyp hhi : x < 1")


def theory(*lines):
    return "\n".join(("theory t",) + lines) + "\n"


def run(*lines):
    return check_theory(parse_theory(theory(*lines)))


CAP = """theory cap
vars x j
let w := j
hyp hlo : 0 < x
hyp hhi : x < 1
goal sum[j>=1](w * x^j) = sum[j>=1](j * x^j)
proof
  ring
qed
"""


def test_a_let_unfolded_under_a_series_of_its_own_name_is_not_captured(tmp_path, capsys):
    # w is the declared j, so the left side is j * x / (1 - x)
    p = tmp_path / "cap.deriv"
    p.write_text(CAP)
    assert main(["check", str(p)]) == 1
    out = capsys.readouterr().out
    assert "sides are not equal as ring expressions at step 1" in out


def test_rw_does_not_rewrite_the_bound_index_of_a_series():
    r = run("  vars x i", "  hyp h : i = 2", *GEOMETRIC,
            "  goal sum[i>=1](i * x^i) = sum[i>=1](2 * x^i)",
            "  proof", "    rw h", "    ring", "  qed")
    assert r.failure == (1, "StepFailed: no occurrence of the left-hand side of 'h'")


def test_rw_does_not_rewrite_a_series_index_that_shadows_a_let():
    r = run("  vars x y", "  let w := x", "  hyp h : x = 2",
            "  hyp hlo : 0 < y", "  hyp hhi : y < 1",
            "  goal sum[w>=1](w * y^w) = sum[w>=1](2 * y^w)",
            "  proof", "    rw h", "    ring", "  qed")
    assert r.failure == (1, "StepFailed: no occurrence of the left-hand side of 'h'")


def test_specialize_renames_a_series_index_that_would_capture_the_term():
    r = run("  vars x i", "  hyp h : forall u, sum[i>=1](u * x^i) = u * (x / (1 - x))",
            *GEOMETRIC, "  goal sum[i>=1](i * x^i) = i * (x / (1 - x))",
            "  proof", "    specialize h i", "    rw h_1", "    ring", "  qed")
    assert r.failure == (2, "StepFailed: no occurrence of the left-hand side of 'h_1'")
    state = _State(parse_theory(theory(
        "  vars x i", "  hyp h : forall u, sum[i>=1](u * x^i) = u * (x / (1 - x))",
        "  goal x = x", "  proof", "    ring", "  qed")))
    _do_specialize(state, Specialize("h", (Var("i"),)))
    assert print_formula(state.hyps["h_1"]) == "sum[i'>=1](i * x^i') = i * (x / (1 - x))"


def test_intro_renames_a_series_index_that_would_capture_the_new_name():
    r = run("  vars x", *GEOMETRIC,
            "  goal forall t, sum[i>=1](t * x^i) = t * (x / (1 - x))",
            "  proof", "    intro i", "  qed")
    assert [s.goal_after for s in r.steps] == ["sum[i'>=1](i * x^i') = i * (x / (1 - x))"]


def test_unfolding_a_let_renames_a_quantifier_that_would_capture_it():
    state = _State(parse_theory(theory(
        "  vars j", "  let w := j", "  goal j = j", "  proof", "    ring", "  qed")))
    f = Forall((("j", REAL),), EqF(Var("w"), Var("j")))
    assert state.unfold(f) == Forall((("j'", REAL),), EqF(Var("j"), Var("j'")))


def test_nested_series_keep_their_indices_apart():
    # the inner placeholder must not capture the outer index: the sides
    # are x/(1-x)^2 * y/(1-y) and x/(1-x) * y/(1-y)^2
    r = run("  vars x y", *GEOMETRIC, "  hyp hlo2 : 0 < y", "  hyp hhi2 : y < 1",
            "  goal sum[i>=1](x^i * sum[j>=1](i * y^j))"
            " = sum[i>=1](x^i * sum[j>=1](j * y^j))",
            "  proof", "    ring", "  qed")
    assert r.failure == (1, "StepFailed: sides are not equal as ring expressions")


# -- the substitution lemma, on expressions whose binders reuse names

NAMES = ("x", "y", "i", "j")


@st.composite
def exprs(draw, depth=3, bound=frozenset()):
    """A positive expression over NAMES, so no subtraction cancels. A
    series body is c * idx^k * (b/2)^idx, with c and b free of the
    indices around them: every series takes the closed loop of
    `eval_expr` and converges while b < 2."""
    kind = draw(st.sampled_from(["var", "const", "add", "mul", "pow", "series"]
                                if depth else ["var", "const"]))
    if kind == "var":
        return Var(draw(st.sampled_from([n for n in NAMES if n not in bound])))
    if kind == "const":
        return Const(Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 3))))
    if kind == "pow":
        return Pow(draw(exprs(depth - 1, bound)), draw(st.integers(0, 3)))
    if kind in ("add", "mul"):
        op = Add if kind == "add" else Mul
        return op(draw(exprs(depth - 1, bound)), draw(exprs(depth - 1, bound)))
    idx = draw(st.sampled_from(NAMES))
    inner = bound | {idx}
    base = draw(st.sampled_from([n for n in NAMES if n not in inner]))
    body = Mul(draw(exprs(depth - 1, inner)),
               Pow(Mul(Const(Fraction(1, 2)), Var(base)), idx))
    if draw(st.booleans()):
        body = Mul(Var(idx), body)
    return SeriesSum(idx, draw(st.sampled_from([0, 1])), body)


def _value(e, env):
    try:
        return eval_expr(e, env)
    except Exception as err:
        return type(err)


HALF = Const(Fraction(1, 2))


@settings(max_examples=200, deadline=None)
@given(exprs(), st.sampled_from(NAMES), exprs(depth=1),
       st.lists(st.floats(0.1, 0.9), min_size=4, max_size=4))
# both routes overflow the inner series to inf and underflow the outer
# ratio to 0, so both evaluate to inf * 0, NaN
@example(SeriesSum("i", 0, Mul(
    SeriesSum("i", 0, Mul(Var("x"), Pow(Mul(HALF, Var("y")), "i"))),
    Pow(Mul(HALF, Var("x")), "i"))), "y", Const(Fraction(3)), [0.5] * 4)
def test_substitution_commutes_with_evaluation(e, name, value, values):
    env = dict(zip(NAMES, values))
    got = _value(subst(e, {name: value}), env)
    v = _value(value, env)
    want = v if isinstance(v, type) else _value(e, {**env, name: v})
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
    elif math.isnan(want) or math.isnan(got):
        assert math.isnan(want) and math.isnan(got)
    else:
        assert math.isclose(got, want, rel_tol=1e-9)


def test_series_geom_leaves_a_base_with_an_enclosing_index():
    # 0 < j * x < 1 would be discharged for the declared j, while the
    # inner series sums (j * x)^i for j = 1, 2, ...
    r = run("  vars x j", *GEOMETRIC, "  hyp hj : 0 < j", "  hyp hj1 : j < 1",
            "  goal sum[j>=1](x^j * sum[i>=1]((j * x)^i))"
            " = sum[j>=1](x^j * ((j * x) / (1 - j * x)))",
            "  proof", "    series_geom", "  qed")
    assert r.failure == (1, "StepFailed: no geometric series in the goal")


def test_antideriv_const_compares_rates_apart_from_declared_names():
    # the rate is the bound u, not the declared constant u
    r = run("  fns F : State->Real", "  const u : Real",
            "  hyp hF : forall u, deriv(F)(u) = u",
            "  goal forall t, F(t) = t * u + F(0)",
            "  proof", "    antideriv_const", "  qed")
    assert r.failure == (
        1, "StepFailed: no hypothesis matches the derivative of the right side for 'F'")


def test_antideriv_unfolds_a_let_without_capture_by_the_goal_binder():
    # w is the declared t, so the right side is linear in the bound t
    r = run("  fns F : State->Real", "  vars t : Real", "  let w := t",
            "  hyp hF : forall u, deriv(F)(u) = u",
            "  goal forall t, F(t) = t * w / 2 + F(0)",
            "  proof", "    antideriv", "  qed")
    assert r.failure == (
        1, "StepFailed: no hypothesis matches the derivative of the right side for 'F'")


def test_discharge_keeps_a_series_index_apart_from_a_declared_name():
    # i < 0 speaks of the declared i; every term -i * x^i is negative
    r = run("  vars x i", *GEOMETRIC, "  hyp hi : i < 0",
            "  goal 0 < sum[i>=1](-i * x^i)", "  proof", "  qed")
    assert r.failure == (None, "GoalNotClosed: goal not closed after the final step")
