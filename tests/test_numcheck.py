"""The numeric falsification oracle, exercised directly and per theory."""

import hashlib
import math
import random
import re
from fractions import Fraction

import pytest

from derivkit.errors import RejectionStarvation, StepFailed
from derivkit.expr import (Add, Const, Div, Mul, Pow, SeriesSum, Sub, Var)
from derivkit.formula import EqF, Lt, Ne0
from derivkit import expr, numcheck
from derivkit.numcheck import (SamplePlan, _compare, divergence_setup,
                               divergence_witness, run_suite, sample_envs,
                               witness_envs)
from derivkit.parser import parse_theory
from derivkit.theories import load_script, load_theory, registry
from test_acceptance import (NonConvergent, VecFn3, dot,
                             series_truncation_check)

x, y = Var("x"), Var("y")


def plan(**kw):
    kw.setdefault("seed", 7)
    kw.setdefault("count", 40)
    return SamplePlan(**kw)


def _bounds(names, hyps):
    return numcheck._bound_plan(hyps, numcheck._equation_plan(names, hyps))


# -- sampling -----------------------------------------------------------------


def test_plan_rejects_bad_count():
    with pytest.raises(ValueError):
        SamplePlan(count=0)
    with pytest.raises(ValueError):
        SamplePlan(count=-3)


def test_sampling_is_deterministic_per_name():
    p = plan(count=20)
    hyps = [Lt(Const(0), x)]
    a = sample_envs(["x", "y"], hyps, p, "alpha")
    b = sample_envs(["x", "y"], hyps, p, "alpha")
    c = sample_envs(["x", "y"], hyps, p, "beta")
    assert a == b
    assert a != c


@pytest.mark.parametrize("seed, name", [(0, "const_accel"), (1, "alpha"),
                                        (42, "limit_witness"), (-3, "")])
def test_stream_is_seeded_by_the_sha256_of_seed_and_name(seed, name):
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    want = random.Random(int.from_bytes(digest[:8], "big"))
    got = numcheck._rng(seed, name)
    assert [got.random() for _ in range(5)] == [want.random() for _ in range(5)]


def test_sampling_is_prefix_stable():
    # a smaller count draws the first environments of a larger one,
    # also where a bound cuts the range a name is drawn from
    hyps = [Lt(Const(0), x), Lt(x, Const(1))]
    assert _bounds(["x", "y"], hyps) == {"x": [(Const(1), Const(-1))]}
    assert (sample_envs(["x", "y"], hyps, plan(count=10), "prefix")
            == sample_envs(["x", "y"], hyps, plan(count=100), "prefix")[:10])


def _counting_draws(monkeypatch):
    draws = [0]
    real = numcheck._draw

    def counted(*args):
        draws[0] += 1
        return real(*args)

    monkeypatch.setattr(numcheck, "_draw", counted)
    return draws


def test_linear_bounds_are_drawn_inside(monkeypatch):
    # bet_sequence_math needs 0 < C_L * P < 1: drawing C_L inside the
    # bounds P gives it leaves only the draws with P < 0 to rejection
    names, hyps, _, _ = numcheck._ground(load_theory("bet_sequence_math"))
    assert set(_bounds(names, hyps)) == {"C_L"}
    draws = _counting_draws(monkeypatch)
    envs = sample_envs(names, hyps, SamplePlan(seed=0, count=100), "bet")
    assert len(envs) == 100
    assert draws[0] < 3 * 100
    for e in envs:
        assert 0 < e["C_L"] * e["P"] < 1


def test_bound_not_linear_in_its_name_is_left_to_rejection(monkeypatch):
    hyps = [Lt(Mul(x, x), Const(2))]
    assert _bounds(["x"], hyps) == {}
    draws = _counting_draws(monkeypatch)
    envs = sample_envs(["x"], hyps, plan(count=30), "square")
    assert len(envs) == 30 and draws[0] > 30
    assert all(e["x"] * e["x"] < 2 for e in envs)


def test_bound_on_an_equation_defined_name_is_left_to_rejection():
    # y is defined by y = 2 * x, so y < 1 cannot cut the range y is drawn from
    hyps = [EqF(y, Mul(Const(2), x)), Lt(y, Const(1))]
    assert _bounds(["x", "y"], hyps) == {}
    envs = sample_envs(["x", "y"], hyps, plan(count=30), "defined")
    assert len(envs) == 30
    for e in envs:
        assert e["y"] == 2 * e["x"] and e["y"] < 1


def test_constant_bounds_with_no_room_starve_before_drawing(monkeypatch):
    draws = _counting_draws(monkeypatch)
    with pytest.raises(RejectionStarvation):
        sample_envs(["x"], [Lt(Const(0), x), Lt(x, Const(0))], plan(count=1), "empty")
    assert draws[0] == 0


def test_constant_bounds_are_cut_once_beside_other_bounds(monkeypatch):
    # y < -20 leaves y no room in (-10, 10) whatever x < y says, so no
    # draw is made
    draws = _counting_draws(monkeypatch)
    with pytest.raises(RejectionStarvation, match="leave y no value"):
        sample_envs(["x", "y"], [Lt(y, Const(-20)), Lt(x, y)], plan(count=1), "mixed")
    assert draws[0] == 0


def test_positivity_hypothesis_pins_range():
    envs = sample_envs(["x", "y"], [Lt(Const(0), x)], plan(count=30), "pins")
    assert all(e["x"] > 0 for e in envs)
    assert any(e["y"] < 0 for e in envs)


def test_equation_hypotheses_are_solved():
    hyps = [EqF(Var("a"), Mul(Const(2), Var("b")))]
    envs = sample_envs(["a", "b"], hyps, plan(count=25), "solve")
    for e in envs:
        assert abs(e["a"] - 2.0 * e["b"]) <= 1e-9 * max(1.0, abs(e["a"]))


def test_equation_nonlinear_in_its_latest_name_is_solved_for_another():
    # c is declared last, but c * c = x + 1 is linear only in x
    c = Var("c")
    hyps = [EqF(Mul(c, c), Add(x, Const(1)))]
    envs = sample_envs(["x", "c"], hyps, plan(count=25), "nonlinear")
    assert len(envs) == 25
    for e in envs:
        assert abs(e["c"] * e["c"] - e["x"] - 1.0) <= 1e-9 * max(1.0, abs(e["x"]))


def test_bound_on_a_name_no_equation_is_linear_in_is_drawn_inside():
    # c * c = x + 1 is solved for x only, so c < 3 bounds c
    c = Var("c")
    hyps = [EqF(Mul(c, c), Add(x, Const(1))), Lt(c, Const(3))]
    assert _bounds(["x", "c"], hyps) == {"c": [(Const(3), Const(-1))]}


GAS = EqF(Mul(Var("P"), Var("V")), Mul(Mul(Var("n"), Var("R")), Var("T")))


def test_equation_is_solved_from_its_linear_form():
    names = ["R", "n", "T", "P", "V"]
    for seed in range(5):
        for e in sample_envs(names, [GAS], plan(seed=seed), "gas"):
            l, r = e["P"] * e["V"], e["n"] * e["R"] * e["T"]
            assert abs(l - r) <= 4 * math.ulp(max(abs(l), abs(r)))
    # it is linear in every name, and solved for the latest-declared
    _, _, rest = numcheck._equation_plan(names, [GAS])
    assert list(rest[0][2]) == ["V", "P", "T", "n", "R"]


def test_equation_linear_through_a_series_is_solved():
    c = Var("c")
    s = SeriesSum("k", 1, Mul(c, Pow(x, "k")))
    hyps = [Lt(Const(0), x), Lt(x, Const(Fraction(1, 2))), EqF(s, Const(1))]
    envs = sample_envs(["c", "x"], hyps, plan(count=20), "series")
    assert len(envs) == 20
    for e in envs:
        assert abs(e["c"] * e["x"] / (1 - e["x"]) - 1) <= 1e-9


GEOMETRIC = ("theory geometric\n  vars x i : Real\n"
             "  hyp h0 : 0 < x\n  hyp h1 : x < 1\n"
             "  hyp h : forall u, sum[k>=1](u * x^k) = u * (x / (1 - x))\n"
             "  goal sum[k>=1](i * x^k) = i * (x / (1 - x))\n"
             "  proof\n    specialize h i\n    rw h_1\n    ring\n  qed\n")


def test_no_series_is_summed_at_a_ratio_past_one(monkeypatch):
    # solving the grounded instances of h never moves x, the ratio of
    # every series, off the draw
    past_one = []
    real = expr._series_fast

    def counted(s, env):
        terms = expr.geometric_terms(s)
        if terms is not None and abs(expr.eval_expr(terms[2], env)) >= 1:
            past_one.append(s)
        return real(s, env)

    monkeypatch.setattr(expr, "_series_fast", counted)
    rep = run_suite(parse_theory(GEOMETRIC), SamplePlan(seed=0))
    assert rep.label == "identity" and rep.passed
    assert past_one == []


def test_unsatisfiable_hypotheses_starve(monkeypatch):
    # x < x gives the bound 0 + (1 - 1) * x > 0, which no x meets
    draws = _counting_draws(monkeypatch)
    with pytest.raises(RejectionStarvation):
        sample_envs(["x"], [Lt(x, x)], plan(count=1), "never")
    assert draws[0] == 0



def test_hypotheses_no_draw_meets_starve_at_the_draw_limit(monkeypatch):
    # x * y < y * x gives y the bound 0 + (x - x) * y > 0, which no
    # check before the draws catches, so every draw is rejected (with
    # the full limit of 100,000 this takes about 0.6 s)
    monkeypatch.setattr(numcheck, "_DRAW_LIMIT", 50)
    draws = _counting_draws(monkeypatch)
    with pytest.raises(RejectionStarvation, match="0 of 1 samples in 50 draws"):
        sample_envs(["x", "y"], [Lt(Mul(x, y), Mul(y, x))], plan(count=1), "starved")
    assert draws[0] == 50


def test_a_bound_no_drawn_value_meets_rejects_before_the_hypotheses(monkeypatch):
    # at every draw of x the cut for y is empty, so no candidate
    # reaches the hypothesis check
    monkeypatch.setattr(numcheck, "_DRAW_LIMIT", 50)
    holds = [0]
    real = numcheck._holds

    def counted(f, env):
        holds[0] += 1
        return real(f, env)

    monkeypatch.setattr(numcheck, "_holds", counted)
    with pytest.raises(RejectionStarvation, match="0 of 1 samples in 50 draws"):
        sample_envs(["x", "y"], [Lt(Mul(x, y), Mul(y, x))], plan(count=1), "starved")
    assert holds[0] == 0

# -- identity and series checks -------------------------------------------------


def test_identity_check_accepts_equal_sides():
    lhs = Pow(Add(x, Const(1)), 2)
    rhs = Add(Add(Pow(x, 2), Mul(Const(2), x)), Const(1))
    p = plan()
    rep = _compare([EqF(lhs, rhs)], sample_envs(["x"], [], p, "sq"), p.seed)
    assert rep.passed
    assert rep.samples == 40
    assert rep.worst_residual <= 1e-12


def test_identity_check_flags_small_systematic_error():
    rhs = Add(Mul(Const(2), x), Const(Fraction(1, 10 ** 6)))
    p = plan()
    rep = _compare([EqF(Mul(Const(2), x), rhs)], sample_envs(["x"], [], p, "off"), p.seed)
    assert not rep.passed
    assert rep.worst_residual > 0


def test_identity_check_fails_a_claim_that_evaluates_to_nan():
    big = Mul(Mul(x, Pow(Const(10), 200)), Pow(Const(10), 200))
    p = plan()
    rep = _compare([EqF(Sub(big, big), Const(1))],
                   sample_envs(["x"], [Lt(Const(1), x)], p, "identity"), p.seed)
    assert not rep.passed


def test_identity_check_fails_closed_when_a_side_is_not_finite():
    # one side overflows to inf: the tolerance would be inf too, and the
    # residual inf / inf is NaN
    big = Mul(Mul(x, Pow(Const(10), 200)), Pow(Const(10), 200))
    rep = _compare([EqF(big, Const(1))], [{"x": 1.0}], 0)
    assert not rep.passed and rep.worst_residual == math.inf
    # both sides inf: their difference is NaN
    rep = _compare([EqF(x, x)], [{"x": math.inf}], 0)
    assert not rep.passed and rep.worst_residual == math.inf
    # a later finite claim keeps the report at inf
    rep = _compare([EqF(x, x), EqF(Const(1), Const(1))], [{"x": math.nan}], 0)
    assert not rep.passed and rep.worst_residual == math.inf


def test_series_truncation_error_shrinks():
    s = SeriesSum("i", 1, Pow(x, "i"))
    closed = Div(x, Sub(Const(1), x))
    errors = series_truncation_check(s, closed, {"x": 0.5})
    assert all(b <= a for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-9


def test_series_truncation_all_zero_at_origin():
    s = SeriesSum("i", 1, Pow(x, "i"))
    closed = Div(x, Sub(Const(1), x))
    assert series_truncation_check(s, closed, {"x": 0.0}) == [0.0] * 6


def test_series_truncation_detects_divergence():
    s = SeriesSum("i", 1, Pow(x, "i"))
    closed = Div(x, Sub(Const(1), x))
    with pytest.raises(NonConvergent):
        series_truncation_check(s, closed, {"x": 1.01})


# -- derivatives and kinematics --------------------------------------------------


def test_vecfn3_evaluation_and_derivative():
    pos = VecFn3.from_constant_acceleration((2, 0, 0), (3, 0, 0), (1, 0, 0))
    assert pos.coeffs[0] == (1.0, 3.0, 1.0)
    assert pos.eval(2.0) == (11.0, 0.0, 0.0)
    vel = pos.deriv()
    assert vel.eval(2.0) == (7.0, 0.0, 0.0)
    v = vel.eval(2.0)
    assert dot(v, v) == 49.0
    a, v0, x0 = (2.0, 0.0, 0.0), (3.0, 0.0, 0.0), (1.0, 0.0, 0.0)
    xt = pos.eval(2.0)
    rhs = dot(v0, v0) + 2.0 * dot(a, (xt[0] - x0[0], xt[1] - x0[1], xt[2] - x0[2]))
    assert rhs == 49.0


def test_vecfn3_constant_has_zero_derivative():
    c = VecFn3(((5.0,), (0.0,), (2.0,)))
    assert c.deriv().eval(3.7) == (0.0, 0.0, 0.0)


# -- divergence ------------------------------------------------------------------


def test_divergence_witness_true_verdict():
    f = Div(Const(1), Sub(Const(1), x))
    rep = divergence_witness(f, "x", 1.0, 8, {})
    assert rep.verdict
    assert len(rep.values) == 8
    assert rep.values[-1] > 1e6
    assert all(b > a for a, b in zip(rep.values, rep.values[1:]))


def test_divergence_witness_false_verdict():
    rep = divergence_witness(Sub(Const(1), x), "x", 1.0, 6, {})
    assert not rep.verdict


def test_divergence_witness_fails_a_table_that_goes_negative():
    f = Sub(Div(Const(1), Sub(Const(1), x)), Const(100))
    rep = divergence_witness(f, "x", 1.0, 8, {})
    assert not rep.verdict
    assert rep.reason == "divergence table goes negative at offset 1e-1"
    assert rep.values == [pytest.approx(-90.0)]


def test_witness_envs_gives_each_assignment_once():
    # h27 defines P_0, so its four corner values solve to one assignment:
    # brunauer_27's 36 corners are 9 distinct ones
    cl, c1, p0 = Var("C_L"), Var("C_1"), Var("P_0")
    hyps = [Lt(Const(0), cl), Lt(Const(0), c1), EqF(p0, Div(Const(1), cl))]
    envs = witness_envs(["C_L", "C_1", "P_0"], hyps, 0)
    assert len(envs) == 9 + 8
    assert len({tuple(e.values()) for e in envs}) == len(envs)
    assert envs[0] == {"C_L": 1e-3, "C_1": 1e-3, "P_0": 1e3}


P, a, b, c, d = (Var(n) for n in "Pabcd")
BLOWUP = Div(Const(1), Sub(a, P))

# (body, point, names, facts) -> (names, facts) drawn; P is the one variable
DIVERGENCE_SETUPS = {
    "linked through another constant": (
        (BLOWUP, a, ["a", "b", "c"], [Lt(c, b), Lt(b, a)]),
        (["a", "b", "c"], [Lt(c, b), Lt(b, a)])),
    "declaration order": (
        (Div(c, Sub(a, P)), a, ["c", "b", "a"], [Lt(Const(0), a)]),
        (["c", "a"], [Lt(Const(0), a)])),
    "fact over the approach variable": (
        (BLOWUP, a, ["P", "a"], [Lt(Const(0), P), Lt(P, a), Ne0(a)]),
        (["a"], [Ne0(a)])),
    "fact over an unlinked name": (
        (BLOWUP, a, ["a", "d"], [Lt(Const(0), d), EqF(a, Const(2))]),
        (["a"], [EqF(a, Const(2))])),
}


@pytest.mark.parametrize("case", sorted(DIVERGENCE_SETUPS))
def test_divergence_setup(case):
    (body, point, names, facts), (drawn, kept) = DIVERGENCE_SETUPS[case]
    assert divergence_setup(body, point, ["P", "y"], names, facts) == ("P", drawn, kept)


@pytest.mark.parametrize("body, point, message", [
    (Div(Const(1), Sub(a, Mul(P, y))), a,
     "the diverging expression needs exactly one free variable"),
    (Div(Const(1), a), a, "the diverging expression needs exactly one free variable"),
    (BLOWUP, Add(a, d), "the approach point must only involve constants"),
    (Div(d, Sub(a, P)), a, "the approach point must only involve constants"),
], ids=["two variables", "no variable", "point off names", "body off names"])
def test_divergence_setup_refusals(body, point, message):
    with pytest.raises(StepFailed) as e:
        divergence_setup(body, point, ["P", "y"], ["a"], [])
    assert str(e.value) == message


def test_divergence_suite_draws_the_linked_constants(monkeypatch):
    calls = []
    real = numcheck.sample_envs

    def record(names, hyps, *args, **kwargs):
        calls.append((list(names), list(hyps)))
        return real(names, hyps, *args, **kwargs)

    monkeypatch.setattr(numcheck, "sample_envs", record)
    t = load_theory("brunauer_27")
    assert run_suite(t, plan()).passed
    assert calls == [(["C_L", "C_1", "P_0"], [f for _, f in t.hyps])]


def test_divergence_table_for_builtin():
    t = load_theory("brunauer_27")
    table = run_suite(t, plan()).table
    assert len(table) == 8
    assert all(b > a for a, b in zip(table, table[1:]))


# -- per-theory suites -------------------------------------------------------------


@pytest.mark.parametrize("entry", registry(), ids=lambda e: e.name)
def test_every_builtin_suite_passes(entry):
    t = parse_theory(entry.script)
    rep = run_suite(t, plan())
    assert rep is not None, entry.name
    assert rep.passed, (entry.name, rep.worst_residual)


def test_suite_labels():
    p = plan()
    assert run_suite(load_theory("langmuir_model_derivation"), p).label == "identity"
    assert run_suite(load_theory("brunauer_27"), p).label == "divergence_witness"
    assert run_suite(load_theory("boyles_law_relation"), p).label == "identity"
    assert run_suite(load_theory("const_accel"), p).label == "identity"



def test_divergence_suite_draws_only_what_it_evaluates(monkeypatch):
    counts = []
    real = numcheck.sample_envs

    def counting(names, hyps, p, *args, **kwargs):
        counts.append(p.count)
        return real(names, hyps, p, *args, **kwargs)

    monkeypatch.setattr(numcheck, "sample_envs", counting)
    rep = run_suite(load_theory("brunauer_27"), plan(count=100))
    assert counts == [10]
    assert rep.samples == 10 and rep.passed
    counts.clear()
    assert run_suite(load_theory("brunauer_27"), plan(count=3)).samples == 3
    assert counts == [3]

def test_suite_is_deterministic():
    t = load_theory("langmuir_kinetic_fig1")
    assert run_suite(t, plan()) == run_suite(t, plan())


def test_suite_guards_series_truncation_region():
    # a true series identity over the whole open unit interval: samples
    # too close to 1 have unconverged partial sums and must be skipped,
    # not reported as counterexamples
    src = ("theory user_series\n  vars x : Real\n"
           "  hyp hlo : 0 < x\n  hyp hhi : x < 1\n"
           "  let s := sum[i>=1](x^i)\n"
           "  goal 3 * s = 3 * x / (1 - x)\n"
           "  proof\n    unfold s\n    series_geom\n    field_normalize\n"
           "    ring\n  qed\n")
    rep = run_suite(parse_theory(src), plan())
    assert rep.label == "identity"
    assert rep.passed, rep.worst_residual


def test_suite_guard_does_not_mask_wrong_series_claims():
    src = ("theory user_series_off\n  vars x : Real\n"
           "  hyp hlo : 0 < x\n  hyp hhi : x < 1\n"
           "  let s := sum[i>=1](x^i)\n"
           "  goal 3 * s = 3 * x / (1 - x) + 1 / 100\n"
           "  proof\n    ring\n  qed\n")
    rep = run_suite(parse_theory(src), plan())
    assert not rep.passed
    assert rep.worst_residual > 1e-4


def test_suite_none_for_unsupported_goals():
    # a derivative with no pointwise definition, and an order claim
    src = ("theory q\n  fns f : State -> Real\n"
           "  goal forall t, deriv(f)(t) = deriv(f)(t)\n"
           "  proof\n    intro t\n    ring\n  qed\n")
    assert run_suite(parse_theory(src), plan()) is None
    src2 = ("theory q2\n  vars x : Real\n  goal x < x + 1\n"
            "  proof\n    ring\n  qed\n")
    assert run_suite(parse_theory(src2), plan()) is None
    # eight binders over three points: more instances than one
    # quantifier may have
    src3 = ("theory q3\n  fns f : State -> Real\n"
            "  goal forall a b c d e g h k, f(a) = f(a)\n"
            "  proof\n    ring\n  qed\n")
    assert run_suite(parse_theory(src3), plan()) is None


def test_applications_and_quantified_goals_are_grounded():
    src = ("theory q\n  vars s : State\n  fns f : State -> Real\n"
           "  goal f(s) = f(s)\n  proof\n    ring\n  qed\n")
    rep = run_suite(parse_theory(src), plan())
    assert rep.label == "identity" and rep.passed
    src2 = ("theory q2\n  vars x : Real\n  goal forall k, k * x = x * k\n"
            "  proof\n    intro k\n    ring\n  qed\n")
    rep2 = run_suite(parse_theory(src2), plan())
    assert rep2.label == "identity" and rep2.passed


IMPLICIT_STATE = ("theory q\n  fns f : State -> Real\n  hyp h : f(s1) = 2\n"
                  "  goal f(s1) * f(s1) = RHS\n  proof\n    rw h\n    ring\n  qed\n")


def test_applications_at_an_implicit_state_are_grounded():
    # s1 is in scope without a declaration, so f(s1) is a sampled name
    rep = run_suite(parse_theory(IMPLICIT_STATE.replace("RHS", "4")), plan())
    assert rep.label == "identity" and rep.passed and rep.samples == 40
    rep = run_suite(parse_theory(IMPLICIT_STATE.replace("RHS", "5")), plan())
    assert rep is not None and not rep.passed


def _goal_only(goal, decls="  vars x : Real\n  fns g : State -> Real\n"):
    return parse_theory(f"theory q\n{decls}  goal {goal}\n"
                        "  proof\n    use 0\n    ring\n  qed\n")


def test_claimed_exists_takes_only_an_instance_naming_its_witness():
    # the instance does not name k, so it stays a claim and is refuted
    rep = run_suite(_goal_only("exists k, x = 1"), plan())
    assert rep is not None and not rep.passed
    # the one instance defines k: no claim is left to compare
    assert run_suite(_goal_only("exists k, k = x"), plan()) is None
    # a witness inside an application cannot be picked by grounding
    assert run_suite(_goal_only("exists k, g(k) = g(x)"), plan()) is None


def test_applications_meeting_at_one_point_are_not_checked():
    # the kernel closes both by congruence on equal arguments; grounding
    # names each application apart, so the oracle does not take them
    assert run_suite(_goal_only("g(x + 1) = g(1 + x)"), plan()) is None
    assert run_suite(_goal_only("g(g(x + 1)) = g(g(1 + x))"), plan()) is None
    t = parse_theory("theory q\n  vars x y : Real\n  fns g : State -> Real\n"
                     "  hyp h : x = y\n  goal g(x) = g(y)\n"
                     "  proof\n    rw h\n    ring\n  qed\n")
    assert run_suite(t, plan()) is None
    # applications at points that differ are still compared
    rep = run_suite(_goal_only("g(x + 1) = g(x)"), plan())
    assert rep is not None and not rep.passed


# -- grounded theories -------------------------------------------------------------

# For each builtin that once had a model picked by its name, a goal the
# builtin does not prove.
PERTURBED_GOALS = {
    "boyles_law_relation":
        "(exists k, forall j, Pfn(j) * Vfn(j) = k) -> forall n m, Pfn(n) = Pfn(m)",
    "boyles_law_relation'":
        "(forall n m, Pfn(n) * Vfn(n) = Pfn(m) * Vfn(m)) -> exists k, forall j, Pfn(j) = k",
    "boyles_from_ideal_gas": "exists k, forall n, volume(n) = k",
    "charles_from_ideal_gas": "exists k, forall n, volume(n) * temperature(n) = k",
    "avogadro_from_ideal_gas": "exists k, forall n, volume(n) * substance_amount(n) = k",
    "const_accel": "forall t, velocity(t) = t * A / 2 + velocity(0)",
    "const_accel'": "forall t, position(t) = t^2 * A + t * velocity(0) + position(0)",
    "const_accel''_minus":
        "forall t, position(t) = t / 2 * (velocity(t) + velocity(0)) + t * velocity(0) + position(0)",
    "const_accel''_plus": "forall t, position(t) = (velocity(t) - velocity(0)) / 2 * t + position(0)",
    "torricelli_scalar":
        "forall t, velocity(t)^2 = velocity(0)^2 + A * (position(t) - position(0))",
    "antideriv_const_demo": "forall t, F(t) = t * k + F(1)",
}


@pytest.mark.parametrize("name", sorted(PERTURBED_GOALS))
def test_perturbed_goal_fails(name):
    src = re.sub(r"(?m)^  goal .*$", lambda m: "  goal " + PERTURBED_GOALS[name],
                 load_script(name))
    rep = run_suite(parse_theory(src), plan())
    assert rep is not None and not rep.passed, name
    assert rep.worst_residual > 0.1


@pytest.mark.parametrize("name", sorted(PERTURBED_GOALS))
def test_renamed_copy_is_checked(name):
    t = parse_theory(load_script(name).replace(f"theory {name}\n",
                                               f"theory {name}_copy\n"))
    assert t.name == name + "_copy"
    rep = run_suite(t, plan())
    assert rep is not None and rep.passed, (name, rep)
    assert rep.label == "identity" and rep.samples == 40


def test_builtin_name_does_not_pick_the_check():
    src = ("theory boyles_law_relation\n  vars x : Real\n  goal x * 0 = 1\n"
           "  proof\n    ring\n  qed\n")
    rep = run_suite(parse_theory(src), plan())
    assert rep.label == "identity"
    assert not rep.passed


def test_pointwise_definitions_become_polynomials():
    # velocity integrates the constant acceleration; both definitions
    # leave the hypotheses, and the goal is claimed at 0 and three points
    names, hyps, claims, apps = numcheck._ground(load_theory("const_accel"))
    assert names == ["A", "#1", "#2", "#3", "velocity(0)"]
    assert hyps == [] and apps == []
    assert len(claims) == 4


def test_grounded_two_state_gas_system_is_solved():
    R, P1, V1, n1, T1, P2, V2, n2, T2 = map(
        Var, ["R", "P1", "V1", "n1", "T1", "P2", "V2", "n2", "T2"])
    hyps = [EqF(Mul(P1, V1), Mul(Mul(n1, R), T1)),
            EqF(Mul(P2, V2), Mul(Mul(n2, R), T2)),
            EqF(T1, T2), EqF(n1, n2), Ne0(P1), Ne0(P2)]
    names = [v.name for v in (R, P1, V1, n1, T1, P2, V2, n2, T2)]
    envs = sample_envs(names, hyps, plan(), "two_states")
    assert len(envs) == 40
    for e in envs:
        assert e["T1"] == e["T2"] and e["n1"] == e["n2"]
        for lhs, rhs in ((e["P1"] * e["V1"], e["n1"] * e["R"] * e["T1"]),
                         (e["P2"] * e["V2"], e["n2"] * e["R"] * e["T2"]),
                         (e["P1"] * e["V1"], e["P2"] * e["V2"])):
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))
        assert abs(e["P1"]) > 1e-3 and abs(e["P2"]) > 1e-3


def test_oracle_module_keeps_its_own_route():
    # the oracle must not lean on the symbolic machinery: its only
    # intra-package imports are the shared expression and formula types
    import ast
    import derivkit.numcheck as module

    src = open(module.__file__, encoding="utf-8").read()
    allowed = {"errors", "expr", "formula"}
    bad = []
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module not in allowed:
                bad.append(node.module)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("derivkit"):
                    bad.append(alias.name)
    assert bad == []


NESTED = ("theory nested\n  vars x y : Real\n"
          "  hyp hx0 : 0 < x\n  hyp hx1 : x < 1\n"
          "  hyp hy0 : 0 < y\n  hyp hy1 : y < 1\n"
          "  goal GOAL\n  proof\n    ring\n  qed\n")


def test_suite_guard_skips_a_series_that_holds_an_enclosing_index():
    # the inner body holds the outer index i, so only the outer series
    # is guarded; the claim is false, 2 * i on the right
    off = NESTED.replace("GOAL", "sum[i>=1](x^i * sum[j>=1](i * y^j))"
                                 " = sum[i>=1](sum[j>=1](2 * i * y^j) * x^i)")
    rep = run_suite(parse_theory(off), plan(count=5))
    assert rep.label == "identity"
    assert not rep.passed
    assert rep.worst_residual > 0.1


def test_suite_guards_an_inner_series_free_of_the_outer_index():
    # true; samples with y so close to 1 that the inner series has not
    # converged by the cutoff must be skipped, though the outer term
    # at the cutoff is tiny
    true = parse_theory(NESTED.replace(
        "GOAL", "sum[i>=1](x^i * sum[j>=1](y^j)) = x / (1 - x) * (y / (1 - y))"))
    for seed in range(4):
        rep = run_suite(true, plan(seed=seed, count=100))
        assert rep.passed, (seed, rep.worst_residual)


SHADOW = ("theory shadow\n  vars x y : Real\n  fns f : State -> Real\n"
          "  hyp hy : 0 < y\n  hyp hy1 : y < 1\n"
          "  goal sum[x>=0](f(x) * y^x) = f(0) + sum[x>=1](f(x) * y^x)\n"
          "  proof\n    index_shift\n    ring\n  qed\n")


def test_an_application_at_a_series_index_is_not_grounded():
    # f(x) in the series is f at the index, which shares the declared
    # name x; grounding takes it no more than the renamed index i
    assert run_suite(parse_theory(SHADOW), SamplePlan(0)) is None
    renamed = SHADOW.replace("[x>=", "[i>=").replace("(x) * y^x", "(i) * y^i")
    assert run_suite(parse_theory(renamed), SamplePlan(0)) is None


# a hypothesis, a true goal and its false twin, for the branches of
# grounding that take a power or a quotient in a pointwise definition
# and a conjunction of hypotheses
TWINS = {
    "power": ("hyp hf : forall u, f(u) = u^2", "f(x) = x * x", "f(x) = x * x + x"),
    "quotient": ("hyp hf : forall u, f(u) = u / 2", "f(x) * 2 = x", "f(x) * 3 = x"),
    "conjunction": ("hyp hx : 0 < x /\\ x < 1\n  hyp hy : y = x * x", "y = x * x", "y = x"),
    "series": ("hyp hy : 0 < y /\\ y < 1 / 2\n  hyp hf : forall u, f(u) = sum[k>=1](u * y^k)",
               "f(x) = x * (y / (1 - y))", "f(x) = x * (y / (1 - y)) + 1"),
}


@pytest.mark.parametrize("case", sorted(TWINS))
def test_grounding_passes_a_true_goal_and_refutes_its_twin(case):
    hyps, true, false = TWINS[case]
    src = (f"theory twin\n  vars x y : Real\n  fns f : State -> Real\n  {hyps}\n"
           "  goal GOAL\n  proof\n    ring\n  qed\n")
    rep = run_suite(parse_theory(src.replace("GOAL", true)), SamplePlan(0))
    assert rep.label == "identity" and rep.passed
    rep = run_suite(parse_theory(src.replace("GOAL", false)), SamplePlan(0))
    assert rep.label == "identity" and not rep.passed
    assert rep.worst_residual > 0.1


def test_pointwise_definition_linear_through_a_series_becomes_a_polynomial():
    src = (f"theory twin\n  vars x y : Real\n  fns f : State -> Real\n  {TWINS['series'][0]}\n"
           "  goal f(x) = x\n  proof\n    ring\n  qed\n")
    names, _, _, apps = numcheck._ground(parse_theory(src))
    assert names == ["x", "y"] and apps == []
