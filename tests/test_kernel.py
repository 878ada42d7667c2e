"""Checker semantics, one proof step family at a time."""

import pytest
from hypothesis import example, given, settings, strategies as st

from derivkit.errors import UndeclaredSymbol
from derivkit.kernel import (LemmaEntry, NUMERIC_CERTIFIED, SYMBOLIC,
                             check_theory)
from derivkit.numcheck import SamplePlan, run_suite
from derivkit.parser import parse_theory
from derivkit.ringnorm import Normalizer


def run(src, pool=None, seed=0):
    return check_theory(parse_theory(src), pool, seed)


def theory(*lines):
    return "\n".join(("theory t",) + lines) + "\n"


# -- ring and goal closure ---------------------------------------------------


def test_ring_closes_polynomial_identity():
    r = run(theory(
        "  vars x y : Real",
        "  goal (x + y)^2 = x^2 + 2 * x * y + y^2",
        "  proof", "    ring", "  qed"))
    assert r.accepted and r.failure is None
    assert r.soundness == SYMBOLIC
    assert [s.step for s in r.steps] == ["ring"]


def test_ring_rejects_unequal_sides():
    r = run(theory(
        "  vars x y : Real",
        "  goal x = y",
        "  proof", "    ring", "  qed"))
    assert not r.accepted
    assert r.failure == (1, "StepFailed: sides are not equal as ring expressions")
    assert r.steps == []


def test_step_after_closure_rejected():
    r = run(theory(
        "  vars x : Real",
        "  goal x = x",
        "  proof", "    ring", "    ring", "  qed"))
    assert not r.accepted
    assert r.failure == (2, "StepFailed: goal is already closed")


def test_goal_left_open_is_reported():
    r = run(theory(
        "  vars x y : Real",
        "  hyp h : x = y",
        "  goal x = y",
        "  proof", "  qed"))
    assert not r.accepted
    assert r.failure[0] is None
    assert r.failure[1].startswith("GoalNotClosed")


def test_trailing_goal_that_holds_needs_no_closing_step():
    r = run(theory(
        "  vars x y : Real",
        "  hyp h : x = y",
        "  goal x = y",
        "  proof", "    rw h", "  qed"))
    assert r.accepted
    assert r.steps[0].goal_after == "y = y"


def test_empty_proof_accepted_when_goal_discharges():
    r = run(theory(
        "  vars x : Real",
        "  hyp hx : 0 < x",
        "  goal 0 < x^2",
        "  proof", "  qed"))
    assert r.accepted


# -- rewriting and unfolding -------------------------------------------------


def test_rewrite_matches_modulo_ring_normal_form():
    r = run(theory(
        "  vars x y : Real",
        "  hyp h : x + 0 = y",
        "  goal x = y",
        "  proof", "    rw h", "  qed"))
    assert r.accepted


def test_rewrite_reverse_direction():
    r = run(theory(
        "  vars x y : Real",
        "  hyp h : y = x",
        "  goal x = y",
        "  proof", "    rw h <-", "  qed"))
    assert r.accepted


def test_rewrite_without_occurrence_fails():
    r = run(theory(
        "  vars x y z : Real",
        "  hyp h : z = y",
        "  goal x = x",
        "  proof", "    rw h", "  qed"))
    assert r.failure == (1, "StepFailed: no occurrence of the left-hand side of 'h'")


def test_rewrite_with_non_equation_fails():
    r = run(theory(
        "  vars x : Real",
        "  hyp h : 0 < x",
        "  goal x = x",
        "  proof", "    rw h", "  qed"))
    assert r.failure == (1, "StepFailed: hypothesis 'h' is not an equation")


@pytest.mark.parametrize("let", [[], ["  let w := x * 2"]], ids=["no let", "let"])
def test_rewrite_normalizes_each_node_once(monkeypatch, let):
    """rw compares the normal form of every subterm of the goal, lets
    unfolded, with the pattern's. The normalizer remembers each binary
    node's form, and the unfolded subterms are built from each other, so
    over an n-term goal it does O(n) work, not O(n^2)."""
    n = 100
    first = ["w"] if let else []
    calls = 0
    norm = Normalizer._norm

    def counted(self, e, rational):
        nonlocal calls
        calls += 1
        return norm(self, e, rational)

    monkeypatch.setattr(Normalizer, "_norm", counted)
    r = run(theory(
        "  vars x y : Real", *let,
        "  hyp h : y = x",
        f"  goal {' + '.join(first + ['x'] * n + ['y'])}"
        f" = {' + '.join(first + ['x'] * (n + 1))}",
        "  proof", "    rw h", "    ring", "  qed"))
    assert r.accepted
    assert calls <= 20 * n


def test_unfold_replaces_let_body():
    r = run(theory(
        "  vars x : Real",
        "  let a := x + 1",
        "  goal a = x + 1",
        "  proof", "    unfold a", "  qed"))
    assert r.accepted
    assert r.steps[0].goal_after == "x + 1 = x + 1"


def test_unfold_unknown_name_fails():
    r = run(theory(
        "  vars x : Real",
        "  goal x = x",
        "  proof", "    unfold a", "  qed"))
    assert r.failure == (1, "StepFailed: 'a' is not a let binding")


def test_unfold_fails_when_only_a_series_index_binds_the_name():
    r = run(theory(
        "  vars x : Real",
        "  let i := x",
        "  goal sum[i>=1](x^i) = sum[i>=1](x^i)",
        "  proof", "    unfold i", "  qed"))
    assert r.failure == (1, "StepFailed: no occurrence of 'i' in the goal")


# -- field normalization -----------------------------------------------------


def test_field_normalize_emits_denominator_obligation():
    r = run(theory(
        "  vars x : Real",
        "  hyp hx : x != 0",
        "  goal 1 / x + 1 = (1 + x) / x",
        "  proof", "    field_normalize", "    ring", "  qed"))
    assert r.accepted
    assert r.steps[0].obligations == ["x != 0"]


def test_field_normalize_fails_without_nonzero_fact():
    r = run(theory(
        "  vars x : Real",
        "  goal 1 / x + 1 = (1 + x) / x",
        "  proof", "    field_normalize", "    ring", "  qed"))
    assert not r.accepted
    assert r.failure == (1, "ObligationFailed: x != 0")


def test_field_normalize_skips_literal_denominators():
    r = run(theory(
        "  vars x : Real",
        "  goal x / 2 = 0.5 * x",
        "  proof", "    field_normalize", "    ring", "  qed"))
    assert r.accepted
    assert r.steps[0].obligations == []


# -- quantifiers -------------------------------------------------------------


def test_intro_forall_then_close():
    r = run(theory(
        "  vars x : Real",
        "  goal forall k, k * x = x * k",
        "  proof", "    intro k", "    ring", "  qed"))
    assert r.accepted


def test_intro_implication_makes_hypothesis():
    r = run(theory(
        "  vars x : Real",
        "  goal 0 < x -> x != 0",
        "  proof", "    intro h", "  qed"))
    assert r.accepted


def test_intro_clashing_name_rejected():
    r = run(theory(
        "  vars x : Real",
        "  goal forall k, k * x = x * k",
        "  proof", "    intro x", "    ring", "  qed"))
    assert not r.accepted
    assert r.failure[0] == 1
    assert r.failure[1].startswith("DuplicateName")


def test_intro_on_plain_equation_fails():
    r = run(theory(
        "  vars x : Real",
        "  goal x = x",
        "  proof", "    intro k", "  qed"))
    assert r.failure == (1, "StepFailed: nothing to introduce for 'k'")


def test_specialize_numbers_instances():
    r = run(theory(
        "  vars x y : Real",
        "  hyp hall : forall k, k * x = x * k",
        "  goal 3 * x - y * x = x * 3 - x * y",
        "  proof",
        "    specialize hall 3",
        "    specialize hall y",
        "    rw hall_1",
        "    rw hall_2",
        "  qed"))
    assert r.accepted


def test_specialize_too_many_terms():
    r = run(theory(
        "  vars x : Real",
        "  hyp hall : forall k, k * x = x * k",
        "  goal x = x",
        "  proof", "    specialize hall 1 2", "    ring", "  qed"))
    assert r.failure == (1, "StepFailed: too many terms for 'hall'")


def test_use_provides_existential_witness():
    r = run(theory(
        "  vars x : Real",
        "  goal exists w, w + x = x + 1",
        "  proof", "    use 1", "    ring", "  qed"))
    assert r.accepted


def test_use_on_equation_fails():
    r = run(theory(
        "  vars x : Real",
        "  goal x = x",
        "  proof", "    use 1", "  qed"))
    assert r.failure == (1, "StepFailed: use needs an existential goal")


def test_witness_symbols_are_checked():
    r = run(theory(
        "  vars x : Real",
        "  goal exists w, w = x",
        "  proof", "    use z", "  qed"))
    assert not r.accepted
    assert r.failure == (1, "UnboundSymbol: unbound symbol: z")


# the parser (a term in a goal) and the kernel (the same term as a `use`
# witness) follow one scope rule; u is bound by a quantifier, and f
# makes s1 and s2 implicit states
SCOPE = ("theory scope", "  vars x : Real", "  fns f : State -> Real",
         "  let w := x * x")


def _parser_unbound(term):
    try:
        parse_theory("\n".join(SCOPE + (f"  goal forall u, {term} = {term}",
                                          "  proof", "  qed")))
    except UndeclaredSymbol as e:
        return e.name
    return None


def _kernel_unbound(term):
    r = run("\n".join(SCOPE + ("  goal forall u, exists k, k = k", "  proof",
                               "    intro u", f"    use {term}", "  qed")))
    if r.accepted:
        return None
    assert r.failure[1].startswith("UnboundSymbol: unbound symbol: ")
    return r.failure[1].rsplit(" ", 1)[1]


@pytest.mark.parametrize("term, unbound", [
    ("y", "y"),
    ("g(x)", "g"),
    ("deriv(w)(x)", None),
    ("deriv(v)(x)", "v"),
    ("x^j", "j"),
    ("sum[i>=1](x^i)", None),
    ("u * x", None),
    ("f(s1)", None),
])
def test_parser_and_kernel_share_one_scope_rule(term, unbound):
    assert _parser_unbound(term) == unbound
    assert _kernel_unbound(term) == unbound


# -- lemma application -------------------------------------------------------


TRIVIAL_LEMMA = theory(
    "  vars x y : Real",
    "  goal x * y + y * x = 2 * (x * y)",
    "  proof", "    ring", "  qed").replace("theory t", "theory double_prod")

# its goal keeps an opaque series atom, so the difference polynomial
# is nonzero and consumers close by exhibiting a quotient
SERIES_LEMMA = theory(
    "  vars x : Real",
    "  hyp h0 : 0 < x",
    "  hyp h1 : x < 1",
    "  goal sum[i>=1](x^i) = x / (1 - x)",
    "  proof", "    series_geom", "  qed").replace("theory t", "theory geo")


def make_pool():
    pool = {}
    for src in (TRIVIAL_LEMMA, SERIES_LEMMA):
        lem = parse_theory(src)
        res = check_theory(lem)
        assert res.accepted, res.failure
        pool[lem.name] = LemmaEntry(lem, True)
    return pool


def test_apply_closes_scaled_instance():
    r = run(theory(
        "  vars x : Real",
        "  hyp h0 : 0 < x",
        "  hyp h1 : x < 1",
        "  goal 2 * sum[i>=1](x^i) = 2 * x / (1 - x)",
        "  proof", "    apply geo", "  qed"), pool=make_pool())
    assert r.accepted, r.failure


def test_apply_rejects_non_multiple():
    r = run(theory(
        "  vars x : Real",
        "  hyp h0 : 0 < x",
        "  hyp h1 : x < 1",
        "  goal sum[i>=1](x^i) = x",
        "  proof", "    apply geo", "  qed"), pool=make_pool())
    assert r.failure == (1, "StepFailed: goal difference is not a multiple of 'geo'")


def test_apply_trivial_lemma_closes_trivial_goal():
    r = run(theory(
        "  vars x y : Real",
        "  goal 3 * (x * y + y * x) = 3 * (2 * (x * y))",
        "  proof", "    apply double_prod", "  qed"), pool=make_pool())
    assert r.accepted


def test_apply_trivial_lemma_cannot_close_real_goal():
    r = run(theory(
        "  vars x y : Real",
        "  goal x = y",
        "  proof", "    apply double_prod", "  qed"), pool=make_pool())
    assert r.failure == (1, "StepFailed: lemma 'double_prod' is trivial but the goal is not")


def test_apply_unknown_lemma():
    r = run(theory(
        "  vars x : Real",
        "  goal x = x",
        "  proof", "    apply nope", "  qed"))
    assert r.failure == (1, "StepFailed: lemma 'nope' is not available")


def test_apply_rejected_lemma_not_available():
    lem = parse_theory(TRIVIAL_LEMMA)
    pool = {"double_prod": LemmaEntry(lem, False)}
    r = run(theory(
        "  vars x y : Real",
        "  goal x * y + y * x = 2 * (x * y)",
        "  proof", "    apply double_prod", "  qed"), pool=pool)
    assert r.failure == (1, "StepFailed: lemma 'double_prod' is not available")


def test_apply_requires_lemma_hypotheses_present():
    gated = theory(
        "  vars x : Real",
        "  hyp hx : x != 0",
        "  goal x * (1 / x) = 1",
        "  proof", "    field_normalize", "    ring", "  qed"
    ).replace("theory t", "theory inv_cancel")
    lem = parse_theory(gated)
    assert check_theory(lem).accepted
    pool = {"inv_cancel": LemmaEntry(lem, True)}

    missing = run(theory(
        "  vars x : Real",
        "  goal 2 * (x * (1 / x)) = 2 * 1",
        "  proof", "    apply inv_cancel", "  qed"), pool=pool)
    assert missing.failure == (
        1, "StepFailed: hypothesis 'hx' of 'inv_cancel' is not present")

    renamed = run(theory(
        "  vars x : Real",
        "  hyp hz : x != 0",
        "  goal 2 * (x * (1 / x)) = 2 * 1",
        "  proof", "    apply inv_cancel", "  qed"), pool=pool)
    assert renamed.accepted


def test_apply_inequality_lemma_adds_hypothesis():
    gated = theory(
        "  vars x : Real",
        "  hyp hx : 0 < x",
        "  goal 0 < x^2",
        "  proof", "  qed").replace("theory t", "theory sq_pos")
    lem = parse_theory(gated)
    assert check_theory(lem).accepted
    pool = {"sq_pos": LemmaEntry(lem, True)}
    r = run(theory(
        "  vars x : Real",
        "  hyp hx : 0 < x",
        "  goal x^2 != 0",
        "  proof", "    apply sq_pos", "  qed"), pool=pool)
    assert r.accepted


# a lemma whose hypotheses are an existential, an implication, a
# conjunction and a divergence claim; a consumer must hold each of them
SHAPED_LEMMA = theory(
    "  vars x : Real",
    "  hyp he : exists y, x = y * y",
    "  hyp hi : 0 < x -> x != 0",
    "  hyp ha : 0 < x /\\ x < 1",
    "  let w := 1 / (1 - x)",
    "  hyp hd : diverges_left(w, 1)",
    "  goal x * 2 = 2 * x",
    "  proof", "    ring", "  qed").replace("theory t", "theory shaped")

SHAPED_HYPS = {
    "he": "exists y, x = y * y",
    "hi": "0 < x -> x != 0",
    "ha": "0 < x /\\ x < 1",
    "hd": "diverges_left(w, 1)",
}


def _apply_shaped(**hyps):
    lem = parse_theory(SHAPED_LEMMA)
    assert check_theory(lem).accepted
    return run(theory(
        "  vars x : Real",
        "  let w := 1 / (1 - x)",
        *(f"  hyp {n}' : {hyps.get(n, f)}" for n, f in SHAPED_HYPS.items()),
        "  goal x + x = 2 * x",
        "  proof", "    apply shaped", "  qed"),
        pool={"shaped": LemmaEntry(lem, True)})


def test_apply_matches_compound_lemma_hypotheses():
    r = _apply_shaped()
    assert r.accepted, r.failure


def test_apply_matches_an_existential_under_a_renamed_binder():
    r = _apply_shaped(he="exists z, x = z * z")
    assert r.accepted, r.failure


@pytest.mark.parametrize("name, changed", [
    ("he", "exists y, x = y * y * y"),
    ("hi", "0 < x -> x - 1 != 0"),
    ("ha", "0 < x /\\ x < 2"),
    ("hd", "diverges_left(w, 2)"),
])
def test_apply_rejects_a_compound_hypothesis_with_another_body(name, changed):
    r = _apply_shaped(**{name: changed})
    assert r.failure == (
        1, f"StepFailed: hypothesis {name!r} of 'shaped' is not present")


# -- series steps -------------------------------------------------------------


def test_series_geom_produces_closed_form_and_bounds():
    r = run(theory(
        "  vars x : Real",
        "  hyp h0 : 0 < x",
        "  hyp h1 : x < 1",
        "  goal sum[i>=1](x^i) = x / (1 - x)",
        "  proof", "    series_geom", "  qed"))
    assert r.accepted
    assert r.steps[0].obligations == ["0 < x", "x < 1"]


def test_series_geom_needs_bound_facts():
    r = run(theory(
        "  vars x : Real",
        "  hyp h0 : 0 < x",
        "  goal sum[i>=1](x^i) = x / (1 - x)",
        "  proof", "    series_geom", "  qed"))
    assert r.failure == (1, "ObligationFailed: x < 1")


def test_series_geom_weighted_both_factor_orders():
    for body in ("i * x^i", "x^i * i"):
        r = run(theory(
            "  vars x : Real",
            "  hyp h0 : 0 < x",
            "  hyp h1 : x < 1",
            f"  goal sum[i>=1]({body}) = x / (1 - x)^2",
            "  proof", "    series_geom_weighted", "  qed"))
        assert r.accepted, body


def test_series_geom_ignores_zero_based_series():
    r = run(theory(
        "  vars x : Real",
        "  hyp h0 : 0 < x",
        "  hyp h1 : x < 1",
        "  goal sum[i>=0](x^i) = 1 / (1 - x)",
        "  proof", "    series_geom", "  qed"))
    assert r.failure == (1, "StepFailed: no geometric series in the goal")


def test_index_shift_peels_head_term():
    r = run(theory(
        "  vars x : Real",
        "  hyp h0 : 0 < x",
        "  hyp h1 : x < 1",
        "  goal sum[i>=0](x^i) = 1 / (1 - x)",
        "  proof",
        "    index_shift",
        "    series_geom",
        "    field_normalize",
        "    ring",
        "  qed"))
    assert r.accepted
    assert "sum[i>=1]" in r.steps[0].goal_after


def test_index_shift_without_zero_based_series():
    r = run(theory(
        "  vars x : Real",
        "  goal sum[i>=1](x^i) = x",
        "  proof", "    index_shift", "  qed"))
    assert r.failure == (1, "StepFailed: no zero-based series in the goal")


# -- antiderivative schemas ----------------------------------------------------


def test_antideriv_const_recovers_linear_growth():
    r = run(theory(
        "  fns g gd : State->Real",
        "  const B : Real",
        "  hyp hd : forall u, deriv(g)(u) = gd(u)",
        "  hyp hc : forall u, gd(u) = B",
        "  goal forall t, g(t) = t * B + g(0)",
        "  proof", "    antideriv_const", "  qed"))
    assert r.accepted
    assert r.soundness == SYMBOLIC


def test_antideriv_const_checks_initial_value():
    r = run(theory(
        "  fns g gd : State->Real",
        "  const B : Real",
        "  hyp hd : forall u, deriv(g)(u) = gd(u)",
        "  hyp hc : forall u, gd(u) = B",
        "  goal forall t, g(t) = t * B + 1",
        "  proof", "    antideriv_const", "  qed"))
    assert r.failure == (
        1, "StepFailed: right side must vanish at zero apart from the initial value")


def test_antideriv_matches_polynomial_rate():
    r = run(theory(
        "  fns g gd : State->Real",
        "  const B : Real",
        "  hyp hd : forall u, deriv(g)(u) = gd(u)",
        "  hyp hc : forall u, gd(u) = B * u",
        "  goal forall t, g(t) = g(0) + B * t^2 / 2",
        "  proof", "    antideriv", "  qed"))
    assert r.accepted


def test_antideriv_requires_initial_value_term():
    r = run(theory(
        "  fns g gd : State->Real",
        "  const B : Real",
        "  hyp hd : forall u, deriv(g)(u) = gd(u)",
        "  hyp hc : forall u, gd(u) = B * u",
        "  goal forall t, g(t) = B * t^2 / 2",
        "  proof", "    antideriv", "  qed"))
    assert r.failure == (
        1, "StepFailed: right side must vanish at zero apart from the initial value")


@pytest.mark.parametrize("goal, reason", [
    ("g(0) = g(0)", "goal must be a single universal equation"),
    ("forall t, g(t + 1) = g(0) + B * t",
     "left side must be a function applied to the bound variable"),
    ("forall t, deriv(g)(t) = B",
     "left side must be a function applied to the bound variable"),
])
def test_antideriv_goal_shape(goal, reason):
    r = run(theory(
        "  fns g : State->Real",
        "  const B : Real",
        f"  goal {goal}",
        "  proof", "    antideriv", "  qed"))
    assert r.failure == (1, f"StepFailed: {reason}")


def test_antideriv_rejects_wrong_rate():
    r = run(theory(
        "  fns g gd : State->Real",
        "  const B : Real",
        "  hyp hd : forall u, deriv(g)(u) = gd(u)",
        "  hyp hc : forall u, gd(u) = B * u",
        "  goal forall t, g(t) = g(0) + B * t^3 / 3",
        "  proof", "    antideriv", "  qed"))
    assert not r.accepted
    assert "no hypothesis matches the derivative" in r.failure[1]


def _cancelled_rate(*extra):
    return theory(
        "  fns F : State->Real",
        "  const v : Real",
        "  const k : Real",
        "  hyp hF : forall u, deriv(F)(u) = v",
        *extra,
        "  goal forall t, F(t) = F(0) + v * k * t / k",
        "  proof", "    antideriv_const", "  qed")


def test_antideriv_const_lists_its_denominator_obligation():
    r = run(_cancelled_rate("  hyp hk : k != 0"))
    assert r.accepted
    assert r.steps[0].obligations == ["k != 0"]
    assert run(_cancelled_rate()).failure == (1, "ObligationFailed: k != 0")


def test_antideriv_lists_its_denominator_obligation():
    r = run(theory(
        "  fns g gd : State->Real",
        "  const B : Real",
        "  const k : Real",
        "  hyp hd : forall u, deriv(g)(u) = gd(u)",
        "  hyp hc : forall u, gd(u) = B * u",
        "  hyp hk : k != 0",
        "  goal forall t, g(t) = g(0) + k * B * t^2 / (2 * k)",
        "  proof", "    antideriv", "  qed"))
    assert r.accepted
    assert r.steps[0].obligations == ["2 * k != 0"]


@pytest.mark.parametrize("rate, goal, step", [
    ("x / x", "F(t) = 1 * t + F(0)", "antideriv_const"),
    ("2 * u * x / x", "F(t) = t^2 + F(0)", "antideriv"),
])
def test_antideriv_rate_is_matched_without_cancelling(rate, goal, step):
    # x / x is 0, not 1, where x is 0, and nothing here says x != 0
    r = run(theory(
        "  fns F : State->Real",
        "  const x : Real",
        f"  hyp hd : forall u, deriv(F)(u) = {rate}",
        f"  goal forall t, {goal}",
        "  proof", f"    {step}", "  qed"))
    assert r.failure[0] == 1
    assert r.failure[1].startswith("StepFailed: no hypothesis")


KEYWORDS = ("antideriv_const", "antideriv")
RATE_REFUSAL = (1, "StepFailed: no hypothesis matches the derivative of the right side for 'F'")


def _antideriv_theory(rate, rhs, step):
    return theory(
        "  fns F : State->Real",
        "  const a : Real",
        f"  hyp hd : forall u, deriv(F)(u) = {rate}",
        f"  goal forall t, F(t) = F(0) + {rhs}",
        "  proof", f"    {step}", "  qed")


@pytest.mark.parametrize("step", KEYWORDS)
def test_antideriv_value_at_zero_may_enter_the_rate(step):
    # F(0) is a constant in t, so the slope may name it; the oracle has
    # no polynomial for F and runs no numeric check
    t = parse_theory(_antideriv_theory("F(0)", "t * F(0)", step))
    r = check_theory(t)
    assert r.accepted and r.steps[0].obligations == []
    assert run_suite(t, SamplePlan()) is None


# one coefficient of G: n * a^i * F(0)^j with i, j in {0, 1}
COEFFS = st.tuples(st.integers(-3, 3), st.booleans(), st.booleans())


def _coeff(n, with_a, with_f0):
    return " * ".join([f"({n})"] + ["a"] * with_a + ["F(0)"] * with_f0)


@settings(max_examples=60, deadline=None)
@given(st.lists(COEFFS, min_size=3, max_size=3))
@example([(1, True, False), (-2, False, False), (3, True, False)])
def test_antideriv_keywords_are_one_rule(coeffs):
    # G(t) = c1 * t + c2 * t^2 + c3 * t^3, so G(0) = 0 and
    # G'(u) = c1 + 2 * c2 * u + 3 * c3 * u^2
    cs = [_coeff(*c) for c in coeffs]
    rhs = " + ".join(f"{c} * t^{k}" for k, c in enumerate(cs, start=1))
    rate = " + ".join(f"{k} * {c}" + " * u" * (k - 1) for k, c in enumerate(cs, start=1))
    good = [check_theory(parse_theory(_antideriv_theory(rate, rhs, kw))) for kw in KEYWORDS]
    bad = [check_theory(parse_theory(_antideriv_theory(f"{rate} + 1", rhs, kw)))
           for kw in KEYWORDS]
    assert all(r.accepted for r in good)
    for r in bad:
        assert (r.failure, r.steps) == (RATE_REFUSAL, [])
    if not any(with_f0 for _, _, with_f0 in coeffs):
        rep = run_suite(parse_theory(_antideriv_theory(rate, rhs, "antideriv")),
                        SamplePlan(count=20))
        assert rep is not None and rep.passed


# Refusals of the antiderivative rule and the goal-shape guards, each
# with its step and reason. The first row's right side is quadratic in t
# while the derivative is 0, so the rate check refuses it.
REFUSALS = {
    "antideriv_const nonlinear": (
        "fns F : State->Real", "hyp hd : forall u, deriv(F)(u) = 0",
        "forall t, F(t) = t^2 + F(0)", "antideriv_const",
        "no hypothesis matches the derivative of the right side for 'F'"),
    "antideriv nonzero at zero": (
        "fns F : State->Real", "hyp hd : forall u, deriv(F)(u) = 1",
        "forall t, F(t) = F(0) + t + 1", "antideriv",
        "right side must vanish at zero apart from the initial value"),
    "antideriv denominator": (
        "fns F : State->Real\n  const k : Real", "hyp hk : k != 0",
        "forall t, F(t) = F(0) + t / k", "antideriv",
        "right side must have a constant denominator"),
    "antideriv opaque term": (
        "fns F G : State->Real", "hyp hd : forall u, deriv(F)(u) = 1",
        "forall t, F(t) = F(0) + G(t)", "antideriv_const",
        "opaque terms on the right must not involve the bound variable"),
    "rw quantified goal": (
        "vars x : Real", "hyp h : x = 1", "forall t, t * x = t", "rw h",
        "rewriting needs an unquantified goal"),
    "specialize unquantified hypothesis": (
        "vars x : Real", "hyp h : x = 1", "x = 1", "specialize h x",
        "hypothesis 'h' is not universally quantified"),
    **{f"{step} order goal": ("vars x : Real", "hyp hx : 0 < x", "0 < x", step,
                              reason)
       for step, reason in [
           ("ring", "ring needs an equational goal"),
           ("field_normalize", "field_normalize needs an equational goal"),
           ("index_shift", "index_shift needs an equational goal"),
           ("series_geom", "series steps need an equational goal"),
           ("series_geom_weighted", "series steps need an equational goal")]},
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_kernel_refusals(case):
    decls, hyp, goal, step, reason = REFUSALS[case]
    r = run(theory(f"  {decls}", f"  {hyp}", f"  goal {goal}",
                   "  proof", f"    {step}", "  qed"))
    assert not r.accepted
    assert r.failure == (1, f"StepFailed: {reason}")
    assert r.steps == []


# -- divergence witness --------------------------------------------------------


def test_limit_witness_certifies_blowup():
    r = run(theory(
        "  vars P : Real",
        "  let w := 1 / (1 - P)",
        "  goal diverges_left(w, 1)",
        "  proof", "    limit_witness 7", "  qed"))
    assert r.accepted
    assert r.soundness == NUMERIC_CERTIFIED
    assert r.steps[0].obligations == ["0 < 1"]


def test_limit_witness_depth_too_shallow():
    r = run(theory(
        "  vars P : Real",
        "  let w := 1 / (1 - P)",
        "  goal diverges_left(w, 1)",
        "  proof", "    limit_witness 5", "  qed"))
    assert r.failure == (1, "StepFailed: divergence table does not exceed 1e6")


def test_limit_witness_rejects_decreasing_table():
    r = run(theory(
        "  vars P : Real",
        "  let w := 1 - P",
        "  goal diverges_left(w, 1)",
        "  proof", "    limit_witness 4", "  qed"))
    assert not r.accepted
    assert "not increasing" in r.failure[1]


def test_limit_witness_rejects_negative_values():
    r = run(theory(
        "  vars P : Real",
        "  let w := P - 2",
        "  goal diverges_left(w, 1)",
        "  proof", "    limit_witness 4", "  qed"))
    assert not r.accepted
    assert "goes negative" in r.failure[1]


def test_limit_witness_needs_divergence_goal():
    r = run(theory(
        "  vars P : Real",
        "  goal P = P",
        "  proof", "    limit_witness 4", "  qed"))
    assert r.failure == (1, "StepFailed: limit_witness needs a divergence goal")


def test_limit_witness_needs_single_approach_variable():
    r = run(theory(
        "  vars P Q : Real",
        "  let w := 1 / (Q - P)",
        "  goal diverges_left(w, Q)",
        "  proof", "    limit_witness 7", "  qed"))
    assert not r.accepted
    assert "exactly one free variable" in r.failure[1]


def test_limit_witness_point_must_be_constant():
    r = run(theory(
        "  vars P Q : Real",
        "  let w := 1 / (1 - P)",
        "  goal diverges_left(w, Q)",
        "  proof", "    limit_witness 7", "  qed"))
    assert not r.accepted
    assert "constants" in r.failure[1]


def test_limit_witness_solves_a_fact_nonlinear_in_the_latest_constant():
    # b is declared last but b * b = a + 5 is not linear in it, so the
    # solver takes a = b * b - 5; a + 6 is then positive
    r = run(theory(
        "  vars P : Real",
        "  const a : Real",
        "  const b : Real",
        "  hyp h : b * b = a + 5",
        "  let w := (a + 6) / (1 - P)",
        "  goal diverges_left(w, 1)",
        "  proof", "    limit_witness 7", "  qed"))
    assert r.accepted, r.failure
    assert r.soundness == NUMERIC_CERTIFIED


CONTRADICTORY_FACTS = theory(
    "  vars P : Real",
    "  const C : Real",
    "  hyp h1 : 0 < C",
    "  hyp h2 : C < 0",
    "  let w := C / (1 - P)",
    "  goal diverges_left(w, 1)",
    "  proof", "    limit_witness 8", "  qed")


def test_limit_witness_with_contradictory_facts_finds_no_assignment():
    r = run(CONTRADICTORY_FACTS)
    assert r.failure == (1, "StepFailed: no admissible constant assignment found")


def test_contradictory_constant_facts_fail_before_any_draw(monkeypatch):
    # `C < 0` leaves C no value in its positive range on every draw, so
    # the sampler gives up at once: only the sign-grid corners of C are
    # ever solved and checked
    from derivkit import numcheck

    seen = []
    real = numcheck._admitter

    def watched(hyps, eqs):
        admit = real(hyps, eqs)

        def counted(env):
            seen.append(dict(env))
            return admit(env)
        return counted

    monkeypatch.setattr(numcheck, "_admitter", watched)
    r = run(CONTRADICTORY_FACTS)
    assert r.failure == (1, "StepFailed: no admissible constant assignment found")
    assert seen == [{"C": 1e-3}, {"C": 1.0}, {"C": 10.0}]


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("hyp, failure", [
    ("hCL", (2, "ObligationFailed: 0 < 1 / C_L")),
    ("hC1", (2, "StepFailed: divergence table goes negative at offset 1e-2")),
    ("h27", (1, "StepFailed: unknown hypothesis 'h27'")),
])
def test_brunauer_27_without_one_hypothesis(hyp, failure, seed):
    from derivkit.theories import load_script

    src = "\n".join(line for line in load_script("brunauer_27").splitlines()
                    if not line.strip().startswith(f"hyp {hyp} "))
    assert run(src, seed=seed).failure == failure


# -- the failing step ----------------------------------------------------------

# step 1 unfolds a; step 2 fails, whatever the kind of error it raises.
# 1 + x * x != 0 is provable, but not within a budget of one call
STEP_TWO_FAILURES = {
    "unbound use": ("exists w, w = a", "use z",
                    "UnboundSymbol: unbound symbol: z"),
    "unbound specialize": ("a = x", "specialize hall z",
                           "UnboundSymbol: unbound symbol: z"),
    "unbound apply": ("a = x", "apply comm", "UnboundSymbol: unbound symbol: y"),
    "duplicate intro": ("forall k, k * a = a * k", "intro x",
                        "DuplicateName: 'x' is already in scope"),
    "duplicate apply": ("a = x", "apply hall",
                        "DuplicateName: 'hall' is already in scope"),
    "step": ("a = x", "rw nope", "StepFailed: unknown hypothesis 'nope'"),
    "obligation": ("1 / a = 1 / x", "field_normalize", "ObligationFailed: x != 0"),
    "search budget": ("1 / (1 + a * a) = 1", "field_normalize",
                      "SearchBudgetExhausted: 1 + x * x != 0: search budget "
                      "of 1 judgement calls used up"),
}

# a lemma with no hypotheses whose conclusion names its own variable y
COMM_LEMMA = theory(
    "  vars y : Real",
    "  goal forall u, u * y = y * u",
    "  proof", "    intro u", "    ring", "  qed").replace("theory t", "theory comm")


def step_two_pool():
    pool = {}
    for src in (COMM_LEMMA, COMM_LEMMA.replace("theory comm", "theory hall")):
        lem = parse_theory(src)
        assert check_theory(lem).accepted
        pool[lem.name] = LemmaEntry(lem, True)
    return pool


@pytest.mark.parametrize("case", sorted(STEP_TWO_FAILURES))
def test_a_failure_inside_a_step_names_that_step(case, monkeypatch):
    from derivkit import discharge

    goal, step, reason = STEP_TWO_FAILURES[case]
    if case == "search budget":
        monkeypatch.setattr(discharge, "_BUDGET", 1)
    r = run(theory(
        "  vars x : Real",
        "  let a := x",
        "  hyp hall : forall u, u = u",
        f"  goal {goal}",
        "  proof", "    unfold a", f"    {step}", "  qed"), pool=step_two_pool())
    assert not r.accepted
    assert r.failure == (2, reason)
    assert [s.step for s in r.steps] == ["unfold a"]
