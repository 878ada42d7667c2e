"""Expression construction and float evaluation semantics."""

import math
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from derivkit import expr
from derivkit.errors import NonIntegerPow, UnboundSymbol
from derivkit.expr import (SERIES_CUTOFF, Add, App, Const, Deriv, Div, Expr,
                           Formula, Mul, Neg, Node, Pow, SeriesSum, Sub, Var,
                           children, eval_expr, free_vars, map_children)
from derivkit.formula import (And, Antideriv, AntiderivConst, ApplyLemma,
                              DivergesLeftAt, EqF, Exists, ExistsIntro,
                              FieldNormalize, Forall, Implies, IndexShift,
                              Intro, LimitDivergenceWitness, Lt, Ne0,
                              RewriteWith, RingClose, SeriesGeom,
                              SeriesGeomWeighted, Specialize, Step, Unfold,
                              subst, unfold_lets)


def ev(e, **vars):
    return eval_expr(e, vars)


def test_const_holds_exact_fractions():
    assert Const(Fraction(1, 3)).value == Fraction(1, 3)
    assert Const(7).value == Fraction(7)


def test_const_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        Const(0.5)
    with pytest.raises(TypeError):
        Const(True)


def test_pow_rejects_non_integer_exponent():
    with pytest.raises(NonIntegerPow):
        Pow(Var("x"), Fraction(1, 2))


def test_arithmetic_eval():
    e = Sub(Mul(Add(Var("a"), Const(2)), Var("b")), Neg(Var("a")))
    assert ev(e, a=3.0, b=4.0) == (3 + 2) * 4 + 3


def test_division_by_zero_is_total():
    assert ev(Div(Const(1), Var("x")), x=0.0) == 0.0
    assert ev(Div(Var("y"), Sub(Var("x"), Var("x"))), x=2.0, y=5.0) == 0.0


def test_negative_power_of_zero_is_total():
    assert ev(Pow(Var("x"), -2), x=0.0) == 0.0


def test_unbound_symbol():
    with pytest.raises(UnboundSymbol):
        ev(Var("nope"))


def test_series_partial_sum_cutoff():
    # every term of 1^i is 1, so the sum counts the terms, whether the
    # closed loop or the term-by-term loop sums them
    assert eval_expr(SeriesSum("i", 1, Pow(Var("x"), "i")), {"x": 1.0}) == SERIES_CUTOFF
    assert eval_expr(SeriesSum("i", 1, Var("x")), {"x": 1.0}) == SERIES_CUTOFF
    # (-1)^i alternates, so the last term is the cutoff's
    assert eval_expr(SeriesSum("i", 1, Pow(Var("x"), "i")), {"x": -1.0}) == 0.0


def test_series_start_zero_includes_head():
    assert eval_expr(SeriesSum("i", 0, Pow(Var("x"), "i")), {"x": 1.0}) == SERIES_CUTOFF + 1
    assert eval_expr(SeriesSum("i", 0, Var("x")), {"x": 1.0}) == SERIES_CUTOFF + 1
    assert eval_expr(SeriesSum("i", 0, Pow(Var("x"), "i")), {"x": -1.0}) == 1.0


def test_series_geometric_converges():
    s = SeriesSum("i", 1, Pow(Var("x"), "i"))
    got = eval_expr(s, {"x": 0.5})
    assert abs(got - 1.0) < 1e-12


def test_weighted_series_converges():
    s = SeriesSum("i", 1, Mul(Var("i"), Pow(Var("x"), "i")))
    got = eval_expr(s, {"x": 0.5})
    assert abs(got - 2.0) < 1e-12


def _reference_series(c, k, x, start):
    """sum[i>=start](c * i^k * x^i) term by term to SERIES_CUTOFF, with
    the float operations of the closed loop and no early stop."""
    total = 0.0
    power = x ** start
    for i in range(start, SERIES_CUTOFF + 1):
        total += c * (i ** k if k else 1) * power
        power *= x
    return total


_SMALLEST_NORMAL = 2.2250738585072014e-308
_bases = st.one_of(
    st.floats(-1, 1),
    st.floats(-_SMALLEST_NORMAL, _SMALLEST_NORMAL),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 0.7, -0.7,
                     1 - 2 ** -53, 2.0, -1.5, math.inf, -math.inf, math.nan]))
_constants = st.builds(lambda sign, c: sign * c, st.sampled_from([1.0, -1.0]),
                       st.one_of(st.floats(5e-324, 1e308),
                                 st.sampled_from([5e-324, 1e-310, 1.0, 1e290, 1e305, 1e308])))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0, 1]), st.integers(0, 3), _bases, _constants)
def test_series_early_stop_is_the_full_partial_sum(start, k, x, c):
    # the closed loop stops once no later term can change the sum; the
    # value must still be the whole partial sum, bit for bit, sign of
    # zero, inf and nan included
    body = Pow(Var("x"), "i")
    for _ in range(k):
        body = Mul(Var("i"), body)
    got = eval_expr(SeriesSum("i", start, Mul(Var("c"), body)), {"c": c, "x": x})
    want = _reference_series(c, k, x, start)
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert struct.pack("<d", got) == struct.pack("<d", want)


def test_series_the_closed_loop_declines_is_summed_term_by_term():
    # 1 / i^2 does not factor as c * i^k * x^i, so every term is
    # evaluated with i bound, to SERIES_CUTOFF
    s = SeriesSum("i", 1, Div(Const(1), Pow(Var("i"), 2)))
    assert expr._series_fast(s, {}) is None
    want = 0.0
    for i in range(1, SERIES_CUTOFF + 1):
        want += 1.0 / float(i) ** 2
    assert struct.pack("<d", eval_expr(s, {})) == struct.pack("<d", want)


def test_geometric_terms_reads_the_body_as_factors_index_power_and_base():
    i, x, c, d = Var("i"), Var("x"), Var("c"), Var("d")
    xi = Pow(x, "i")

    def terms(body):
        return expr.geometric_terms(SeriesSum("i", 1, body))

    assert terms(xi) == ([], 0, x)
    assert terms(Mul(xi, i)) == ([], 1, x)
    # the factors come right to left, the order the float sum multiplies
    assert terms(Mul(Mul(c, Mul(i, d)), Mul(xi, i))) == ([d, c], 2, x)
    for other in (c, Mul(xi, xi), Mul(Add(i, c), xi), Pow(i, "i"), Add(xi, c)):
        assert terms(other) is None


def test_app_and_deriv_eval():
    # an application has no value of its own: the oracle grounds it first
    with pytest.raises(UnboundSymbol, match="f"):
        ev(App("f", Var("t")), t=3.0)
    with pytest.raises(UnboundSymbol, match=r"deriv\(f\)"):
        ev(App(Deriv("f"), Var("t")), t=3.0)


def test_free_vars_skips_series_index():
    s = SeriesSum("i", 1, Mul(Var("i"), Pow(Var("x"), "i")))
    assert free_vars(s) == {"x"}
    assert free_vars(Add(Var("a"), App("f", Var("b")))) == {"a", "b"}


def test_substitute_respects_binder():
    s = SeriesSum("i", 1, Mul(Var("i"), Var("x")))
    assert subst(s, {"x": Var("y")}) == SeriesSum("i", 1, Mul(Var("i"), Var("y")))
    assert subst(s, {"i": Var("z")}) == s


def test_substitute_symbolic_exponent_only_by_int():
    s = Pow(Var("x"), "i")
    assert subst(s, {"i": Const(3)}) == Pow(Var("x"), 3)


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_add_mul_agree_with_python(a, b):
    e = Add(Mul(Var("a"), Var("b")), Const(1))
    assert ev(e, a=float(a), b=float(b)) == a * b + 1


# -- the one traversal: every node kind goes through children/map_children


def _one_of_each():
    a, b = Var("a"), Add(Var("b"), Const(2))
    return [Var("x"), Const(3), Add(a, b), Sub(a, b), Mul(a, b), Div(a, b),
            Neg(b), Pow(b, 3), Pow(a, "i"), SeriesSum("i", 1, Pow(a, "i")),
            App("f", b), App(Deriv("f"), b)]


def _node_kinds(cls=Expr):
    out = set()
    for sub in cls.__subclasses__():
        out.add(sub)
        out |= _node_kinds(sub)
    return out


def test_every_node_kind_has_an_instance():
    # a new node kind must be added here, and so be seen by the checks below
    assert {type(e) for e in _one_of_each()} == _node_kinds()


@pytest.mark.parametrize("e", _one_of_each(), ids=repr)
def test_map_children_identity_rebuilds_the_node(e):
    assert map_children(e, lambda c: c) == e


@pytest.mark.parametrize("e", _one_of_each(), ids=repr)
def test_children_lists_every_child_expression(e):
    fields = [getattr(e, f) for f in e._fields]
    assert list(children(e)) == [v for v in fields if isinstance(v, Expr)]
    seen = []
    map_children(e, lambda c: seen.append(c) or c)
    assert seen == list(children(e))


def _one_of_every_kind():
    a, b = Var("a"), Add(Var("b"), Const(2))
    eq = EqF(a, b)
    return _one_of_each() + [
        Deriv("f"),
        eq, Ne0(b), Lt(a, b), Forall((("t", "Real"), ("s", "State")), eq),
        Exists(("t", "Real"), eq), Implies(Lt(a, b), eq), And(eq, Ne0(a)),
        DivergesLeftAt("w", Const(1)),
        RewriteWith("h"), RewriteWith("h", reverse=True), Unfold("w"),
        FieldNormalize(), RingClose(), Intro(("h", "t")), Specialize("h", (a, b)),
        ExistsIntro(b), ApplyLemma("lem"), SeriesGeom(), SeriesGeomWeighted(),
        IndexShift(), AntiderivConst(), Antideriv(),
        LimitDivergenceWitness(8),
    ]


# the repr each node printed as a frozen dataclass; test ids and
# messages depend on it
_B = "Add(left=Var(name='b'), right=Const(value=Fraction(2, 1)))"
_EQ = f"EqF(left=Var(name='a'), right={_B})"
_PINNED_REPRS = [
    "Var(name='x')",
    "Const(value=Fraction(3, 1))",
    f"Add(left=Var(name='a'), right={_B})",
    f"Sub(left=Var(name='a'), right={_B})",
    f"Mul(left=Var(name='a'), right={_B})",
    f"Div(left=Var(name='a'), right={_B})",
    f"Neg(arg={_B})",
    f"Pow(base={_B}, exp=3)",
    "Pow(base=Var(name='a'), exp='i')",
    "SeriesSum(index='i', start=1, body=Pow(base=Var(name='a'), exp='i'))",
    f"App(fn='f', arg={_B})",
    f"App(fn=Deriv(fn='f'), arg={_B})",
    "Deriv(fn='f')",
    _EQ,
    f"Ne0(arg={_B})",
    f"Lt(left=Var(name='a'), right={_B})",
    f"Forall(binders=(('t', 'Real'), ('s', 'State')), body={_EQ})",
    f"Exists(binder=('t', 'Real'), body={_EQ})",
    f"Implies(ante=Lt(left=Var(name='a'), right={_B}), cons={_EQ})",
    f"And(left={_EQ}, right=Ne0(arg=Var(name='a')))",
    "DivergesLeftAt(fn_name='w', point=Const(value=Fraction(1, 1)))",
    "RewriteWith(hyp='h', reverse=False)",
    "RewriteWith(hyp='h', reverse=True)",
    "Unfold(name='w')",
    "FieldNormalize()",
    "RingClose()",
    "Intro(names=('h', 't'))",
    f"Specialize(hyp='h', terms=(Var(name='a'), {_B}))",
    f"ExistsIntro(witness={_B})",
    "ApplyLemma(name='lem')",
    "SeriesGeom()",
    "SeriesGeomWeighted()",
    "IndexShift()",
    "AntiderivConst()",
    "Antideriv()",
    "LimitDivergenceWitness(depth=8)",
]


def test_every_expression_formula_and_step_kind_has_a_pinned_instance():
    kinds = _node_kinds(Expr) | _node_kinds(Formula) | _node_kinds(Step) | {Deriv}
    assert {type(n) for n in _one_of_every_kind()} == kinds
    assert len(_PINNED_REPRS) == len(_one_of_every_kind())


@pytest.mark.parametrize("i", range(len(_PINNED_REPRS)),
                         ids=[r.split("(", 1)[0] for r in _PINNED_REPRS])
def test_node_base_keeps_the_dataclass_behaviour(i):
    node, again = _one_of_every_kind()[i], _one_of_every_kind()[i]
    assert repr(node) == _PINNED_REPRS[i]
    assert node is not again and node == again and hash(node) == hash(again)
    assert hash(node) == hash(tuple(getattr(node, f) for f in node._fields))
    name = node._fields[0] if node._fields else "extra"
    with pytest.raises(AttributeError):
        setattr(node, name, Var("z"))
    assert node == again
    # a field that is not a child is not a node, and the traversal
    # refuses it
    for value in (getattr(node, f) for f in node._fields):
        if not isinstance(value, Node):
            for walk in (children, lambda x: map_children(x, lambda c: c)):
                with pytest.raises(TypeError):
                    walk(value)


def test_node_constructor_takes_keywords_and_defaults():
    assert Pow(exp=2, base=Var("x")) == Pow(Var("x"), 2)
    assert RewriteWith(hyp="h") == RewriteWith("h", False)
    with pytest.raises(TypeError):
        Add(Var("x"))
    with pytest.raises(TypeError):
        Add(Var("x"), Var("y"), Var("z"))
    with pytest.raises(TypeError):
        Add(Var("x"), left=Var("y"))


def test_traversal_rejects_non_expressions():
    for walk in (children, lambda x: map_children(x, lambda c: c)):
        with pytest.raises(TypeError):
            walk("x")


def test_subst_vars_is_parallel_and_leaves_the_series_index_alone():
    e = Add(Var("x"), Var("y"))
    swapped = subst(e, {"x": Var("y"), "y": Var("x")})
    assert swapped == Add(Var("y"), Var("x"))
    s = SeriesSum("i", 1, Mul(Var("i"), Pow(Var("x"), "i")))
    got = subst(s, {"i": Const(7), "x": Var("z")})
    assert got == SeriesSum("i", 1, Mul(Var("i"), Pow(Var("z"), "i")))


def test_subst_vars_returns_the_expression_itself_when_no_name_is_free():
    s = SeriesSum("i", 1, Mul(Var("i"), Pow(Var("x"), "i")))
    for e in (Add(Var("x"), Const(1)), s, Mul(Var("y"), s)):
        assert subst(e, {"i": Const(7), "w": Var("z")}) is e
    assert subst(s, {"i": Const(7), "x": Var("z")}) is not s


def test_unfold_lets_expands_earlier_bindings():
    lets = (("u", Add(Var("x"), Const(1))), ("w", Mul(Var("u"), Var("u"))))
    got = unfold_lets(lets)
    assert got["w"] == Mul(Add(Var("x"), Const(1)), Add(Var("x"), Const(1)))
    assert subst(Var("w"), got) == got["w"]
