"""Expression construction and float evaluation semantics."""

import dataclasses
import math
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from derivkit.errors import NonIntegerPow, UnboundSymbol
from derivkit.expr import (SERIES_CUTOFF, Add, App, Const, Deriv, Div, Expr, Mul, Neg,
                           Pow, SeriesSum, Sub, Var, children, eval_expr,
                           free_vars, map_children, subst_vars, substitute,
                           unfold_lets)


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
    s = SeriesSum("i", 1, Pow(Var("x"), "i"))
    assert eval_expr(s, {"x": 0.5}, series_cutoff=3) == 0.5 + 0.25 + 0.125


def test_series_start_zero_includes_head():
    s = SeriesSum("i", 0, Pow(Var("x"), "i"))
    assert eval_expr(s, {"x": 0.5}, series_cutoff=2) == 1 + 0.5 + 0.25


def test_series_geometric_converges():
    s = SeriesSum("i", 1, Pow(Var("x"), "i"))
    got = eval_expr(s, {"x": 0.5}, series_cutoff=2000)
    assert abs(got - 1.0) < 1e-12


def test_weighted_series_converges():
    s = SeriesSum("i", 1, Mul(Var("i"), Pow(Var("x"), "i")))
    got = eval_expr(s, {"x": 0.5}, series_cutoff=2000)
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
    assert substitute(s, "x", Var("y")) == SeriesSum("i", 1, Mul(Var("i"), Var("y")))
    assert substitute(s, "i", Var("z")) == s


def test_substitute_symbolic_exponent_only_by_int():
    s = Pow(Var("x"), "i")
    assert substitute(s, "i", Const(3)) == Pow(Var("x"), 3)


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
    fields = [getattr(e, f.name) for f in dataclasses.fields(e)]
    assert list(children(e)) == [v for v in fields if isinstance(v, Expr)]
    seen = []
    map_children(e, lambda c: seen.append(c) or c)
    assert seen == list(children(e))


def test_traversal_rejects_non_expressions():
    for walk in (children, lambda x: map_children(x, lambda c: c)):
        with pytest.raises(TypeError):
            walk("x")


def test_subst_vars_is_parallel_and_leaves_the_series_index_alone():
    e = Add(Var("x"), Var("y"))
    swapped = subst_vars(e, {"x": Var("y"), "y": Var("x")})
    assert swapped == Add(Var("y"), Var("x"))
    s = SeriesSum("i", 1, Mul(Var("i"), Pow(Var("x"), "i")))
    got = subst_vars(s, {"i": Const(7), "x": Var("z")})
    assert got == SeriesSum("i", 1, Mul(Var("i"), Pow(Var("z"), "i")))


def test_unfold_lets_expands_earlier_bindings():
    lets = (("u", Add(Var("x"), Const(1))), ("w", Mul(Var("u"), Var("u"))))
    got = unfold_lets(lets)
    assert got["w"] == Mul(Add(Var("x"), Const(1)), Add(Var("x"), Const(1)))
    assert subst_vars(Var("w"), got) == got["w"]
