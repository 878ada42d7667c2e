"""Canonical forms: opaque-atom mode and full rational mode."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from derivkit.expr import (Add, App, Const, Div, Mul, Neg, Pow,
                           SeriesSum, Sub, Var, eval_expr)
from derivkit.ringnorm import Normalizer

x, y = Var("x"), Var("y")


def akey(e):
    return Normalizer().atom_key(e)


def test_ring_equalities_mod_commutativity():
    assert akey(Mul(x, y)) == akey(Mul(y, x))
    assert akey(Add(x, Add(y, Const(1)))) == akey(Add(Add(Const(1), y), x))
    assert akey(Sub(Mul(Add(x, y), Sub(x, y)), Const(0))) == \
        akey(Sub(Mul(x, x), Mul(y, y)))


def test_atoms_are_opaque_but_stable():
    n = Normalizer()
    d1 = Div(x, Add(y, Const(1)))
    d2 = Div(x, Add(Const(1), y))
    assert n.atom_key(d1) == n.atom_key(d2)
    assert n.atom_key(d1) != n.atom_key(Div(x, y))


def test_division_by_literal_folds_into_coefficients():
    assert akey(Div(x, Const(2))) == akey(Mul(Const(Fraction(1, 2)), x))
    assert akey(Div(Pow(Var("t"), 2), Const(2))) == \
        akey(Mul(Const(Fraction(1, 2)), Mul(Var("t"), Var("t"))))


def test_division_by_zero_literal_is_zero():
    assert akey(Div(x, Const(0))) == akey(Const(0))
    assert akey(Pow(Const(0), -1)) == akey(Const(0))


def test_quotient_is_a_product_with_one_reciprocal():
    one_minus_x = Sub(Const(1), x)
    assert akey(Mul(Const(2), Div(x, one_minus_x))) == \
        akey(Div(Mul(Const(2), x), one_minus_x))
    assert akey(Pow(x, -2)) == akey(Mul(Div(Const(1), x), Pow(Add(x, Const(0)), -1)))
    # the reciprocal of a product is one atom, not a product of two
    assert akey(Div(Const(1), Mul(x, y))) != akey(Mul(Div(Const(1), x), Div(Const(1), y)))


def test_series_atom_alpha_invariant():
    n = Normalizer()
    a = SeriesSum("i", 1, Pow(x, "i"))
    b = SeriesSum("j", 1, Pow(x, "j"))
    assert n.atom_key(a) == n.atom_key(b)
    c = SeriesSum("i", 0, Pow(x, "i"))
    assert n.atom_key(a) != n.atom_key(c)


def test_app_atoms():
    n = Normalizer()
    f1 = App("f", Add(x, y))
    f2 = App("f", Add(y, x))
    assert n.atom_key(f1) == n.atom_key(f2)
    assert n.atom_key(f1) != n.atom_key(App("g", Add(x, y)))


def test_rational_mode_cancels():
    e1 = Div(Sub(Mul(x, x), Mul(y, y)), Sub(x, y))
    e2 = Add(x, y)
    n = Normalizer()
    assert n.norm(e1) == n.norm(e2)


def test_rational_mode_records_syntactic_denominators():
    n = Normalizer()
    n.norm(Add(Div(x, y), Div(Const(1), Mul(y, Add(x, Const(1))))))
    dens = {n.atom_key(d) for d in n.denominators}
    assert akey(y) in dens
    assert akey(Mul(y, Add(x, Const(1)))) in dens


def test_negative_power_becomes_denominator():
    n = Normalizer()
    assert n.norm(Pow(x, -1)) == n.norm(Div(Const(1), x))


def test_to_expr_round_trips_canonical_form():
    n = Normalizer()
    p = n.atom_poly(Sub(Mul(Add(x, Const(2)), x), Const(1)))
    e = n.to_expr(p)
    assert n.atom_poly(e) == p


_leaf = st.sampled_from([x, y, Const(1), Const(2), Const(Fraction(1, 2))])


def _exprs(depth):
    if depth == 0:
        return _leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        _leaf,
        st.tuples(sub, sub).map(lambda t: Add(*t)),
        st.tuples(sub, sub).map(lambda t: Sub(*t)),
        st.tuples(sub, sub).map(lambda t: Mul(*t)),
        sub.map(Neg),
        st.tuples(sub, st.integers(0, 3)).map(lambda t: Pow(t[0], t[1])),
    )


@given(_exprs(3), st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=80, deadline=None)
def test_atom_normal_form_preserves_value(e, a, b):
    n = Normalizer()
    p = n.atom_poly(e)
    back = n.to_expr(p)
    env = {"x": float(a), "y": float(b)}
    assert eval_expr(e, env) == pytest.approx(eval_expr(back, env), rel=1e-9, abs=1e-9)
