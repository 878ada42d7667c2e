"""Sparse polynomial arithmetic, exact division, and gcd."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from derivkit.poly import (Poly, derivative, divexact, normalize_primitive,
                           poly_gcd, rational_content)


def P(name):
    return Poly.var(name)


x, y, z = P("x"), P("y"), P("z")
one = Poly.const(1)


def test_ring_identities():
    assert x + Poly.zero() == x
    assert x * one == x
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + one) ** 3 == x ** 3 + x * x * Poly.const(3) + x * Poly.const(3) + one


def test_zero_coefficients_are_dropped():
    assert (x - x).is_zero()
    assert (x * y - y * x).terms == {}


def test_const_value():
    p = Poly.const(Fraction(3, 4))
    assert p.is_const() and p.const_value() == Fraction(3, 4)
    assert not (x + one).is_const()


def test_degree_and_coeff():
    p = x * x * y + x * Poly.const(2) + one
    assert p.degree_in("x") == 2
    assert p.degree_in("y") == 1
    assert p.coeff_in("x", 1) == Poly.const(2)
    assert p.coeff_in("x", 2) == y


def test_derivative():
    p = x ** 3 + x * y * Poly.const(2) + Poly.const(5)
    assert derivative(p, "x") == x * x * Poly.const(3) + y * Poly.const(2)
    assert derivative(p, "y") == x * Poly.const(2)
    assert derivative(Poly.const(5), "x").is_zero()


def test_rational_content_and_primitive():
    p = x * Poly.const(Fraction(2, 3)) + y * Poly.const(Fraction(4, 3))
    c = rational_content(p)
    prim = normalize_primitive(p)
    assert prim == x + y * Poly.const(2)
    assert p == prim.scale(c)


def test_divexact():
    assert divexact(x * x - y * y, x - y) == x + y
    assert divexact(x * x + one, x) is None
    assert divexact(Poly.zero(), x) == Poly.zero()


def test_poly_gcd_common_factor():
    a = (x + y) * (x - y)
    b = (x + y) * (x + one)
    g = poly_gcd(a, b)
    assert divexact(a, g) is not None
    assert divexact(b, g) is not None
    assert divexact(g, x + y) is not None


def test_poly_gcd_coprime():
    g = poly_gcd(x + one, y + one)
    assert g.is_const()


coef = st.integers(-4, 4).map(Fraction)
mono = st.lists(st.sampled_from(["x", "y"]), max_size=3).map(
    lambda vs: tuple(sorted((v, vs.count(v)) for v in set(vs))))
poly = st.dictionaries(mono, coef, max_size=4).map(
    lambda d: Poly({m: c for m, c in d.items() if c != 0}))


@given(poly, poly, poly)
@settings(max_examples=60, deadline=None)
def test_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(poly, poly)
@settings(max_examples=60, deadline=None)
def test_product_divides_exactly(a, b):
    if b.is_zero():
        return
    assert divexact(a * b, b) == a


@given(poly, poly)
@settings(max_examples=40, deadline=None)
def test_gcd_divides_both(a, b):
    if a.is_zero() or b.is_zero():
        return
    g = poly_gcd(a, b)
    assert divexact(a, g) is not None
    assert divexact(b, g) is not None
