"""Sparse polynomial arithmetic, exact division, and gcd."""

import math
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


# -- the same results as Fraction-only arithmetic ----------------------
#
# A reference of the arithmetic as it was when every coefficient was a
# Fraction: polynomials are dicts from monomials to nonzero Fractions.


def _ref(terms):
    return {m: Fraction(c) for m, c in terms.items() if c != 0}


def _ref_mono(d):
    return tuple(sorted((v, e) for v, e in d.items() if e))


def _ref_add(a, b):
    d = dict(a)
    for m, c in b.items():
        d[m] = d.get(m, Fraction(0)) + c
    return _ref(d)


def _ref_sub(a, b):
    return _ref_add(a, {m: -c for m, c in b.items()})


def _ref_mul(a, b):
    d = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            e = dict(m1)
            for v, k in m2:
                e[v] = e.get(v, 0) + k
            m = _ref_mono(e)
            d[m] = d.get(m, Fraction(0)) + c1 * c2
    return _ref(d)


def _ref_pow(a, n):
    out = {(): Fraction(1)}
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


def _ref_vars(a):
    return {v for m in a for v, _ in m}


def _ref_leading(a, varlist=None):
    varlist = sorted(_ref_vars(a)) if varlist is None else varlist
    m = max(a, key=lambda mo: (sum(e for _, e in mo),
                               tuple(dict(mo).get(v, 0) for v in varlist)))
    return m, a[m]


def _ref_divexact(p, q):
    if not q:
        return None
    varlist = sorted(_ref_vars(p) | _ref_vars(q))
    lm_q, lc_q = _ref_leading(q, varlist)
    quo, r = {}, p
    while r:
        lm_r, lc_r = _ref_leading(r, varlist)
        d = dict(lm_r)
        for v, e in lm_q:
            d[v] = d.get(v, 0) - e
        if min(d.values(), default=0) < 0:
            return None
        m, c = _ref_mono(d), lc_r / lc_q
        quo[m] = quo.get(m, Fraction(0)) + c
        r = _ref_sub(r, _ref_mul({m: c}, q))
    return _ref(quo)


def _ref_content(a):
    num, den = 0, 1
    for c in a.values():
        num = math.gcd(num, abs(c.numerator))
        den = den * c.denominator // math.gcd(den, c.denominator)
    return Fraction(num, den) if a else Fraction(1)


def _ref_primitive(a):
    if not a:
        return a
    c = _ref_content(a)
    if _ref_leading(a)[1] < 0:
        c = -c
    return {m: v / c for m, v in a.items()}


def _ref_coeff(a, x, k):
    d = {}
    for m, c in a.items():
        md = dict(m)
        if md.pop(x, 0) == k:
            rest = _ref_mono(md)
            d[rest] = d.get(rest, Fraction(0)) + c
    return _ref(d)


def _ref_degree(a, x):
    return max((e for m in a for v, e in m if v == x), default=0)


def _ref_content_in(a, x):
    cont = {}
    for k in range(_ref_degree(a, x) + 1):
        ck = _ref_coeff(a, x, k)
        if ck:
            cont = _ref_gcd(cont, ck)
    return cont, _ref_divexact(a, cont)


def _ref_prem(a, b, x):
    db = _ref_degree(b, x)
    lb, r = _ref_coeff(b, x, db), a
    while r and _ref_degree(r, x) >= db:
        dr = _ref_degree(r, x)
        shift = {((x, dr - db),): Fraction(1)}
        r = _ref_sub(_ref_mul(r, lb), _ref_mul(_ref_mul(b, _ref_coeff(r, x, dr)), shift))
    return r


def _ref_gcd(p, q):
    one = {(): Fraction(1)}
    if not p or not q:
        return _ref_primitive(p or q)
    if all(m == () for m in p) or all(m == () for m in q):
        return one
    x = sorted(_ref_vars(p) | _ref_vars(q))[-1]
    if _ref_degree(p, x) == 0:
        return _ref_gcd(p, _ref_content_in(q, x)[0])
    if _ref_degree(q, x) == 0:
        return _ref_gcd(_ref_content_in(p, x)[0], q)
    (cp, a), (cq, b) = _ref_content_in(p, x), _ref_content_in(q, x)
    c = _ref_gcd(cp, cq)
    if _ref_degree(a, x) < _ref_degree(b, x):
        a, b = b, a
    while True:
        r = _ref_prem(a, b, x)
        if not r or _ref_degree(r, x) == 0:
            g = b if not r else one
            break
        a, b = b, _ref_content_in(r, x)[1]
    if all(m == () for m in g):
        return one if all(m == () for m in c) else _ref_primitive(c)
    return _ref_primitive(_ref_mul(c, _ref_content_in(g, x)[1]))


def _key(terms):
    return tuple(sorted(terms.items())) if terms is not None else None


def _stored_exactly(p):
    """Every coefficient is an int, or a Fraction that is not integral."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in p.terms.values())


frac = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 3]))
mono3 = st.lists(st.sampled_from(["x", "y", "z"]), max_size=3).map(
    lambda vs: tuple(sorted((v, vs.count(v)) for v in set(vs))))
terms = st.dictionaries(mono3, frac, max_size=4)


@given(terms, terms, st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_ring_operations_match_fraction_arithmetic(a, b, n):
    pa, pb, ra, rb = Poly(a), Poly(b), _ref(a), _ref(b)
    for got, want in ((pa + pb, _ref_add(ra, rb)), (pa - pb, _ref_sub(ra, rb)),
                      (pa * pb, _ref_mul(ra, rb)), (pa ** n, _ref_pow(ra, n)),
                      (-pa, _ref_sub({}, ra)), (pa.scale(Fraction(2, 3)),
                                                _ref_mul(ra, {(): Fraction(2, 3)}))):
        assert got.key() == _key(want)
        assert _stored_exactly(got)
    assert rational_content(pa) == _ref_content(ra)
    assert normalize_primitive(pa).key() == _key(_ref_primitive(ra))


@given(terms, terms)
@settings(max_examples=100, deadline=None)
def test_exact_division_matches_fraction_arithmetic(a, b):
    pa, pb, ra, rb = Poly(a), Poly(b), _ref(a), _ref(b)
    for p, q, rp, rq in ((pa * pb, pb, _ref_mul(ra, rb), rb), (pa, pb, ra, rb)):
        got = divexact(p, q)
        assert _key(got and got.terms) == _key(_ref_divexact(rp, rq))
        assert got is None or _stored_exactly(got)


@given(terms, terms, terms)
@settings(max_examples=60, deadline=None)
def test_gcd_matches_fraction_arithmetic(a, b, c):
    pa, pb, pc = Poly(a), Poly(b), Poly(c)
    ra, rb, rc = _ref(a), _ref(b), _ref(c)
    for p, q, rp, rq in ((pa, pb, ra, rb), (pa * pc, pb * pc,
                                            _ref_mul(ra, rc), _ref_mul(rb, rc))):
        g = poly_gcd(p, q)
        assert g.key() == _key(_ref_gcd(rp, rq))
        assert _stored_exactly(g)


def test_coefficients_are_ints_where_integral():
    p = Poly({(("x", 1),): Fraction(4, 2), (): 0.5})
    assert p.terms == {(("x", 1),): 2, (): Fraction(1, 2)}
    assert type(p.terms[(("x", 1),)]) is int and type(p.terms[()]) is Fraction
    half = Poly.const(Fraction(1, 2))
    assert type((half + half).const_value()) is int
    assert type((half * Poly.const(2)).const_value()) is int
    assert type(divexact(Poly.const(3), Poly.const(6)).const_value()) is Fraction
    assert type(divexact(Poly.const(6), Poly.const(3)).const_value()) is int
    # a product with the constant 1 is the other operand itself
    assert x * one is x and one * x is x
