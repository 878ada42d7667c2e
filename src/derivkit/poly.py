"""Sparse multivariate polynomials over the rationals.

A polynomial is a mapping from monomials to nonzero coefficients, where
a monomial is a tuple of (variable, exponent) pairs sorted by variable
name. A coefficient is an int when integral and a Fraction otherwise,
never a float; the two compare and hash alike. Instances are treated
as immutable; operations return fresh objects or an unchanged operand.

Term order is graded lexicographic over the sorted variable list,
which is what leading-term selection, exact division, and the sign
convention for canonical forms all use.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Optional, Tuple, Union

Mono = Tuple[Tuple[str, int], ...]
Coef = Union[int, Fraction]


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a or not b:
        return a or b
    d = dict(a)
    for v, e in b:
        d[v] = d.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in d.items() if e))


def _mono_div(a: Mono, b: Mono) -> Optional[Mono]:
    d = dict(a)
    for v, e in b:
        r = d.get(v, 0) - e
        if r < 0:
            return None
        d[v] = r
    return tuple(sorted((v, e) for v, e in d.items() if e))


def _gl_key(m: Mono, varlist) -> tuple:
    d = dict(m)
    return (sum(d.values()), tuple(d.get(v, 0) for v in varlist))


def _coef(c) -> Coef:
    """c as an int when it is integral, else as a Fraction."""
    if c.__class__ is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Poly:
    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Mono, Coef]):
        self.terms = {m: c if c.__class__ is int else _coef(c)
                      for m, c in terms.items() if c}

    @staticmethod
    def zero() -> "Poly":
        return Poly({})

    @staticmethod
    def const(c) -> "Poly":
        return Poly({(): c})

    @staticmethod
    def var(name: str) -> "Poly":
        return Poly({((name, 1),): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return all(m == () for m in self.terms)

    def const_value(self) -> Coef:
        """Value of a constant polynomial (zero if empty)."""
        return self.terms.get((), 0)

    def vars(self) -> set:
        return {v for m in self.terms for v, _ in m}

    def key(self) -> tuple:
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    def __add__(self, other: "Poly") -> "Poly":
        d = dict(self.terms)
        for m, c in other.terms.items():
            d[m] = d.get(m, 0) + c
        return Poly(d)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.terms, other.terms
        if len(b) == 1 and b.get(()) == 1:
            return self
        if len(a) == 1 and a.get(()) == 1:
            return other
        d: Dict[Mono, Coef] = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = _mono_mul(m1, m2)
                d[m] = d.get(m, 0) + c1 * c2
        return Poly(d)

    def scale(self, c) -> "Poly":
        c = _coef(c)
        if c == 1:
            return self
        return Poly({m: co * c for m, co in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def degree_in(self, x: str) -> int:
        return max((e for m in self.terms for v, e in m if v == x), default=0)

    def coeff_in(self, x: str, k: int) -> "Poly":
        """Coefficient of x**k, as a polynomial in the remaining variables."""
        d: Dict[Mono, Coef] = {}
        for m, c in self.terms.items():
            md = dict(m)
            if md.pop(x, 0) == k:
                rest = tuple(sorted(md.items()))
                d[rest] = d.get(rest, 0) + c
        return Poly(d)

    def leading(self, varlist=None) -> Tuple[Mono, Coef]:
        if not self.terms:
            raise ValueError("leading term of zero polynomial")
        if varlist is None:
            varlist = sorted(self.vars())
        m = max(self.terms, key=lambda mo: _gl_key(mo, varlist))
        return m, self.terms[m]

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        parts = []
        for m, c in sorted(self.terms.items()):
            mono = "*".join(f"{v}^{e}" if e > 1 else v for v, e in m)
            parts.append(f"{c}*{mono}" if mono else f"{c}")
        return "Poly(" + " + ".join(parts) + ")"


ONE = Poly.const(1)


def derivative(p: Poly, x: str) -> Poly:
    d: Dict[Mono, Coef] = {}
    for m, c in p.terms.items():
        e = dict(m).get(x, 0)
        if e:
            nm = tuple((v, k - 1 if v == x else k) for v, k in m if v != x or k > 1)
            d[nm] = d.get(nm, 0) + c * e
    return Poly(d)


def rational_content(p: Poly) -> Fraction:
    """Positive rational c such that p/c has coprime integer coefficients."""
    if p.is_zero():
        return Fraction(1)
    return Fraction(math.gcd(*(c.numerator for c in p.terms.values())),
                    math.lcm(*(c.denominator for c in p.terms.values())))


def primitive_factor(p: Poly) -> Fraction:
    """The factor that scales nonzero p to coprime integer coefficients
    and a positive leading one."""
    c = rational_content(p)
    return Fraction(-1 if p.leading()[1] < 0 else 1) / c


def normalize_primitive(p: Poly) -> Poly:
    """Scale to coprime integer coefficients and a positive leading one."""
    return p if p.is_zero() else p.scale(primitive_factor(p))


def divexact(p: Poly, q: Poly) -> Optional[Poly]:
    """Exact quotient p/q, or None when q does not divide p."""
    if q.is_zero():
        return None
    if p.is_zero() or q == ONE:
        return p
    varlist = sorted(p.vars() | q.vars())
    lm_q, lc_q = q.leading(varlist)
    quo: Dict[Mono, Coef] = {}
    r = p
    while not r.is_zero():
        lm_r, lc_r = r.leading(varlist)
        m = _mono_div(lm_r, lm_q)
        if m is None:
            return None
        c = lc_r // lc_q if type(lc_r) is type(lc_q) is int and not lc_r % lc_q \
            else Fraction(lc_r) / lc_q
        quo[m] = quo.get(m, 0) + c
        r = r - Poly({m: c}) * q
    return Poly(quo)


def _content_and_primitive(p: Poly, x: str) -> Tuple[Poly, Poly]:
    cont = Poly.zero()
    for k in range(p.degree_in(x) + 1):
        ck = p.coeff_in(x, k)
        if not ck.is_zero():
            cont = poly_gcd(cont, ck)
    pp = divexact(p, cont)
    assert pp is not None
    return cont, pp


def _prem(a: Poly, b: Poly, x: str) -> Poly:
    """Pseudo-remainder of a by b, both viewed as univariate in x."""
    db = b.degree_in(x)
    lb = b.coeff_in(x, db)
    r = a
    while not r.is_zero() and (dr := r.degree_in(x)) >= db:
        r = r * lb - b * r.coeff_in(x, dr) * Poly.var(x) ** (dr - db)
    return r


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Greatest common divisor, primitive with positive leading coefficient.

    Primitive pseudo-remainder sequence in the last variable; contents
    live in strictly fewer variables, so the recursion terminates.
    """
    if p.is_zero():
        return normalize_primitive(q)
    if q.is_zero():
        return normalize_primitive(p)
    if p.is_const() or q.is_const():
        return ONE
    x = max(p.vars() | q.vars())
    if p.degree_in(x) == 0:
        return poly_gcd(p, _content_and_primitive(q, x)[0])
    if q.degree_in(x) == 0:
        return poly_gcd(_content_and_primitive(p, x)[0], q)
    cp, a = _content_and_primitive(p, x)
    cq, b = _content_and_primitive(q, x)
    c = poly_gcd(cp, cq)
    if a.degree_in(x) < b.degree_in(x):
        a, b = b, a
    r = _prem(a, b, x)
    while not r.is_zero() and r.degree_in(x) > 0:
        a, b = b, _content_and_primitive(r, x)[1]
        r = _prem(a, b, x)
    g = b if r.is_zero() else ONE
    if g.is_const():
        return normalize_primitive(c) if not c.is_const() else ONE
    _, gp = _content_and_primitive(g, x)
    return normalize_primitive(c * gp)
