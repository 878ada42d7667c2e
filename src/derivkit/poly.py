"""Sparse multivariate polynomials over the rationals.

A polynomial is a mapping from monomials to nonzero Fraction
coefficients, where a monomial is a tuple of (variable, exponent)
pairs sorted by variable name. Instances are treated as immutable;
all operations return fresh objects.

Term order is graded lexicographic over the sorted variable list,
which is what leading-term selection, exact division, and the sign
convention for canonical forms all use.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, Optional, Tuple

Mono = Tuple[Tuple[str, int], ...]


def _mono_mul(a: Mono, b: Mono) -> Mono:
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


class Poly:
    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Mono, Fraction]):
        self.terms = {m: c for m, c in terms.items() if c != 0}

    @staticmethod
    def zero() -> "Poly":
        return Poly({})

    @staticmethod
    def const(c) -> "Poly":
        c = Fraction(c)
        return Poly({(): c} if c else {})

    @staticmethod
    def var(name: str) -> "Poly":
        return Poly({((name, 1),): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return all(m == () for m in self.terms)

    def const_value(self) -> Fraction:
        """Value of a constant polynomial (zero if empty)."""
        return self.terms.get((), Fraction(0))

    def vars(self) -> set:
        s = set()
        for m in self.terms:
            for v, _ in m:
                s.add(v)
        return s

    def key(self) -> tuple:
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    def __add__(self, other: "Poly") -> "Poly":
        d = dict(self.terms)
        for m, c in other.terms.items():
            d[m] = d.get(m, Fraction(0)) + c
        return Poly(d)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        d: Dict[Mono, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                d[m] = d.get(m, Fraction(0)) + c1 * c2
        return Poly(d)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly.zero()
        return Poly({m: co * c for m, co in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def degree_in(self, x: str) -> int:
        d = 0
        for m in self.terms:
            for v, e in m:
                if v == x and e > d:
                    d = e
        return d

    def coeff_in(self, x: str, k: int) -> "Poly":
        """Coefficient of x**k, as a polynomial in the remaining variables."""
        d: Dict[Mono, Fraction] = {}
        for m, c in self.terms.items():
            md = dict(m)
            if md.pop(x, 0) == k:
                rest = tuple(sorted(md.items()))
                d[rest] = d.get(rest, Fraction(0)) + c
        return Poly(d)

    def leading(self, varlist=None) -> Tuple[Mono, Fraction]:
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


def derivative(p: Poly, x: str) -> Poly:
    d: Dict[Mono, Fraction] = {}
    for m, c in p.terms.items():
        md = dict(m)
        e = md.get(x, 0)
        if e == 0:
            continue
        if e > 1:
            md[x] = e - 1
        else:
            del md[x]
        nm = tuple(sorted(md.items()))
        d[nm] = d.get(nm, Fraction(0)) + c * e
    return Poly(d)


def rational_content(p: Poly) -> Fraction:
    """Positive rational c such that p/c has coprime integer coefficients."""
    if p.is_zero():
        return Fraction(1)
    num_gcd = 0
    den_lcm = 1
    for c in p.terms.values():
        num_gcd = math.gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    return Fraction(num_gcd, den_lcm)


def normalize_primitive(p: Poly) -> Poly:
    """Scale to coprime integer coefficients and a positive leading one."""
    if p.is_zero():
        return p
    c = rational_content(p)
    _, lead = p.leading()
    if lead < 0:
        c = -c
    return p.scale(1 / c)


def divexact(p: Poly, q: Poly) -> Optional[Poly]:
    """Exact quotient p/q, or None when q does not divide p."""
    if q.is_zero():
        return None
    if p.is_zero():
        return Poly.zero()
    varlist = sorted(p.vars() | q.vars())
    lm_q, lc_q = q.leading(varlist)
    quo: Dict[Mono, Fraction] = {}
    r = p
    while not r.is_zero():
        lm_r, lc_r = r.leading(varlist)
        m = _mono_div(lm_r, lm_q)
        if m is None:
            return None
        c = lc_r / lc_q
        quo[m] = quo.get(m, Fraction(0)) + c
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
    while not r.is_zero():
        dr = r.degree_in(x)
        if dr < db:
            break
        lr = r.coeff_in(x, dr)
        r = r * lb - b * lr * Poly.var(x) ** (dr - db)
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
        return Poly.const(1)
    allvars = sorted(p.vars() | q.vars())
    x = allvars[-1]
    if p.degree_in(x) == 0:
        cq, _ = _content_and_primitive(q, x)
        return poly_gcd(p, cq)
    if q.degree_in(x) == 0:
        cp, _ = _content_and_primitive(p, x)
        return poly_gcd(cp, q)
    cp, a = _content_and_primitive(p, x)
    cq, b = _content_and_primitive(q, x)
    c = poly_gcd(cp, cq)
    if a.degree_in(x) < b.degree_in(x):
        a, b = b, a
    while True:
        r = _prem(a, b, x)
        if r.is_zero():
            g = b
            break
        if r.degree_in(x) == 0:
            g = Poly.const(1)
            break
        _, rp = _content_and_primitive(r, x)
        a, b = b, rp
    if g.is_const():
        return normalize_primitive(c) if not c.is_const() else Poly.const(1)
    _, gp = _content_and_primitive(g, x)
    return normalize_primitive(c * gp)
