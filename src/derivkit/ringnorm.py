"""Canonical forms for expressions, with two treatments of division.

Atom mode (`atom_poly`, `atom_key`) reads a/b as a * inv(b) and x^-k
as inv(x)^k, and keeps every reciprocal inv(e), SeriesSum, and App
node opaque: each one becomes a synthetic ring variable keyed by the
canonical forms of its children. Under total division inv(e) is 1/e,
and 0 where e is 0, so a constant folds in as its reciprocal and
inv(0) is 0. Equality of atom-mode forms therefore implies pointwise
equality under the total-division semantics, with no side conditions.
This is the mode used for matching and for closing goals.

Rational mode (`norm`, `norm_raw`, `key`) instead clears Div through
num/den arithmetic. That is only sound where the denominators are
nonzero, so the normalizer records every syntactic denominator it
divides through; callers must discharge a nonzeroness obligation for
each one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from .expr import (Add, App, Const, Deriv, Div, Expr, Mul, Neg, Pow, SeriesSum,
                   Sub, Var, free_vars)
from .formula import fresh, subst
from .poly import ONE, Poly, _gl_key, divexact, poly_gcd, primitive_factor

RatPair = Tuple[Poly, Poly]

_INDEX_PLACEHOLDER = "@i"


def rat_canon(num: Poly, den: Poly) -> RatPair:
    """Reduce num/den to canonical form.

    The gcd is divided out, the denominator is scaled to coprime
    integer coefficients with positive leading coefficient, and a zero
    numerator or identically zero denominator collapses to 0/1 (the
    latter by the total-division convention).
    """
    if num.is_zero() or den.is_zero():
        return Poly.zero(), ONE
    g = poly_gcd(num, den)
    if g != ONE:
        num = divexact(num, g)
        den = divexact(den, g)
    u = primitive_factor(den)
    return num.scale(u), den.scale(u)


class Normalizer:
    """Shared-table normalizer; reuse one instance across the
    expressions a single comparison or rewrite needs to relate, so
    that equal opaque subterms receive the same synthetic variable."""

    def __init__(self):
        self._atoms: Dict[tuple, str] = {}
        self._reps: Dict[str, Expr] = {}
        self.denominators: List[Expr] = []
        # atom mode: id of a Div or binary node -> (node, its polynomial);
        # holding the node keeps its id from being reused
        self._polys: Dict[int, Tuple[Expr, Poly]] = {}

    # -- public API --------------------------------------------------

    def norm(self, e: Expr) -> RatPair:
        """Canonical rational form; records the denominators crossed."""
        return rat_canon(*self._norm(e, True))

    def norm_raw(self, e: Expr) -> RatPair:
        """Uncancelled num/den pair; exact for nonzeroness splitting."""
        return self._norm(e, True)

    def key(self, e: Expr) -> tuple:
        n, d = self.norm(e)
        return n.key(), d.key()

    def atom_key(self, e: Expr) -> tuple:
        return self.atom_poly(e).key()

    def atom_poly(self, e: Expr) -> Poly:
        return self._norm(e, False)[0]

    def opaque_names(self, p: Poly) -> set:
        """The free names inside the opaque atoms of p."""
        return set().union(*(free_vars(self._reps[v]) for v in p.vars()
                             if v in self._reps))

    # -- internals ---------------------------------------------------

    def _atom(self, kind_key: tuple, rep: Expr) -> Poly:
        name = self._atoms.get(kind_key)
        if name is None:
            name = f"@a{len(self._atoms)}"
            self._atoms[kind_key] = name
            self._reps[name] = rep
        return Poly.var(name)

    def _inv(self, e: Expr) -> Poly:
        """1/e: one atom keyed on e's canonical form, or a constant."""
        n = self.atom_poly(e)
        if n.is_const():
            return Poly.const(Fraction(1) / n.const_value() if n.terms else 0)
        return self._atom(("inv", n.key()), Div(Const(Fraction(1)), e))

    def _norm(self, e: Expr, rational: bool) -> RatPair:
        if isinstance(e, Var):
            return Poly.var(e.name), ONE
        if isinstance(e, Const):
            return Poly.const(e.value), ONE
        if isinstance(e, Neg):
            n, d = self._norm(e.arg, rational)
            return -n, d
        if isinstance(e, (Add, Sub, Mul, Div)):
            if not rational:
                hit = self._polys.get(id(e))
                if hit is not None and hit[0] is e:
                    return hit[1], ONE
            if isinstance(e, Div) and not rational:
                n, d = self._norm(e.left, False)[0] * self._inv(e.right), ONE
            else:
                nl, dl = self._norm(e.left, rational)
                nr, dr = self._norm(e.right, rational)
                if isinstance(e, Add):
                    n, d = nl * dr + nr * dl, dl * dr
                elif isinstance(e, Sub):
                    n, d = nl * dr - nr * dl, dl * dr
                elif isinstance(e, Mul):
                    n, d = nl * nr, dl * dr
                else:
                    self.denominators.append(e.right)
                    n, d = nl * dr, dl * nr
            if not rational:
                self._polys[id(e)] = (e, n)
            return n, d
        if isinstance(e, Pow):
            if isinstance(e.exp, str):
                return self._atom(("ipow", self.atom_key(e.base), e.exp), e), ONE
            k = e.exp
            if k < 0 and not rational:
                return self._inv(e.base) ** (-k), ONE
            n, d = self._norm(e.base, rational)
            if k >= 0:
                return n ** k, d ** k
            self.denominators.append(e.base)
            return d ** (-k), n ** (-k)
        if isinstance(e, SeriesSum):
            # an inner series must not capture an outer one's placeholder
            index = Var(fresh(_INDEX_PLACEHOLDER, free_vars(e)))
            body = subst(e.body, {e.index: index})
            return self._atom(("series", e.start, self.atom_key(body)), e), ONE
        if isinstance(e, App):
            if isinstance(e.fn, Deriv):
                head = ("dapp", e.fn.fn)
            else:
                head = ("app", e.fn)
            return self._atom(head + (self.atom_key(e.arg),), e), ONE
        raise TypeError(f"not an expression: {e!r}")

    # -- reconstruction ----------------------------------------------

    def to_expr(self, p: Poly) -> Expr:
        """Rebuild an expression from a polynomial over this table's
        variables, leading term first."""
        if p.is_zero():
            return Const(Fraction(0))
        varlist = sorted(p.vars())
        monos = sorted(p.terms, key=lambda m: _gl_key(m, varlist), reverse=True)
        acc = None
        for m in monos:
            c = p.terms[m]
            term = self._term_expr(abs(c), m)
            if acc is None:
                acc = term if c > 0 else Neg(term)
            else:
                acc = Add(acc, term) if c > 0 else Sub(acc, term)
        return acc

    def _term_expr(self, coeff: Fraction, mono) -> Expr:
        prod = None
        for v, e in mono:
            base = self._reps.get(v, Var(v))
            factor = base if e == 1 else Pow(base, e)
            prod = factor if prod is None else Mul(prod, factor)
        if prod is None:
            return Const(coeff)
        if coeff == 1:
            return prod
        return Mul(Const(coeff), prod)
