"""Surface syntax: lexer, parser, and printer for theory scripts.

The format is line-oriented. A script is a sequence of theories:

    theory langmuir_demo
      vars P K : Real
      hyp hK : 0 < K
      let model := K * P / (1 + K * P)
      goal model * 0 = 0
      proof
        ring
      qed

`--` starts a comment. A handful of unicode aliases are accepted on
input (forall, exists, !=, sum, >=); the printer always emits ASCII.
Printing a parsed theory and reparsing it yields a structurally equal
object.

The parser looks at the next token in one way: `at(value)`, `accept(value)`
and `expect(value)` compare its text alone, for symbols and words alike.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import groupby
from typing import List, Tuple

from .errors import DerivSyntaxError, DuplicateName, UndeclaredSymbol
from .expr import (Add, App, Const, Deriv, Div, Expr, Mul, Neg, Pow, SeriesSum,
                   Sub, Var)
from .formula import (And, DivergesLeftAt, EqF, Exists, Forall, Formula,
                      Implies, Lt, Ne0, REAL, STATE, STEPS, Step, Theory,
                      unbound_symbol, walk)

RESERVED = {
    "theory", "vars", "fns", "const", "hyp", "let", "goal", "proof", "qed",
    "forall", "exists", "sum", "deriv", "diverges_left", "Real", "State",
}

_ALIASES = {
    "∀": "forall ",
    "∃": "exists ",
    "≠": "!=",
    "Σ": "sum",
    "≥": ">=",
}

_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t]+)"
    r"|(?P<comment>--[^\n]*)"
    r"|(?P<nl>\n)"
    r"|(?P<number>\d+(?:\.\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<sym>:=|->|<-|/\\|!=|>=|[:,=<()\[\]+\-*/^])"
)


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.col})"


def _lex(text: str) -> List[Token]:
    for uni, ascii_ in _ALIASES.items():
        text = text.replace(uni, ascii_)
    toks: List[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DerivSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind == "nl":
            if toks and toks[-1].kind != "nl":
                toks.append(Token("nl", "\n", line, col))
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                toks.append(Token(kind, value, line, col))
            col += len(value)
        pos = m.end()
    toks.append(Token("nl", "\n", line, col))
    toks.append(Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, toks: List[Token]):
        self.toks = toks
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def _fail(self, msg: str):
        t = self.peek()
        raise DerivSyntaxError(msg, t.line, t.col)

    # the one token test: a symbol or a word, by its text alone, since
    # no symbol spells a word and neither spells a number, a newline or
    # the end of input

    def at(self, value: str) -> bool:
        return self.toks[self.i].value == value

    def accept(self, value: str) -> bool:
        if self.toks[self.i].value == value:
            self.i += 1
            return True
        return False

    def expect(self, value: str) -> Token:
        t = self.peek()
        if t.value != value:
            self._fail(f"expected {value!r}, found {t.value!r}")
        return self.advance()

    def expect_ident(self, what="identifier") -> Token:
        t = self.peek()
        if t.kind != "ident":
            self._fail(f"expected {what}, found {t.value!r}")
        return self.advance()

    def expect_newline(self):
        t = self.peek()
        if t.kind != "nl":
            self._fail(f"expected end of line, found {t.value!r}")
        self.advance()

    def skip_newlines(self):
        while self.peek().kind == "nl":
            self.advance()

    def fresh_name(self, what="name") -> Token:
        t = self.expect_ident(what)
        if t.value in RESERVED:
            raise DerivSyntaxError(f"{t.value!r} is a reserved word", t.line, t.col)
        return t

    def fresh_names(self, what="name") -> List[str]:
        """One or more new names, up to the first token that is not one."""
        names = [self.fresh_name(what).value]
        while self.peek().kind == "ident":
            names.append(self.fresh_name(what).value)
        return names

    # -- theories -----------------------------------------------------

    def parse_theories(self) -> List[Theory]:
        out = []
        self.skip_newlines()
        while self.peek().kind != "eof":
            out.append(self.parse_theory())
            self.skip_newlines()
        return out

    def parse_theory(self) -> Theory:
        self.expect("theory")
        name = self.fresh_name("theory name").value
        self.expect_newline()
        self.skip_newlines()
        var_decls: List[Tuple[str, str]] = []
        fn_decls: List[str] = []
        const_decls: List[str] = []
        hyps: List[Tuple[str, Formula]] = []
        lets: List[Tuple[str, Expr]] = []
        line_of = {}  # (clause, name) -> line, for _validate
        while not self.at("goal"):
            t = self.peek()
            if t.kind != "ident":
                self._fail(f"expected a declaration or goal, found {t.value!r}")
            if self.accept("vars"):
                names = self.fresh_names()
                # without a sort, the names are real
                sort = REAL
                if self.accept(":"):
                    sort_t = self.expect_ident("sort")
                    if sort_t.value not in (REAL, STATE):
                        raise DerivSyntaxError(
                            f"unknown sort {sort_t.value!r}", sort_t.line, sort_t.col)
                    sort = sort_t.value
                var_decls.extend((n, sort) for n in names)
            elif self.accept("fns"):
                names = self.fresh_names()
                self.expect(":")
                self.expect(STATE)
                self.expect("->")
                self.expect(REAL)
                fn_decls.extend(names)
            elif self.accept("const"):
                n = self.fresh_name().value
                self.expect(":")
                self.expect(REAL)
                const_decls.append(n)
            elif self.accept("hyp"):
                n = self.fresh_name("hypothesis name").value
                self.expect(":")
                hyps.append((n, self.parse_formula()))
                line_of["hyp", n] = t.line
            elif self.accept("let"):
                n = self.fresh_name("let name").value
                self.expect(":=")
                lets.append((n, self.parse_expr()))
                line_of["let", n] = t.line
            else:
                self._fail(f"unexpected clause {t.value!r}")
            self.expect_newline()
            self.skip_newlines()
        line_of["goal", ""] = self.expect("goal").line
        goal = self.parse_formula()
        self.expect_newline()
        self.skip_newlines()
        self.expect("proof")
        self.expect_newline()
        self.skip_newlines()
        steps: List[Step] = []
        while not self.accept("qed"):
            steps.append(self.parse_step())
            self.expect_newline()
            self.skip_newlines()
        theory = Theory(
            name=name,
            var_decls=tuple(var_decls),
            fn_decls=tuple(fn_decls),
            const_decls=tuple(const_decls),
            hyps=tuple(hyps),
            lets=tuple(lets),
            goal=goal,
            steps=tuple(steps),
        )
        _validate(theory, line_of)
        return theory

    # -- steps --------------------------------------------------------

    def parse_step(self) -> Step:
        """A step's keyword, then each field read by its annotated type,
        the inverse of `_field_str`: a name for `str`, an optional `<-`
        for `bool`, an integer for `int`, an expression for `Expr`, new
        names for `Tuple[str, ...]` and terms up to the end of the line
        for `Tuple[Expr, ...]`."""
        t = self.expect_ident("proof step")
        cls = STEPS.get(t.value)
        if cls is None:
            raise DerivSyntaxError(f"unknown proof step {t.value!r}", t.line, t.col)
        values = [self.parse_field(t.value, f, cls.__annotations__[f])
                  for f in cls._fields]
        return cls(*values)

    def parse_field(self, kw: str, field: str, kind: str):
        what = f"the {field} of {kw}"
        if kind == "str":
            return self.expect_ident(what).value
        if kind == "bool":
            return self.accept("<-")
        if kind == "int":
            n = self.peek()
            if n.kind != "number" or "." in n.value:
                self._fail(f"{kw} needs an integer {field}")
            return int(self.advance().value)
        if kind == "Expr":
            return self.parse_expr()
        if kind == "Tuple[str, ...]":
            return tuple(self.fresh_names(what))
        # the one kind left, Tuple[Expr, ...]
        terms = [self.parse_expr()]
        while self.peek().kind != "nl":
            terms.append(self.parse_expr())
        return tuple(terms)

    # -- formulas -----------------------------------------------------

    def parse_formula(self) -> Formula:
        f = self.parse_conj()
        if self.accept("->"):
            return Implies(f, self.parse_formula())
        return f

    def parse_conj(self) -> Formula:
        f = self.parse_atom_formula()
        if self.accept("/\\"):
            return And(f, self.parse_conj())
        return f

    def parse_atom_formula(self) -> Formula:
        if self.accept("forall"):
            names = self.fresh_names("binder")
            self.expect(",")
            body = self.parse_formula()
            return Forall(tuple((n, _binder_sort(n, body)) for n in names), body)
        if self.accept("exists"):
            n = self.fresh_name("binder").value
            self.expect(",")
            body = self.parse_formula()
            return Exists((n, _binder_sort(n, body)), body)
        if self.accept("diverges_left"):
            self.expect("(")
            fn = self.expect_ident().value
            self.expect(",")
            point = self.parse_expr()
            self.expect(")")
            return DivergesLeftAt(fn, point)
        if self.at("("):
            # could open an expression or a nested formula; try the
            # expression route first and fall back once on failure
            save = self.i
            try:
                return self.parse_comparison()
            except DerivSyntaxError:
                self.i = save
            self.expect("(")
            f = self.parse_formula()
            self.expect(")")
            return f
        return self.parse_comparison()

    def parse_comparison(self) -> Formula:
        left = self.parse_expr()
        if self.accept("="):
            return EqF(left, self.parse_expr())
        if self.accept("!="):
            z = self.peek()
            if z.kind != "number" or Fraction(z.value) != 0:
                self._fail("only comparisons with zero are supported after !=")
            self.advance()
            return Ne0(left)
        if self.accept("<"):
            return Lt(left, self.parse_expr())
        self._fail(f"expected a comparison, found {self.peek().value!r}")

    # -- expressions ----------------------------------------------------

    def parse_expr(self) -> Expr:
        e = self.parse_mul()
        while self.peek().value in ("+", "-"):
            op = self.advance().value
            r = self.parse_mul()
            e = Add(e, r) if op == "+" else Sub(e, r)
        return e

    def parse_mul(self) -> Expr:
        e = self.parse_unary()
        while self.peek().value in ("*", "/"):
            op = self.advance().value
            r = self.parse_unary()
            e = Mul(e, r) if op == "*" else Div(e, r)
        return e

    def parse_unary(self) -> Expr:
        if self.accept("-"):
            t = self.peek()
            if t.kind == "number":
                self.advance()
                return self.parse_pow_suffix(Const(-Fraction(t.value)))
            return Neg(self.parse_unary())
        return self.parse_pow_suffix(self.parse_primary())

    def parse_pow_suffix(self, e: Expr) -> Expr:
        while self.accept("^"):
            t = self.peek()
            if self.accept("-"):
                n = self.peek()
                if n.kind != "number" or "." in n.value:
                    self._fail("expected an integer exponent")
                self.advance()
                e = Pow(e, -int(n.value))
            elif t.kind == "number":
                if "." in t.value:
                    self._fail("expected an integer exponent")
                self.advance()
                e = Pow(e, int(t.value))
            elif t.kind == "ident":
                self.advance()
                e = Pow(e, t.value)
            else:
                self._fail("expected an exponent")
        return e

    def parse_primary(self) -> Expr:
        t = self.peek()
        if t.kind == "number":
            self.advance()
            return Const(Fraction(t.value))
        if self.accept("("):
            e = self.parse_expr()
            self.expect(")")
            return e
        if self.accept("deriv"):
            self.expect("(")
            fn = self.expect_ident("function name").value
            self.expect(")")
            self.expect("(")
            arg = self.parse_expr()
            self.expect(")")
            return App(Deriv(fn), arg)
        if self.accept("sum"):
            self.expect("[")
            idx = self.fresh_name("index").value
            self.expect(">=")
            s = self.peek()
            if s.kind != "number" or s.value not in ("0", "1"):
                self._fail("series must start at 0 or 1")
            self.advance()
            self.expect("]")
            self.expect("(")
            body = self.parse_expr()
            self.expect(")")
            return SeriesSum(idx, int(s.value), body)
        if t.kind == "ident":
            if t.value in RESERVED:
                self._fail(f"{t.value!r} is a reserved word")
            self.advance()
            if self.accept("("):
                arg = self.parse_expr()
                self.expect(")")
                return App(t.value, arg)
            return Var(t.value)
        self._fail(f"expected an expression, found {t.value!r}")


def _binder_sort(name: str, body: Formula) -> str:
    """A binder that ever appears directly as a function argument is a
    state; anything else is a real."""
    return STATE if any(isinstance(n, App) and n.arg == Var(name) and name not in bound
                        for n, bound in walk(body)) else REAL


# ---------------------------------------------------------------------------
# validation


def _validate(theory: Theory, line_of) -> None:
    let_names = [n for n, _ in theory.lets]
    seen = set()
    for n in ([n for n, _ in theory.var_decls] + list(theory.fn_decls)
              + list(theory.const_decls) + let_names):
        if n in seen:
            raise DuplicateName(f"duplicate declaration of {n!r}")
        seen.add(n)
    hyp_names = set()
    for n, _ in theory.hyps:
        if n in hyp_names or n in seen:
            raise DuplicateName(f"duplicate hypothesis name {n!r}")
        hyp_names.add(n)

    def check(x, names: set, line: int) -> None:
        bad = unbound_symbol(x, names, theory.fn_decls, let_names)
        if bad is not None:
            raise UndeclaredSymbol(bad, line)

    base = ({n for n, _ in theory.var_decls} | set(theory.const_decls)
            | set(theory.implicit_states()))
    for i, (n, body) in enumerate(theory.lets):
        check(body, base | set(let_names[:i]), line_of.get(("let", n), 0))
    full = base | set(let_names)
    for n, f in theory.hyps:
        check(f, full, line_of.get(("hyp", n), 0))
    check(theory.goal, full, line_of.get(("goal", ""), 0))


# ---------------------------------------------------------------------------
# public parse API


def parse_theories(text: str) -> List[Theory]:
    return _Parser(_lex(text)).parse_theories()


def parse_theory(text: str) -> Theory:
    theories = parse_theories(text)
    if len(theories) != 1:
        raise DerivSyntaxError(
            f"expected exactly one theory, found {len(theories)}", 1, 1)
    return theories[0]


# ---------------------------------------------------------------------------
# printing


def _const_str(f: Fraction) -> str:
    n, d = f.numerator, f.denominator
    if d == 1:
        return str(n)
    a = b = 0
    dd = d
    while dd % 2 == 0:
        dd //= 2
        a += 1
    while dd % 5 == 0:
        dd //= 5
        b += 1
    if dd == 1:
        k = max(a, b)
        digits = str(abs(n) * 10 ** k // d).rjust(k + 1, "0")
        return ("-" if n < 0 else "") + digits[:-k] + "." + digits[-k:]
    return f"({n}/{d})"


_ADD, _MUL, _UNARY, _POW, _ATOM = 1, 2, 3, 4, 5
_BINARY = {Add: ("+", _ADD), Sub: ("-", _ADD), Mul: ("*", _MUL), Div: ("/", _MUL)}


def _pe(e: Expr, prec: int) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Const):
        return _const_str(e.value)
    if type(e) in _BINARY:
        # both operators of a level associate to the left, so the right
        # operand binds one level tighter
        sym, level = _BINARY[type(e)]
        s = f"{_pe(e.left, level)} {sym} {_pe(e.right, level + 1)}"
        return f"({s})" if prec > level else s
    if isinstance(e, Neg):
        inner = _pe(e.arg, _UNARY)
        # adjacent dashes would lex as a comment, and a digit right
        # after the dash would fold into a negative literal on reparse
        if inner.startswith("-") or inner[:1].isdigit():
            inner = f"({inner})"
        s = f"-{inner}"
        return f"({s})" if prec > _UNARY else s
    if isinstance(e, Pow):
        s = f"{_pe(e.base, _ATOM)}^{e.exp}"
        return f"({s})" if prec > _POW else s
    if isinstance(e, SeriesSum):
        return f"sum[{e.index}>={e.start}]({_pe(e.body, _ADD)})"
    if isinstance(e, App):
        if isinstance(e.fn, Deriv):
            return f"deriv({e.fn.fn})({_pe(e.arg, _ADD)})"
        return f"{e.fn}({_pe(e.arg, _ADD)})"
    raise TypeError(f"not an expression: {e!r}")


def print_expr(e: Expr) -> str:
    return _pe(e, _ADD)


_IMPL, _CONJ, _ATOMF = 1, 2, 3


def _pf(f: Formula, prec: int) -> str:
    if isinstance(f, EqF):
        return f"{print_expr(f.left)} = {print_expr(f.right)}"
    if isinstance(f, Ne0):
        return f"{print_expr(f.arg)} != 0"
    if isinstance(f, Lt):
        rhs = print_expr(f.right)
        if rhs.startswith("-"):
            rhs = f"({rhs})"
        return f"{print_expr(f.left)} < {rhs}"
    if isinstance(f, Implies):
        s = f"{_pf(f.ante, _CONJ)} -> {_pf(f.cons, _IMPL)}"
        return f"({s})" if prec > _IMPL else s
    if isinstance(f, And):
        s = f"{_pf(f.left, _ATOMF)} /\\ {_pf(f.right, _CONJ)}"
        return f"({s})" if prec > _CONJ else s
    if isinstance(f, Forall):
        s = f"forall {' '.join(b for b, _ in f.binders)}, {_pf(f.body, _IMPL)}"
        return f"({s})" if prec > _IMPL else s
    if isinstance(f, Exists):
        s = f"exists {f.binder[0]}, {_pf(f.body, _IMPL)}"
        return f"({s})" if prec > _IMPL else s
    if isinstance(f, DivergesLeftAt):
        return f"diverges_left({f.fn_name}, {print_expr(f.point)})"
    raise TypeError(f"not a formula: {f!r}")


def print_formula(f: Formula) -> str:
    return _pf(f, _IMPL)


def _term_str(e: Expr) -> str:
    # a bare identifier followed by a parenthesized term would reparse
    # as an application, so shield everything except plain numbers
    s = print_expr(e)
    if isinstance(e, Const) and not s.startswith("-"):
        return s
    return f"({s})"


_KEYWORDS = {cls: kw for kw, cls in STEPS.items()}


def _field_str(v) -> str:
    if isinstance(v, bool):
        return "<-" if v else ""
    if isinstance(v, tuple):
        return " ".join(x if isinstance(x, str) else _term_str(x) for x in v)
    if isinstance(v, Expr):
        return print_expr(v)
    return str(v)


def print_step(s: Step) -> str:
    """The step's keyword, then each of its fields by value type."""
    kw = _KEYWORDS.get(type(s))
    if kw is None:
        raise TypeError(f"not a step: {s!r}")
    return " ".join(p for p in [kw, *map(_field_str, s._values())] if p)


def print_theory(t: Theory) -> str:
    lines = [f"theory {t.name}"]
    for sort, decls in groupby(t.var_decls, key=lambda d: d[1]):
        lines.append(f"  vars {' '.join(n for n, _ in decls)} : {sort}")
    if t.fn_decls:
        lines.append(f"  fns {' '.join(t.fn_decls)} : State->Real")
    for n in t.const_decls:
        lines.append(f"  const {n} : Real")
    for n, f in t.hyps:
        lines.append(f"  hyp {n} : {print_formula(f)}")
    for n, e in t.lets:
        lines.append(f"  let {n} := {print_expr(e)}")
    lines.append(f"  goal {print_formula(t.goal)}")
    lines.append("  proof")
    for s in t.steps:
        lines.append(f"    {print_step(s)}")
    lines.append("  qed")
    return "\n".join(lines) + "\n"
