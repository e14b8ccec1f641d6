"""Recursive-descent parser for the linear-constraint DSL.

The Boolean structure is the shared grammar of :mod:`valdim.boolean`;
this module parses its atoms (UTF-8 text, documented with examples in
docs/dsl.md):

    atom     :=  'exists' VAR '(' formula ')'
              |  linexpr REL linexpr          REL in < <= = >= > !=
    linexpr  :=  ['-'] term (('+'|'-') term)*
    term     :=  INT '*' VAR  |  VAR  |  RAT
    VAR      :=  x1, x2, ...  (1-based indices)
    RAT      :=  INT ['/' INT]

Coefficients on variables must be integers; bare constants may be
rational.  ``exists xi (...)`` quantifies variable i away (the result is
a cylinder over the remaining coordinates, so it composes inside any
enclosing formula).
"""

from __future__ import annotations

import re
from fractions import Fraction

from ..boolean import Atom, Formula, Grammar, Tokens, map_atoms
from ..errors import ParseError, SemanticError
from .atoms import atom
from .elimination import exists

_TOKEN = re.compile(
    r"\s*(?:(?P<rel><=|>=|!=|==|<|>|=)|(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<punct>[()&|!*/+-]))"
)

_VAR = re.compile(r"^x(\d+)$")


class _Parser:
    """Parses one formula; collects the variable indices it saw."""

    def __init__(self, text: str, arity: int | None):
        self.toks = Tokens(text, _TOKEN)
        self.grammar = Grammar(self.toks, self.atom)
        self.declared = arity
        self.max_var = 0

    def var_index(self, name: str, pos: int) -> int:
        m = _VAR.match(name)
        if not m:
            raise ParseError(f"unknown variable {name!r}", pos)
        idx = int(m.group(1))
        if idx < 1:
            raise ParseError(f"variable indices start at x1, got {name!r}", pos)
        if self.declared is not None and idx > self.declared:
            raise SemanticError(
                f"unknown variable {name!r}: formula has {self.declared} variables"
            )
        self.max_var = max(self.max_var, idx)
        return idx - 1

    def parse(self) -> Formula:
        f = self.grammar.parse()
        n = self.declared if self.declared is not None else self.max_var
        return map_atoms(f, lambda p: p.build(n), n)

    def atom(self) -> Formula:
        if self.toks.peek()[1] == "exists":
            self.toks.open_group()
            name = self.toks.next()
            if name[0] != "name":
                raise ParseError("expected a variable after 'exists'", name[2])
            idx = self.var_index(name[1], name[2])
            self.toks.expect("(")
            node = _Exists(self.grammar.disj(), idx)
            self.toks.expect(")")
            self.toks.depth -= 1
            return Atom(node)
        lhs_coeffs, lhs_const = self.linexpr()
        t = self.toks.next()
        if t[0] != "rel":
            raise ParseError(f"expected a relation, found {t[1]!r}", t[2])
        rel = "=" if t[1] == "==" else t[1]
        rhs_coeffs, rhs_const = self.linexpr()
        coeffs: dict[int, int] = dict(lhs_coeffs)
        for i, c in rhs_coeffs.items():
            coeffs[i] = coeffs.get(i, 0) - c
        width = max(coeffs, default=-1) + 1
        vec = [0] * width
        for i, c in coeffs.items():
            vec[i] = c
        return Atom(_PendingAtom(tuple(vec), rel, rhs_const - lhs_const))

    def linexpr(self) -> tuple[dict[int, int], Fraction]:
        coeffs: dict[int, int] = {}
        const = Fraction(0)
        sign = 1
        if self.toks.accept("-"):
            sign = -1
        while True:
            c, idx = self.term()
            if idx is None:
                const += sign * c
            else:
                if c.denominator != 1:
                    raise ParseError(
                        f"non-integer coefficient {c} on variable x{idx + 1}",
                        self.toks.items[self.toks.i - 1][2],
                    )
                coeffs[idx] = coeffs.get(idx, 0) + sign * int(c)
            if self.toks.accept("+"):
                sign = 1
            elif self.toks.accept("-"):
                sign = -1
            else:
                return coeffs, const

    def term(self) -> tuple[Fraction, int | None]:
        t = self.toks.next()
        if t[0] == "num":
            value = Fraction(int(t[1]))
            if self.toks.accept("/"):
                d = self.toks.next()
                if d[0] != "num" or int(d[1]) == 0:
                    raise ParseError("expected a nonzero integer denominator", d[2])
                value = value / int(d[1])
            if self.toks.accept("*"):
                v = self.toks.next()
                if v[0] != "name":
                    raise ParseError("expected a variable after '*'", v[2])
                return value, self.var_index(v[1], v[2])
            return value, None
        if t[0] == "name":
            return Fraction(1), self.var_index(t[1], t[2])
        raise ParseError(f"expected a term, found {t[1]!r}", t[2])


class _PendingAtom:
    """An atom whose coefficient vector still needs padding to the final arity."""

    arity = 0

    def __init__(self, coeffs, rel, rhs):
        self.coeffs, self.rel, self.rhs = coeffs, rel, rhs

    def build(self, n: int) -> Formula:
        return atom(self.coeffs + (0,) * (n - len(self.coeffs)), self.rel, self.rhs)


class _Exists:
    """``exists`` over a parsed body, quantified once the final arity is known."""

    arity = 0

    def __init__(self, part: Formula, var: int):
        self.part, self.var = part, var

    def build(self, n: int) -> Formula:
        return exists(map_atoms(self.part, lambda p: p.build(n), n), self.var)


def parse_formula(text: str, arity: int | None = None) -> Formula:
    """Parse DSL text into a formula.

    With ``arity`` given, variable indices beyond it are rejected;
    otherwise the arity is the largest index mentioned.
    """
    if arity is not None and arity < 0:
        raise SemanticError(f"negative variable count {arity}")
    return _Parser(text, arity).parse()
