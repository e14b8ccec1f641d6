"""Recursive-descent parser for the linear-constraint DSL.

The Boolean structure and the linear sums are the shared grammar of
:mod:`valdim.boolean`; this module adds ``exists`` and names the
variables (UTF-8 text, documented with examples in docs/dsl.md):

    atom     :=  'exists' NAME '(' formula ')'
              |  sum REL sum
    NAME     :=  x1, x2, ...  (1-based indices)

Coefficients on variables must be integers; bare constants may be
rational.  ``exists xi (...)`` quantifies variable i away (the result is
a cylinder over the remaining coordinates, so it composes inside any
enclosing formula).
"""

from __future__ import annotations

from ..boolean import Atom, Formula, Grammar, difference, map_atoms
from ..errors import ParseError
from .atoms import atom
from .elimination import exists


class _Parser(Grammar):
    prefix = "x"

    def atom(self) -> Formula:
        if self.toks.peek()[1] != "exists":
            return self.comparison()
        self.toks.open_group()
        name = self.toks.next()
        if name[0] != "name":
            raise ParseError("expected a variable after 'exists'", name[2])
        idx = self.variable(name)
        self.toks.expect("(")
        node = _Exists(self.disj(), idx)
        self.toks.expect(")")
        self.toks.depth -= 1
        return Atom(node)

    def build(self, p, n: int) -> Formula:
        if isinstance(p, _Exists):
            return exists(map_atoms(p.part, lambda q: self.build(q, n), n), p.var)
        coeffs, q = difference(p.lhs, p.rhs, n)
        return atom(coeffs, p.rel, q)


class _Exists:
    """``exists`` over a parsed body, quantified once the final arity is known."""

    arity = 0

    def __init__(self, part: Formula, var: int):
        self.part, self.var = part, var


def parse_formula(text: str, arity: int | None = None) -> Formula:
    """Parse DSL text into a formula.

    With ``arity`` given, variable indices beyond it are rejected;
    otherwise the arity is the largest index mentioned.
    """
    return _Parser(text, arity).parse()
