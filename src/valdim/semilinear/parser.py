"""Recursive-descent parser for the linear-constraint DSL.

The Boolean structure and the linear sums are the shared grammar of
:mod:`valdim.boolean`; this module adds ``exists`` and names the
variables (UTF-8 text, documented with examples in docs/dsl.md):

    atom     :=  'exists' NAME '(' formula ')'
              |  sum REL sum
    NAME     :=  x1, x2, ...  (1-based indices)

Coefficients on variables must be integers; bare constants may be
rational.  ``exists xi (...)`` quantifies variable i away where it is
read (the result is a cylinder over the remaining coordinates, so it
composes inside any enclosing formula).
"""

from __future__ import annotations

from ..boolean import NAME_START, Formula, Grammar
from .atoms import atom
from .elimination import exists


class _Parser(Grammar):
    prefix = "x"

    def atom(self, i: int) -> tuple[Formula, int]:
        toks = self.toks
        if toks.items[i] != "exists":
            return self.comparison(i)
        i = toks.open_group(i)
        if toks.at(i)[0] not in NAME_START:
            raise toks.error("expected a variable after 'exists'", i)
        var = self.variable(i)
        body, i = self.disj(toks.past(i + 1, "("))
        i = toks.past(i, ")")
        toks.depth -= 1
        return exists(body, var), i

    def build(self, lhs, rel: str, rhs, at: int) -> Formula:
        coeffs, q = self.difference(lhs, rhs)
        return atom(coeffs, rel, q)


def parse_formula(text: str, arity: int | None = None) -> Formula:
    """Parse DSL text into a formula.

    With ``arity`` given, variable indices beyond it are rejected;
    otherwise the arity is the largest index mentioned.
    """
    return _Parser(text, arity).parse()
