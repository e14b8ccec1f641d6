"""Parser for formulas mixing one valued coordinate with group coordinates.

The Boolean structure and the linear sums are the shared grammar of
:mod:`valdim.boolean`; this module names the group variables and adds
valuation terms and ``inf``:

    NAME     :=  GVAR  |  'v' '(' poly ')'  |  'inf'
    GVAR     :=  g1, g2, ...
    poly     :=  'x' [('+'|'-') puiseux]      bare degree-1 form
              |  [['-'] RAT '*'] factor ('*' factor)*
              |  ['-'] RAT                     constant, valuation 0
    factor   :=  '(' 'x' [('+'|'-') puiseux] ')' ['^' INT]
    puiseux  :=  pterm (('+'|'-') pterm)*
    pterm    :=  RAT ['*' 't' ['^' EXP]]  |  't' ['^' EXP]
    EXP      :=  ['-'] INT ['/' INT]

``v((x - t)*(x)^2) + 2*g1 <= 3/2`` constrains the valuation of the cubic
with roots t and 0 (double).  ``v(x - 1) = inf`` is the zero test x = 1.
Each comparison may mention at most one polynomial; same-polynomial
valuation terms fold their weights.  ``inf`` must stand alone on its side.
"""

from __future__ import annotations

from fractions import Fraction

from ..boolean import Formula, Grammar, Side, difference
from ..errors import ParseError, SemanticError
from .formula import matom
from .puiseux import INFINITY, FactoredPoly, PuiseuxElement

# inf REL t  ==  t REL' inf with the mirrored relation
_MIRROR = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


class _Side(Side):
    """A side that may also hold weighted valuation terms and a bare 'inf'."""

    __slots__ = ("polys", "inf")

    def __init__(self):
        super().__init__()
        self.polys: dict[FactoredPoly, int] = {}
        self.inf = False


class _MixedParser(Grammar):
    prefix = "g"
    side = _Side

    def name(self, side: _Side, t, c: int, bare: bool):
        if t[1] == "v":
            self.toks.expect("(")
            f = self.poly()
            self.toks.expect(")")
            side.polys[f] = side.polys.get(f, 0) + c
        elif t[1] == "inf" and bare:
            if c < 0:
                raise ParseError("negated 'inf' is not a value", t[2])
            side.inf = True
        else:
            super().name(side, t, c, bare)

    def build(self, p, n: int) -> Formula:
        lhs, rel, rhs = p.lhs, p.rel, p.rhs
        for side in (lhs, rhs):
            if side.inf and side.terms > 1:
                raise ParseError("'inf' must stand alone on its side", p.pos)
        if lhs.inf:
            if rhs.inf:
                raise ParseError("'inf' on both sides of a comparison", p.pos)
            lhs, rel, rhs = rhs, _MIRROR[rel], lhs
        polys = dict(lhs.polys)
        for f, w in rhs.polys.items():
            polys[f] = polys.get(f, 0) - w
        weighted = [(f, w) for f, w in polys.items() if w]
        if len(weighted) > 1:
            raise SemanticError("at most one valuation term per comparison")
        poly, weight = weighted[0] if weighted else (None, 0)
        gcoeffs, q = difference(lhs, rhs, n)
        return matom(weight, poly, gcoeffs, rel, INFINITY if rhs.inf else q)

    def poly(self) -> FactoredPoly:
        t = self.toks.peek()
        if t is not None and t[0] == "name" and t[1] == "x":
            # bare degree-1 form: v(x - a)
            self.toks.next()
            root = -self.linear_tail()
            return FactoredPoly(Fraction(1), ((root, 1),))
        sign = -1 if self.toks.accept("-") else 1
        lead = Fraction(sign)
        if sign < 0 or (t is not None and t[0] == "num"):
            lead = sign * self.rational()
            if not self.toks.accept("*"):
                return FactoredPoly(lead, ())
        roots: dict[PuiseuxElement, int] = {}
        while True:
            root, mult = self.factor()
            roots[root] = roots.get(root, 0) + mult
            if not self.toks.accept("*"):
                break
        return FactoredPoly(lead, tuple(roots.items()))

    def linear_tail(self, lead: bool = False) -> PuiseuxElement:
        """Signed pterms, as after 'x'; with ``lead`` the first term needs
        no sign (``['-'] pterm (('+'|'-') pterm)*``, a whole literal)."""
        terms = []
        sign = -1 if lead and self.toks.accept("-") else 1
        while True:
            if lead:
                lead = False
            elif self.toks.accept("+"):
                sign = 1
            elif self.toks.accept("-"):
                sign = -1
            else:
                return PuiseuxElement.of(*terms)
            e, c = self.pterm()
            terms.append((e, c) if sign > 0 else (e, -c))

    def factor(self) -> tuple[PuiseuxElement, int]:
        self.toks.expect("(")
        t = self.toks.next()
        if t[0] != "name" or t[1] != "x":
            raise ParseError("polynomial factors are written in x", t[2])
        shift = self.linear_tail()
        self.toks.expect(")")
        mult = 1
        if self.toks.accept("^"):
            m = self.toks.next()
            if m[0] != "num":
                raise ParseError("expected an integer exponent", m[2])
            mult = int(m[1])
        return -shift, mult

    def pterm(self) -> tuple[int | Fraction, int | Fraction]:
        """One (exponent, coefficient) term; the coefficient may be 0."""
        t = self.toks.peek()
        if t is not None and t[0] == "num":
            coeff = self.rational()
            if self.toks.accept("*"):
                name = self.toks.next()
                if name[0] != "name" or name[1] != "t":
                    raise ParseError("expected 't' after '*'", name[2])
                return self.texp(), coeff
            return Fraction(0), coeff
        t = self.toks.next()
        if t[0] == "name" and t[1] == "t":
            return self.texp(), Fraction(1)
        raise ParseError(f"expected a coefficient or 't', found {t[1]!r}", t[2])

    def texp(self) -> int | Fraction:
        if not self.toks.accept("^"):
            return Fraction(1)
        sign = -1 if self.toks.accept("-") else 1
        return sign * self.rational()


def parse_mixed_formula(text: str, n_gamma: int | None = None) -> Formula:
    """Parse mixed DSL text; group arity is inferred unless declared."""
    return _MixedParser(text, n_gamma).parse()


def parse_puiseux(text: str) -> PuiseuxElement:
    """Parse a standalone Puiseux literal like ``1/2*t^-1 + 3 - t^2/3``."""
    parser = _MixedParser(text, 0)
    e = parser.linear_tail(lead=True)
    parser.toks.end()
    return e
