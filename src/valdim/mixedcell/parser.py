"""Parser for formulas mixing one valued coordinate with group coordinates.

The Boolean structure and the linear sums are the shared grammar of
:mod:`valdim.boolean`; this module names the group variables and adds
valuation terms and ``inf``:

    NAME     :=  GVAR  |  'v' '(' poly ')'  |  'inf'
    GVAR     :=  g1, g2, ...
    poly     :=  'x' tail                      bare degree-1 form
              |  [['-'] RAT '*'] factor ('*' factor)*
              |  ['-'] RAT                     constant, valuation 0
    factor   :=  '(' 'x' tail ')' ['^' INT]
    tail     :=  (('+'|'-') pterm)*            x minus the root
    puiseux  :=  ['-'] pterm (('+'|'-') pterm)*    a standalone literal
    pterm    :=  RAT ['*' 't' ['^' EXP]]  |  't' ['^' EXP]
    EXP      :=  ['-'] INT ['/' INT]

``v((x - t)*(x)^2) + 2*g1 <= 3/2`` constrains the valuation of the cubic
with roots t and 0 (double).  ``v(x - 1) = inf`` is the zero test x = 1.
Each comparison may mention at most one polynomial; same-polynomial
valuation terms fold their weights.  ``inf`` must stand alone on its side.

One reader, :func:`read_puiseux`, reads every Puiseux sum, ``tail`` and
``puiseux`` alike: it walks the shared tokens from the cursor once and
builds the terms directly, for a root inside a formula and for a
standalone literal of :func:`parse_puiseux`, which needs no parser.
"""

from __future__ import annotations

from ..boolean import Formula, Grammar, Side, Tokens, difference, integer
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
            return FactoredPoly(1, ((-read_puiseux(self.toks), 1),))
        sign = -1 if self.toks.accept("-") else 1
        lead = sign
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

    def factor(self) -> tuple[PuiseuxElement, int]:
        self.toks.expect("(")
        t = self.toks.next()
        if t[0] != "name" or t[1] != "x":
            raise ParseError("polynomial factors are written in x", t[2])
        shift = read_puiseux(self.toks)
        self.toks.expect(")")
        mult = 1
        if self.toks.accept("^"):
            m = self.toks.next()
            if m[0] != "num":
                raise ParseError("expected an integer exponent", m[2])
            mult = integer(m)
        return -shift, mult


def parse_mixed_formula(text: str, n_gamma: int | None = None) -> Formula:
    """Parse mixed DSL text; group arity is inferred unless declared."""
    return _MixedParser(text, n_gamma).parse()


def parse_puiseux(text: str) -> PuiseuxElement:
    """Parse a standalone Puiseux literal like ``1/2*t^-1 + 3 - t^2/3``."""
    toks = Tokens(text)
    e = read_puiseux(toks, lead=True)
    toks.end()
    return e


def read_puiseux(toks: Tokens, lead: bool = False) -> PuiseuxElement:
    """The Puiseux sum at the cursor of ``toks``, read in one pass over its tokens.

    With ``lead`` this is ``puiseux`` of the grammar, whose first term may
    go without a sign or take a '-'; without it, the signed terms after
    'x', ``(('+'|'-') pterm)*``, which may be none.  The terms go to
    ``PuiseuxElement.of``, which keeps each value by the int rule of
    :mod:`.puiseux`.  The cursor is left after the sum.
    """
    items = toks.items
    n = len(items)
    i = toks.i
    terms = []
    sign = 1
    if lead and i < n and items[i][1] == "-":
        sign = -1
        i += 1
    while True:
        if lead:
            lead = False
        elif i < n and items[i][1] in ("+", "-"):
            sign = 1 if items[i][1] == "+" else -1
            i += 1
        else:
            break
        # pterm := RAT ['*' 't' ['^' EXP]]  |  't' ['^' EXP]
        t = toks.at(i)
        if t[0] == "num":
            c, i = toks.rational(i)
            if i >= n or items[i][1] != "*":
                terms.append((0, c if sign > 0 else -c))
                continue
            t = toks.at(i + 1)
            if t[0] != "name" or t[1] != "t":
                raise ParseError("expected 't' after '*'", t[2])
            i += 2
        elif t[0] == "name" and t[1] == "t":
            c = 1
            i += 1
        else:
            raise ParseError(f"expected a coefficient or 't', found {t[1]!r}", t[2])
        e = 1
        if i < n and items[i][1] == "^":
            negative = i + 1 < n and items[i + 1][1] == "-"
            e, i = toks.rational(i + 1 + negative)
            if negative:
                e = -e
        terms.append((e, c if sign > 0 else -c))
    toks.i = i
    return PuiseuxElement.of(*terms)
