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
A comparison may mention several polynomials: the valuation terms of
one polynomial fold their weights, and the folded terms go to
:func:`matom` as they are.  ``inf`` takes no coefficient and must stand
alone on its side.

One reader, :func:`read_puiseux`, reads every Puiseux sum, ``tail`` and
``puiseux`` alike: it walks the shared tokens from an index once and
builds the terms directly, for a root inside a formula and for a
standalone literal of :func:`parse_puiseux`, which needs no parser.
"""

from __future__ import annotations

from ..boolean import DIGITS, Formula, Grammar, Side, Tokens
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

    def name(self, side: _Side, i: int, c: int, bare: bool) -> int:
        toks = self.toks
        t = toks.items[i]
        if t == "v":
            f, i = self.poly(toks.past(i + 1, "("))
            side.polys[f] = side.polys.get(f, 0) + c
            return toks.past(i, ")")
        if t == "inf":
            if not bare:
                raise toks.error("'inf' takes no coefficient", i)
            if c < 0:
                raise toks.error("negated 'inf' is not a value", i)
            side.inf = True
            return i + 1
        return super().name(side, i, c, bare)

    def build(self, lhs: _Side, rel: str, rhs: _Side, at: int) -> Formula:
        for side in (lhs, rhs):
            if side.inf and side.terms > 1:
                raise self.toks.error("'inf' must stand alone on its side", at)
        if lhs.inf:
            if rhs.inf:
                raise self.toks.error("'inf' on both sides of a comparison", at)
            lhs, rel, rhs = rhs, _MIRROR[rel], lhs
        polys = dict(lhs.polys)
        for f, w in rhs.polys.items():
            polys[f] = polys.get(f, 0) - w
        gcoeffs, q = self.difference(lhs, rhs)
        terms = [(f, w) for f, w in polys.items() if w]
        return matom(terms, gcoeffs, rel, INFINITY if rhs.inf else q)

    def poly(self, i: int) -> tuple[FactoredPoly, int]:
        toks = self.toks
        items = toks.items
        n = len(items)
        if i < n and items[i] == "x":
            # bare degree-1 form: v(x - a)
            root, i = read_puiseux(toks, i + 1)
            return FactoredPoly(1, ((-root, 1),)), i
        lead = 1
        if i < n and items[i] == "-":
            lead = -1
            i += 1
        if lead < 0 or (i < n and items[i][0] in DIGITS):
            c, i = toks.rational(i)
            lead *= c
            if i == n or items[i] != "*":
                return FactoredPoly(lead, ()), i
            i += 1
        roots: dict[PuiseuxElement, int] = {}
        while True:
            root, mult, i = self.factor(i)
            roots[root] = roots.get(root, 0) + mult
            if i == n or items[i] != "*":
                return FactoredPoly(lead, tuple(roots.items())), i
            i += 1

    def factor(self, i: int) -> tuple[PuiseuxElement, int, int]:
        """``factor`` at token ``i``: its root, its multiplicity and the index after it."""
        toks = self.toks
        i = toks.past(i, "(")
        if toks.at(i) != "x":
            raise toks.error("polynomial factors are written in x", i)
        shift, i = read_puiseux(toks, i + 1)
        i = toks.past(i, ")")
        mult = 1
        if i < len(toks.items) and toks.items[i] == "^":
            if toks.at(i + 1)[0] not in DIGITS:
                raise toks.error("expected an integer exponent", i + 1)
            mult = toks.integer(i + 1)
            i += 2
        return -shift, mult, i


def parse_mixed_formula(text: str, n_gamma: int | None = None) -> Formula:
    """Parse mixed DSL text; group arity is inferred unless declared."""
    return _MixedParser(text, n_gamma).parse()


def parse_puiseux(text: str) -> PuiseuxElement:
    """Parse a standalone Puiseux literal like ``1/2*t^-1 + 3 - t^2/3``."""
    toks = Tokens(text)
    e, i = read_puiseux(toks, 0, lead=True)
    toks.end(i)
    return e


def read_puiseux(toks: Tokens, i: int, lead: bool = False) -> tuple[PuiseuxElement, int]:
    """The Puiseux sum at token ``i``, read in one pass over its tokens, and
    the index after it.

    With ``lead`` this is ``puiseux`` of the grammar, whose first term may
    go without a sign or take a '-'; without it, the signed terms after
    'x', ``(('+'|'-') pterm)*``, which may be none.  The terms go to
    ``PuiseuxElement.of``, which keeps each value by the int rule of
    :mod:`.puiseux`.
    """
    items = toks.items
    n = len(items)
    terms = []
    sign = 1
    if lead and i < n and items[i] == "-":
        sign = -1
        i += 1
    while True:
        if lead:
            lead = False
        elif i < n and (items[i] == "+" or items[i] == "-"):
            sign = 1 if items[i] == "+" else -1
            i += 1
        else:
            break
        # pterm := RAT ['*' 't' ['^' EXP]]  |  't' ['^' EXP]
        t = items[i] if i < n else toks.at(i)
        if t[0] in DIGITS:
            c, i = toks.rational(i)
            if i == n or items[i] != "*":
                terms.append((0, c if sign > 0 else -c))
                continue
            t = toks.at(i + 1)
            if t != "t":
                raise toks.error("expected 't' after '*'", i + 1)
            i += 2
        elif t == "t":
            c = 1
            i += 1
        else:
            raise toks.error(f"expected a coefficient or 't', found {t!r}", i)
        e = 1
        if i < n and items[i] == "^":
            negative = i + 1 < n and items[i + 1] == "-"
            e, i = toks.rational(i + 1 + negative)
            if negative:
                e = -e
        terms.append((e, c if sign > 0 else -c))
    return PuiseuxElement.of(*terms), i
