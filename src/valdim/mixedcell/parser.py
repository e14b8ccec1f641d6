"""Parser for formulas mixing one valued coordinate with group coordinates.

The Boolean structure is the shared grammar of :mod:`valdim.boolean`;
this module parses its atoms, which extend the linear-constraint DSL
with valuation terms:

    atom     :=  msum REL msum                REL in < <= = >= > !=
    msum     :=  ['-'] mterm (('+'|'-') mterm)*
    mterm    :=  [INT '*'] 'v' '(' poly ')'   weighted valuation term
              |  INT '*' GVAR | GVAR | RAT | 'inf'
    poly     :=  'x' [('+'|'-') puiseux]      bare degree-1 form
              |  [['-'] RAT '*'] factor ('*' factor)*
              |  ['-'] RAT                     constant, valuation 0
    factor   :=  '(' 'x' [('+'|'-') puiseux] ')' ['^' INT]
    puiseux  :=  pterm (('+'|'-') pterm)*
    pterm    :=  RAT ['*' 't' ['^' EXP]]  |  't' ['^' EXP]
    EXP      :=  ['-'] INT ['/' INT]
    GVAR     :=  g1, g2, ...

``v((x - t)*(x)^2) + 2*g1 <= 3/2`` constrains the valuation of the cubic
with roots t and 0 (double).  ``v(x - 1) = inf`` is the zero test x = 1.
Each comparison may mention at most one polynomial; same-polynomial
valuation terms fold their weights.  ``inf`` must stand alone on its side.
"""

from __future__ import annotations

import re
from fractions import Fraction

from ..boolean import Atom, Formula, Grammar, Tokens, map_atoms
from ..errors import ParseError, SemanticError
from .formula import matom
from .puiseux import INFINITY, FactoredPoly, PuiseuxElement

_TOKEN = re.compile(
    r"\s*(?:(?P<rel><=|>=|!=|==|<|>|=)|(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<punct>[()&|!*/^+-]))"
)

_GVAR = re.compile(r"^g(\d+)$")


class _Side:
    """Accumulated linear data of one side of a comparison."""

    def __init__(self):
        self.polys: dict[tuple, tuple[FactoredPoly, int]] = {}
        self.gcoeffs: dict[int, int] = {}
        self.const = Fraction(0)
        self.has_inf = False
        self.extra = False  # anything besides a bare 'inf'

    def add_poly(self, f: FactoredPoly, w: int):
        key = f.key()
        old = self.polys.get(key)
        self.polys[key] = (f, (old[1] if old else 0) + w)
        self.extra = True

    def add_gamma(self, idx: int, c: int):
        self.gcoeffs[idx] = self.gcoeffs.get(idx, 0) + c
        self.extra = True

    def add_const(self, q: Fraction):
        self.const += q
        self.extra = True


class _MixedParser:
    def __init__(self, text: str, n_gamma: int | None):
        self.toks = Tokens(text, _TOKEN)
        self.declared = n_gamma
        self.max_gvar = 0

    def parse(self) -> Formula:
        f = Grammar(self.toks, self.atom).parse()
        n = self.declared if self.declared is not None else self.max_gvar
        return map_atoms(f, lambda p: _build_atom(p, n), n)

    def atom(self) -> Formula:
        lhs = self.msum()
        t = self.toks.next()
        if t[0] != "rel":
            raise ParseError(f"expected a relation, found {t[1]!r}", t[2])
        rel = "=" if t[1] == "==" else t[1]
        rhs = self.msum()
        return Atom(_PendingAtom(lhs, rel, rhs, t[2]))

    def msum(self) -> _Side:
        side = _Side()
        sign = 1
        if self.toks.accept("-"):
            sign = -1
        while True:
            self.mterm(side, sign)
            if self.toks.accept("+"):
                sign = 1
            elif self.toks.accept("-"):
                sign = -1
            else:
                return side

    def mterm(self, side: _Side, sign: int):
        t = self.toks.peek()
        if t is not None and t[0] == "num":
            value = self.rational()
            if self.toks.accept("*"):
                v = self.toks.next()
                if v[0] != "name":
                    raise ParseError("expected v(...) or a variable after '*'", v[2])
                if v[1] == "v":
                    if value.denominator != 1:
                        raise ParseError(
                            f"non-integer weight {value} on a valuation term", t[2]
                        )
                    side.add_poly(self.poly_call(), sign * int(value))
                    return
                idx = self.gvar_index(v[1], v[2])
                if value.denominator != 1:
                    raise ParseError(
                        f"non-integer coefficient {value} on variable g{idx + 1}", t[2]
                    )
                side.add_gamma(idx, sign * int(value))
                return
            side.add_const(sign * value)
            return
        t = self.toks.next()
        if t[0] == "name":
            if t[1] == "inf":
                if sign < 0:
                    raise ParseError("negated 'inf' is not a value", t[2])
                side.has_inf = True
                return
            if t[1] == "v":
                side.add_poly(self.poly_call(), sign)
                return
            side.add_gamma(self.gvar_index(t[1], t[2]), sign)
            return
        raise ParseError(f"expected a term, found {t[1]!r}", t[2])

    def poly_call(self) -> FactoredPoly:
        self.toks.expect("(")
        f = self.poly()
        self.toks.expect(")")
        return f

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
        roots: dict[tuple, tuple[PuiseuxElement, int]] = {}
        while True:
            root, mult = self.factor()
            key = root.key()
            old = roots.get(key)
            roots[key] = (root, (old[1] if old else 0) + mult)
            if not self.toks.accept("*"):
                break
        return FactoredPoly(lead, tuple(roots.values()))

    def linear_tail(self) -> PuiseuxElement:
        """The optional signed puiseux expression following 'x'."""
        terms = []
        while True:
            if self.toks.accept("+"):
                terms.append(self.pterm())
            elif self.toks.accept("-"):
                e, c = self.pterm()
                terms.append((e, -c))
            else:
                return PuiseuxElement.of(*terms)

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

    def pterm(self) -> tuple[Fraction, Fraction]:
        """One (exponent, coefficient) term; the coefficient may be 0."""
        t = self.toks.peek()
        if t is None:
            raise ParseError("unexpected end of input", len(self.toks.text))
        if t[0] == "num":
            coeff = self.rational()
            if self.toks.accept("*"):
                name = self.toks.next()
                if name[0] != "name" or name[1] != "t":
                    raise ParseError("expected 't' after '*'", name[2])
                return self.texp(), coeff
            return Fraction(0), coeff
        if t[0] == "name" and t[1] == "t":
            self.toks.next()
            return self.texp(), Fraction(1)
        raise ParseError(f"expected a coefficient or 't', found {t[1]!r}", t[2])

    def texp(self) -> Fraction:
        if not self.toks.accept("^"):
            return Fraction(1)
        sign = -1 if self.toks.accept("-") else 1
        return sign * self.rational()

    def rational(self) -> Fraction:
        t = self.toks.next()
        if t[0] != "num":
            raise ParseError(f"expected a number, found {t[1]!r}", t[2])
        if not self.toks.accept("/"):
            return Fraction(int(t[1]))
        d = self.toks.next()
        if d[0] != "num" or int(d[1]) == 0:
            raise ParseError("expected a nonzero integer denominator", d[2])
        return Fraction(int(t[1]), int(d[1]))

    def gvar_index(self, name: str, pos: int) -> int:
        m = _GVAR.match(name)
        if not m:
            raise ParseError(f"unknown variable {name!r}", pos)
        idx = int(m.group(1))
        if idx < 1:
            raise ParseError(f"group variables start at g1, got {name!r}", pos)
        if self.declared is not None and idx > self.declared:
            raise SemanticError(
                f"unknown variable {name!r}: formula has {self.declared} group variables"
            )
        self.max_gvar = max(self.max_gvar, idx)
        return idx - 1


class _PendingAtom:
    """A comparison, built into an atom once the group arity is known."""

    arity = 0

    def __init__(self, lhs: _Side, rel: str, rhs: _Side, pos: int):
        self.lhs, self.rel, self.rhs, self.pos = lhs, rel, rhs, pos


def _build_atom(node: _PendingAtom, n: int) -> Formula:
    lhs, rhs = node.lhs, node.rhs
    for side in (lhs, rhs):
        if side.has_inf and side.extra:
            raise ParseError("'inf' must stand alone on its side", node.pos)
    if lhs.has_inf and rhs.has_inf:
        raise ParseError("'inf' on both sides of a comparison", node.pos)
    if lhs.has_inf:
        # inf REL t  ==  t REL' inf with the mirrored relation
        mirror = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
        return _combine(rhs, lhs, mirror[node.rel], n, node.pos)
    return _combine(lhs, rhs, node.rel, n, node.pos)


def _combine(lhs: _Side, rhs: _Side, rel: str, n: int, pos: int) -> Formula:
    polys: dict[tuple, tuple[FactoredPoly, int]] = dict(lhs.polys)
    for key, (f, w) in rhs.polys.items():
        old = polys.get(key)
        polys[key] = (f, (old[1] if old else 0) - w)
    polys = {k: fw for k, fw in polys.items() if fw[1] != 0}
    if len(polys) > 1:
        raise SemanticError("at most one valuation term per comparison")
    weight, poly = 0, None
    if polys:
        poly, weight = next(iter(polys.values()))
    gcoeffs = [0] * n
    for idx, c in lhs.gcoeffs.items():
        gcoeffs[idx] += c
    for idx, c in rhs.gcoeffs.items():
        gcoeffs[idx] -= c
    q = rhs.const - lhs.const if not rhs.has_inf else INFINITY
    return matom(weight, poly, tuple(gcoeffs), rel, q)


def parse_mixed_formula(text: str, n_gamma: int | None = None) -> Formula:
    """Parse mixed DSL text; group arity is inferred unless declared."""
    if n_gamma is not None and n_gamma < 0:
        raise SemanticError(f"negative group coordinate count {n_gamma}")
    return _MixedParser(text, n_gamma).parse()


def parse_puiseux(text: str) -> PuiseuxElement:
    """Parse a standalone Puiseux literal like ``1/2*t^-1 + 3 - t^2/3``."""
    parser = _MixedParser(text, 0)
    terms = []
    sign = -1 if parser.toks.accept("-") else 1
    while True:
        e, c = parser.pterm()
        terms.append((e, c) if sign > 0 else (e, -c))
        if parser.toks.accept("+"):
            sign = 1
        elif parser.toks.accept("-"):
            sign = -1
        else:
            break
    trailing = parser.toks.peek()
    if trailing is not None:
        raise ParseError(f"trailing input {trailing[1]!r}", trailing[2])
    return PuiseuxElement.of(*terms)
