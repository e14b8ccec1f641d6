"""Formulas over one valued coordinate x and n ordered-group coordinates.

Atoms compare a sum of valuation terms ``w * v(P(x))`` plus ``a . gamma``
against an exact rational, or against the top element INFINITY (``v(f(x))
= inf`` is the zero test f(x) = 0), with the relations of
:mod:`valdim.semilinear.atoms`.  At a root of P a term is infinite.  The
positive-weight terms stand on the left, the negative-weight terms and an
INFINITY right side on the right, and :func:`decide_infinite` decides
every atom with an infinite side.  The engine meets infinite valuations
only on the point pieces of its decomposition.

Mixed formulas are the shared Boolean nodes of :mod:`valdim.boolean`
over ``MixedAtom`` leaves, each an ``Atom`` subclass and so a formula
as it stands; their arity is the number of group coordinates, and
``f.holds(x, gamma)`` evaluates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Sequence, Union

from ..boolean import Atom, Bool, Formula, Or
from ..semilinear.atoms import COMPARE, EQ, LT, RELS, exact, normal_rows
from .puiseux import INFINITY, FactoredPoly, PuiseuxElement

#: ``t REL INFINITY`` for every spelling: a verdict, or the normal relation.
_AGAINST_INFINITY = {"<=": True, ">": False, ">=": EQ, "=": EQ, "==": EQ, "!=": LT, "<": LT}


def decide_infinite(rel: str, left: bool, right: bool) -> bool:
    """Truth of an atom whose ``left`` side, ``right`` side or both are infinite.

    An infinite side absorbs whatever is added to it, so the atom reads
    ``inf REL inf`` (true for <= and =) or one infinite side against 0.
    """
    return COMPARE[rel](INFINITY if left else 0, INFINITY if right else 0)


@dataclass(frozen=True)
class MixedAtom(Atom):
    """sum of weight * v(poly(x)) over ``terms``, plus gcoeffs . gamma, REL rhs.

    ``terms`` holds (poly, weight) pairs with nonzero weights, one per
    polynomial and sorted by its key, and none for a pure group-sort atom.
    ``rel`` is one of <, <=, =; ``rhs`` is a Fraction or INFINITY.
    """

    terms: tuple[tuple[FactoredPoly, int], ...]
    gcoeffs: tuple[int, ...]
    rel: str
    rhs: Union[Fraction, object]

    def __post_init__(self):
        if self.rel not in RELS:
            raise ValueError(f"bad relation {self.rel!r}")
        terms = tuple(self.terms)
        if len(terms) > 1:
            terms = tuple(sorted(terms, key=lambda t: t[0].key()))
        for i, (p, w) in enumerate(terms):
            if not index(w) or i and p == terms[i - 1][0]:
                raise ValueError("valuation terms need nonzero weights and distinct polynomials")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "gcoeffs", tuple(map(index, self.gcoeffs)))
        if self.rhs is not INFINITY:
            object.__setattr__(self, "rhs", exact(self.rhs))
        object.__setattr__(self, "_hash", hash((terms, self.gcoeffs, self.rel, self.rhs)))

    def __hash__(self):
        return self._hash

    @property
    def arity(self) -> int:
        return len(self.gcoeffs)

    def holds(self, x: PuiseuxElement, gamma: Sequence[Fraction]) -> bool:
        """Truth at (x, gamma), the finite part summed as ``num / den`` with ``den > 0``.

        ``gamma`` holds ints or Fractions, and a finite valuation is an int
        when it is integral.  ``verify.mixed_atom_holds`` decides the same
        atom in Fractions.
        """
        num, den = 0, 1
        for c, g in zip(self.gcoeffs, gamma):
            if c:
                d = g.denominator
                if d == den:
                    num += c * g.numerator
                else:
                    num = num * d + c * g.numerator * den
                    den *= d
        rhs = self.rhs
        left, right = False, rhs is INFINITY
        for poly, w in self.terms:
            v = poly.valuation_at(x)
            if v is INFINITY:
                left, right = left or w > 0, right or w < 0
            elif type(v) is int:
                num += w * v * den
            else:
                d = v.denominator
                num = num * d + w * v.numerator * den
                den *= d
        if left or right:
            return decide_infinite(self.rel, left, right)
        return COMPARE[self.rel](num * rhs.denominator, rhs.numerator * den)


def polys(f: Formula) -> list[FactoredPoly]:
    """The distinct polynomials of the atoms of ``f``, in key order."""
    seen = {p.key(): p for a in f.atoms() for p, _ in a.terms}
    return sorted(seen.values(), key=FactoredPoly.key)


def matom(
    terms: Sequence[tuple[FactoredPoly, int]], gcoeffs: Sequence[int], rel: str, rhs
) -> Formula:
    """Atomic mixed formula with the relation normalized into {<, <=, =}.

    ``terms`` are the (poly, weight) pairs of :class:`MixedAtom`.  Against
    INFINITY the relation reads off ``_AGAINST_INFINITY``: t <= inf is
    vacuous, t > inf impossible, t >= inf the equality and t != inf the
    strict bound.  A finite right side goes through ``normal_rows``, the
    weights standing first among the coefficients.
    """
    gcoeffs = tuple(map(index, gcoeffs))
    n = len(gcoeffs)
    if rhs is INFINITY:
        if rel not in _AGAINST_INFINITY:
            raise ValueError(f"bad relation {rel!r}")
        rel = _AGAINST_INFINITY[rel]
        if isinstance(rel, bool):
            return Bool(rel, n)
        if not terms:
            return Bool(COMPARE[rel](0, INFINITY), n)
        return MixedAtom(terms, gcoeffs, rel, INFINITY)
    ps = [p for p, _ in terms]
    parts = []
    for row, r, q in normal_rows(tuple([w for _, w in terms]) + gcoeffs, rel, exact(rhs)):
        if any(row):
            parts.append(MixedAtom(tuple(zip(ps, row)), row[len(ps):], r, q))
        else:
            parts.append(Bool(COMPARE[r](0, q), n))
    return parts[0] if len(parts) == 1 else Or.of(*parts)
