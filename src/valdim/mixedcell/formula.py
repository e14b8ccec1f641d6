"""Formulas over one valued coordinate x and n ordered-group coordinates.

Atoms compare ``weight * v(f(x)) + a . gamma`` against an exact rational
(or against the top element, which expresses the zero-test f(x) = 0).
Truth is read in Q extended by -inf and +inf, with the relations of
:mod:`valdim.semilinear.atoms`: INFINITY orders itself against every
rational, so ``COMPARE`` decides an atom whenever the valuation term is
finite.  At a root of f the term is +inf for a positive weight and -inf
for a negative one, and :meth:`MixedAtom.at_infinity` decides the atom
there.

The zero element of the valued coordinate never reaches the group-sort
engine: point loci are split off explicitly during decomposition, and
only there do infinite valuations occur.

Mixed formulas are the shared Boolean nodes of :mod:`valdim.boolean`
over ``MixedAtom`` leaves; their arity is the number of group
coordinates, and ``f.holds(x, gamma)`` evaluates them.
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


@dataclass(frozen=True)
class MixedAtom:
    """weight * v(poly(x)) + gcoeffs . gamma  REL  rhs.

    ``poly`` is None exactly when ``weight`` is 0 (a pure group-sort
    atom).  ``rel`` is one of <, <=, =; ``rhs`` is a Fraction or
    INFINITY.
    """

    weight: int
    poly: FactoredPoly | None
    gcoeffs: tuple[int, ...]
    rel: str
    rhs: Union[Fraction, object]

    def __post_init__(self):
        if self.rel not in RELS:
            raise ValueError(f"bad relation {self.rel!r}")
        if (self.weight == 0) != (self.poly is None):
            raise ValueError("poly must be present iff weight is nonzero")
        object.__setattr__(self, "gcoeffs", tuple(map(index, self.gcoeffs)))
        if self.rhs is not INFINITY:
            object.__setattr__(self, "rhs", exact(self.rhs))
        fields = (self.weight, self.poly, self.gcoeffs, self.rel, self.rhs)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self):
        return self._hash

    @property
    def arity(self) -> int:
        return len(self.gcoeffs)

    def holds(self, x: PuiseuxElement, gamma: Sequence[Fraction]) -> bool:
        lhs = sum(c * g for c, g in zip(self.gcoeffs, gamma))
        if self.weight:
            v = self.poly.valuation_at(x)
            if v is INFINITY:
                return self.at_infinity()
            lhs += self.weight * v
        return COMPARE[self.rel](lhs, self.rhs)

    def at_infinity(self) -> bool:
        """Truth where the valuation term is infinite: +inf, or -inf for a negative weight.

        -inf is below every value, INFINITY included, so the atom then
        holds unless it is an equality.
        """
        if self.weight > 0:
            return COMPARE[self.rel](INFINITY, self.rhs)
        return self.rel != EQ


def polys(f: Formula) -> list[FactoredPoly]:
    """The distinct polynomials of the atoms of ``f``, in key order."""
    seen: dict[tuple, FactoredPoly] = {}
    for a in f.atoms():
        if a.poly is not None:
            seen[a.poly.key()] = a.poly
    return sorted(seen.values(), key=FactoredPoly.key)


def matom(
    weight: int,
    poly: FactoredPoly | None,
    gcoeffs: Sequence[int],
    rel: str,
    rhs,
) -> Formula:
    """Atomic mixed formula with the relation normalized into {<, <=, =}.

    Against INFINITY the relation reads off ``_AGAINST_INFINITY``: t <= inf
    is vacuous, t > inf impossible, t >= inf the equality and t != inf the
    strict bound.  A finite right side goes through ``normal_rows``, the
    weight standing first among the coefficients.
    """
    gcoeffs = tuple(map(index, gcoeffs))
    n = len(gcoeffs)
    if rhs is INFINITY:
        if rel not in _AGAINST_INFINITY:
            raise ValueError(f"bad relation {rel!r}")
        rel = _AGAINST_INFINITY[rel]
        if isinstance(rel, bool):
            return Bool(rel, n)
        if weight == 0:
            return Bool(COMPARE[rel](0, INFINITY), n)
        return Atom(MixedAtom(weight, poly, gcoeffs, rel, INFINITY))
    parts = []
    for (w, *g), r, q in normal_rows((weight, *gcoeffs), rel, exact(rhs)):
        if w == 0 and not any(g):
            parts.append(Bool(COMPARE[r](0, q), n))
        else:
            parts.append(Atom(MixedAtom(w, poly if w else None, tuple(g), r, q)))
    return parts[0] if len(parts) == 1 else Or.of(*parts)
