"""Formulas over one valued coordinate x and n ordered-group coordinates.

Atoms compare ``weight * v(f(x)) + a . gamma`` against an exact rational
(or against the top element, which expresses the zero-test f(x) = 0).
Valuations take values in Q extended by INFINITY, so atom truth follows
the extended order: a positive-weight valuation term at a root of f is
infinite, a negative-weight one is minus infinite.

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
from ..semilinear.atoms import exact
from .puiseux import INFINITY, FactoredPoly, PuiseuxElement

_REL_FLIP = {">": "<", ">=": "<="}


def _ext_compare(lhs, rel: str, rhs) -> bool:
    """Order comparisons on Q extended by +/- infinity.

    ``lhs`` may be a Fraction, INFINITY, or the string "-inf" (a negative
    weight on an infinite valuation); ``rhs`` is a Fraction or INFINITY.
    """
    if lhs == "-inf":
        if rel == "<":
            return True
        if rel == "<=":
            return True
        return False
    if lhs is INFINITY:
        if rel == "=":
            return rhs is INFINITY
        if rel == "<":
            return False
        return rhs is INFINITY  # <=
    # finite lhs
    if rhs is INFINITY:
        return rel != "="
    if rel == "<":
        return lhs < rhs
    if rel == "<=":
        return lhs <= rhs
    return lhs == rhs


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
        if self.rel not in ("<", "<=", "="):
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
        gpart = sum(c * g for c, g in zip(self.gcoeffs, gamma))
        if self.weight == 0:
            return _ext_compare(Fraction(gpart), self.rel, self.rhs)
        v = self.poly.valuation_at(x)
        if v is INFINITY:
            lhs = INFINITY if self.weight > 0 else "-inf"
        else:
            lhs = self.weight * v + gpart
        return _ext_compare(lhs, self.rel, self.rhs)


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

    Comparisons against INFINITY reduce first: t <= inf is vacuous,
    t > inf impossible, t >= inf is the equality, t != inf the strict
    bound.  For finite right sides >, >= flip signs; != expands into a
    disjunction.
    """
    gcoeffs = tuple(map(index, gcoeffs))
    if rhs is INFINITY:
        if rel in ("<=",):
            return Bool(True, len(gcoeffs))
        if rel == ">":
            return Bool(False, len(gcoeffs))
        if rel == ">=":
            rel = "="
        if rel == "!=":
            rel = "<"
        if weight == 0:
            # finite lhs against infinity
            return Bool(rel == "<", len(gcoeffs))
        return Atom(MixedAtom(weight, poly, gcoeffs, rel, INFINITY))
    rhs = exact(rhs)
    if rel in _REL_FLIP:
        return matom(
            -weight,
            poly if weight != 0 else None,
            tuple(-c for c in gcoeffs),
            _REL_FLIP[rel],
            -rhs,
        )
    if rel == "!=":
        return Or.of(
            matom(weight, poly, gcoeffs, "<", rhs),
            matom(-weight, poly, tuple(-c for c in gcoeffs), "<", -rhs),
        )
    if rel == "==":
        rel = "="
    if weight == 0 and all(c == 0 for c in gcoeffs):
        zero = Fraction(0)
        val = zero < rhs if rel == "<" else (zero <= rhs if rel == "<=" else zero == rhs)
        return Bool(val, len(gcoeffs))
    return Atom(MixedAtom(weight, poly if weight != 0 else None, gcoeffs, rel, rhs))
