"""Finite lower sets of N^2 and N^3 with exact dimension arithmetic.

A lower set is a subset of N^2 (or N^3) closed downward under the
componentwise partial order.  Finite lower sets are the values taken by the
mixed dimension of a set split across one valued coordinate and several
ordered-group coordinates: the first component counts valued-field
dimensions, the second counts value-group dimensions (and the third, when
present, residue-field dimensions).

Lower sets are stored by their maximal-antichain generators, never by
element enumeration, so every operation is exact and runs in
O(len(maxima)^2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

#: Dimension of the empty lower set.  Kept distinct from 0: a lower set has
#: dimension 0 exactly when it is the singleton {origin}, which tracks a
#: nonempty finite set, while the empty lower set tracks the empty set.
NEG_INF = float("-inf")

DimPoint2 = tuple[int, int]
DimPoint3 = tuple[int, int, int]


def _leq(p: Sequence[int], q: Sequence[int]) -> bool:
    return all(a <= b for a, b in zip(p, q))


def _antichain(points: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Maximal elements of ``points`` under the componentwise order, sorted."""
    pts = set(points)
    maxima = [
        p
        for p in pts
        if not any(q != p and _leq(p, q) for q in pts)
    ]
    return tuple(sorted(maxima))


def _check_point(p: Sequence[int], width: int) -> tuple[int, ...]:
    t = tuple(p)
    if len(t) != width:
        raise ValueError(f"expected a point of N^{width}, got {p!r}")
    if not all(isinstance(c, int) and c >= 0 for c in t):
        raise ValueError(f"coordinates must be nonnegative integers: {p!r}")
    return t


@dataclass(frozen=True)
class LowerSet2:
    """Finite lower subset of N^2 in canonical maximal-antichain form.

    ``maxima`` is the sorted antichain of maximal points; the represented
    set is the union of the principal ideals below them.  The empty tuple
    represents the empty lower set.
    """

    maxima: tuple[DimPoint2, ...] = ()

    WIDTH = 2

    def __post_init__(self):
        pts = [_check_point(p, self.WIDTH) for p in self.maxima]
        object.__setattr__(self, "maxima", _antichain(pts))

    def __contains__(self, point: Sequence[int]) -> bool:
        p = _check_point(point, self.WIDTH)
        return any(_leq(p, m) for m in self.maxima)

    def is_empty(self) -> bool:
        return not self.maxima

    def __le__(self, other: "LowerSet2") -> bool:
        """Containment of the represented sets."""
        return all(any(_leq(m, q) for q in other.maxima) for m in self.maxima)

    def points(self) -> set[tuple[int, ...]]:
        """Full element enumeration (tests only; operations avoid this)."""
        out: set[tuple[int, ...]] = set()
        for m in self.maxima:
            out.update(product(*(range(c + 1) for c in m)))
        return out

    def to_json(self) -> str:
        return json.dumps({"maxima": [list(p) for p in self.maxima]})

    @classmethod
    def from_json(cls, text: str) -> "LowerSet2":
        data = json.loads(text)
        return cls(tuple(tuple(p) for p in data["maxima"]))


@dataclass(frozen=True)
class LowerSet3(LowerSet2):
    """Finite lower subset of N^3; same canonical-antichain invariants."""

    maxima: tuple[DimPoint3, ...] = ()

    WIDTH = 3


def principal(p: Sequence[int]) -> LowerSet2:
    """Smallest lower set containing ``p``: the ideal of points below it."""
    t = tuple(p)
    cls = LowerSet3 if len(t) == 3 else LowerSet2
    return cls((t,))


def lower_closure(points: Iterable[Sequence[int]]) -> LowerSet2:
    """Smallest lower set containing all of ``points``.

    The result's maxima are the antichain of the input.  An empty input
    gives the empty lower set (of N^2 by convention).
    """
    pts = [tuple(p) for p in points]
    if not pts:
        return LowerSet2(())
    widths = {len(p) for p in pts}
    if len(widths) != 1:
        raise ValueError("mixed point widths in lower_closure input")
    cls = LowerSet3 if widths.pop() == 3 else LowerSet2
    return cls(tuple(pts))


def _common_class(a: LowerSet2, b: LowerSet2, op: str) -> type:
    """The lower-set class of both operands.

    The empty lower set is empty in every width (``[]`` reads as the empty
    set of N^2), so it takes the width of the other operand.
    """
    if type(a) is type(b) or b.is_empty():
        return type(a)
    if a.is_empty():
        return type(b)
    raise ValueError(f"{op} requires lower sets of the same width")


def join(a: LowerSet2, b: LowerSet2) -> LowerSet2:
    """Least upper bound: union of the represented sets."""
    return _common_class(a, b, "join")(a.maxima + b.maxima)


def add(a: LowerSet2, b: LowerSet2) -> LowerSet2:
    """Minkowski sum of the represented sets, itself a lower set.

    Every sum of two downward-closed sets is generated by the pairwise
    sums of their maxima, so only generators are combined.
    """
    cls = _common_class(a, b, "add")
    sums = [tuple(x + y for x, y in zip(p, q)) for p in a.maxima for q in b.maxima]
    return cls(tuple(sums))


def shift_closure(a: LowerSet2) -> LowerSet2:
    """Closure of ``a`` under converting valued-field into group dimensions.

    Returns max over k >= 0 of ``a + (-k, k)`` intersected with N^2,
    i.e. the closure under the single-step move (d1, d2) -> (d1-1, d2+1)
    for d1 >= 1, followed by lower closure.  This is the upper bound for
    the dimension of any image of a set of dimension ``a``: a valued-field
    dimension may become a group dimension, never the reverse.
    """
    if isinstance(a, LowerSet3):
        raise ValueError("use shift_closure3 for lower sets of N^3")
    gens = set(a.maxima)
    for (d1, d2) in a.maxima:
        for k in range(1, d1 + 1):
            gens.add((d1 - k, d2 + k))
    return LowerSet2(tuple(gens))


_SHIFTS3 = ((-1, 0, 0), (-1, 1, 0), (-1, 0, 1), (0, -1, 0), (0, 0, -1))


def shift_closure3(a: LowerSet3) -> LowerSet3:
    """Closure of ``a`` under the three-sort single-step dimension shifts.

    The shift family lets one valued-field dimension disappear or convert
    into one group dimension or one residue dimension; group and residue
    dimensions can only disappear.  Shifts are applied to a fixpoint
    (compositions realize every (-a-b, a, b)), then lower closure.
    """
    gens: set[tuple[int, ...]] = set(a.maxima)
    frontier = set(gens)
    while frontier:
        nxt: set[tuple[int, ...]] = set()
        for p in frontier:
            for s in _SHIFTS3:
                q = tuple(c + d for c, d in zip(p, s))
                if all(c >= 0 for c in q) and q not in gens:
                    gens.add(q)
                    nxt.add(q)
        frontier = nxt
    return LowerSet3(tuple(gens))


def dim_nat(a: LowerSet2) -> int | float:
    """Collapse to a single natural number: the maximal coordinate sum.

    Returns ``NEG_INF`` for the empty lower set.
    """
    if a.is_empty():
        return NEG_INF
    return max(sum(p) for p in a.maxima)


def render_diagram(a: LowerSet2) -> str:
    """ASCII diagram of a lower set of N^2: one row per second coordinate.

    Members print as a bullet, non-members as a dot; both axes are
    labelled.  Output is deterministic.
    """
    if isinstance(a, LowerSet3):
        raise ValueError("diagrams are drawn for lower sets of N^2 only")
    if a.is_empty():
        return "(empty)"
    xmax = max(p[0] for p in a.maxima)
    ymax = max(p[1] for p in a.maxima)
    ywidth = len(str(ymax))
    xwidth = max(len(str(x)) for x in range(xmax + 1))
    lines = []
    for y in range(ymax, -1, -1):
        cells = [
            ("•" if (x, y) in a else ".").rjust(xwidth) for x in range(xmax + 1)
        ]
        lines.append(f"{str(y).rjust(ywidth)} | " + " ".join(cells))
    lines.append(" " * ywidth + " +" + "-" * ((xwidth + 1) * (xmax + 1) + 1))
    lines.append(
        " " * (ywidth + 3) + " ".join(str(x).rjust(xwidth) for x in range(xmax + 1))
    )
    return "\n".join(lines)
