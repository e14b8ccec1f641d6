"""Finite lower sets of N^2 and N^3 with exact dimension arithmetic.

A lower set is a subset of N^2 (or N^3) closed downward under the
componentwise partial order.  Finite lower sets are the values taken by the
mixed dimension of a set split across one valued coordinate and several
ordered-group coordinates: the first component counts valued-field
dimensions, the second counts value-group dimensions (and the third, when
present, residue-field dimensions).

Lower sets are stored by their maximal-antichain generators, never by
element enumeration, so every operation is exact; reducing n generators
to their maxima takes O(n log n) comparisons in N^2 and in N^3.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from itertools import product
from math import comb
from typing import Iterable, Sequence

#: Dimension of the empty lower set.  Kept distinct from 0: a lower set has
#: dimension 0 exactly when it is the singleton {origin}, which tracks a
#: nonempty finite set, while the empty lower set tracks the empty set.
NEG_INF = float("-inf")

DimPoint = tuple[int, ...]

#: Most points :func:`render_diagram` draws (its bounding box) and
#: :func:`shift_closure` generates.
MAX_POINTS = 1_000_000


def _leq(p: Sequence[int], q: Sequence[int]) -> bool:
    return all(a <= b for a, b in zip(p, q))


def _antichain(points: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Maximal elements of ``points`` under the componentwise order, sorted.

    In descending lexicographic order every point comes after all points
    above it, so a point is maximal exactly when no maximum kept before
    it lies above it.  In N^2 that is a sweep: a point is kept when its
    second coordinate beats every one kept so far.  In N^3 every kept
    maximum has a first coordinate at least the point's, so the point is
    dominated exactly when some kept ``(y, z)`` lies above its own.  The
    maximal kept pairs form a staircase, ``y`` ascending and ``z``
    descending, whose first entry with ``y >= p[1]`` has the largest
    ``z`` of those that qualify: one bisection per point.
    """
    maxima: list[tuple[int, ...]] = []
    top = -1
    ys: list[int] = []
    negzs: list[int] = []
    for p in sorted(set(points), reverse=True):
        if len(p) == 2:
            if p[1] > top:
                top = p[1]
                maxima.append(p)
            continue
        _, y, z = p
        i = bisect_left(ys, y)
        if i < len(ys) and -negzs[i] >= z:
            continue
        maxima.append(p)
        # the kept pairs below (y, z) leave the staircase
        j = bisect_right(ys, y)
        i = bisect_left(negzs, -z, 0, j)
        ys[i:j] = [y]
        negzs[i:j] = [-z]
    return tuple(reversed(maxima))


def _check_point(p: Sequence[int], width: int | None) -> tuple[int, ...]:
    """``p`` as a point of N^2 or N^3, of ``width`` unless that is None."""
    t = tuple(p)
    if len(t) not in (2, 3):
        raise ValueError(f"expected a point of N^2 or N^3, got {p!r}")
    if width not in (None, len(t)):
        raise ValueError(f"expected a point of N^{width}, got {p!r}")
    if not all(isinstance(c, int) and c >= 0 for c in t):
        raise ValueError(f"coordinates must be nonnegative integers: {p!r}")
    return t


class LowerSet:
    """Finite lower subset of N^2 or N^3 in canonical maximal-antichain form.

    ``maxima`` is the sorted antichain of maximal points; the represented
    set is the union of the principal ideals below them, and its width is
    that of its points.  The empty tuple represents the empty lower set,
    which fits every width.  A value: immutable, compared and hashed by
    ``maxima``.
    """

    __slots__ = ("maxima",)
    maxima: tuple[DimPoint, ...]

    def __init__(self, maxima: Sequence[DimPoint] = ()):
        width = len(maxima[0]) if maxima else None
        pts = [_check_point(p, width) for p in maxima]
        object.__setattr__(self, "maxima", _antichain(pts))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.maxima == other.maxima
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.maxima,))

    def __repr__(self) -> str:
        return f"LowerSet(maxima={self.maxima!r})"

    @property
    def width(self) -> int | None:
        """2 or 3, or None for the empty lower set."""
        return len(self.maxima[0]) if self.maxima else None

    def __contains__(self, point: Sequence[int]) -> bool:
        p = _check_point(point, self.width)
        return any(_leq(p, m) for m in self.maxima)

    def is_empty(self) -> bool:
        return not self.maxima

    def __le__(self, other: "LowerSet") -> bool:
        """Containment of the represented sets."""
        _same_width(self, other, "comparison")
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
    def from_json(cls, text: str) -> "LowerSet":
        data = json.loads(text)
        return cls(tuple(tuple(p) for p in data["maxima"]))


def principal(p: Sequence[int]) -> LowerSet:
    """Smallest lower set containing ``p``: the ideal of points below it."""
    return LowerSet((tuple(p),))


def lower_closure(points: Iterable[Sequence[int]]) -> LowerSet:
    """Smallest lower set containing all of ``points``.

    The result's maxima are the antichain of the input.  An empty input
    gives the empty lower set.
    """
    return LowerSet(tuple(tuple(p) for p in points))


def _same_width(a: LowerSet, b: LowerSet, op: str) -> None:
    """Reject operands of two widths; the empty lower set fits either."""
    if a.maxima and b.maxima and a.width != b.width:
        raise ValueError(f"{op} requires lower sets of the same width")


def join(a: LowerSet, b: LowerSet) -> LowerSet:
    """Least upper bound: union of the represented sets."""
    _same_width(a, b, "join")
    return LowerSet(a.maxima + b.maxima)


def add(a: LowerSet, b: LowerSet) -> LowerSet:
    """Minkowski sum of the represented sets, itself a lower set.

    Every sum of two downward-closed sets is generated by the pairwise
    sums of their maxima, so only generators are combined.
    """
    _same_width(a, b, "add")
    sums = [tuple(x + y for x, y in zip(p, q)) for p in a.maxima for q in b.maxima]
    return LowerSet(tuple(sums))


def shift_closure(a: LowerSet) -> LowerSet:
    """Closure of ``a`` under converting valued-field into other dimensions.

    In N^2 one valued-field dimension may become a group dimension,
    (d1, d2) -> (d1-1, d2+1) for d1 >= 1; in N^3 it may become a group or
    a residue dimension.  Any dimension may also disappear, which the
    lower closure covers.  This is the upper bound for the dimension of
    any image of a set of dimension ``a``: a valued-field dimension may
    become a group dimension, never the reverse.  The closure of a point p
    of width w is generated by ``p - |k| e_1 + (0, k)`` for k in N^(w-1)
    with |k| <= p_1, C(p_1 + w - 1, w - 1) points; a closure of more than
    ``MAX_POINTS`` generators is refused with a ValueError before any is
    built.  The generators of one point are an antichain, made here in
    sorted order, so a closure of one maximum is built as it stands.
    """
    w = a.width
    if w is None:
        return a
    if sum(comb(p[0] + w - 1, w - 1) for p in a.maxima) > MAX_POINTS:
        raise ValueError(f"a shift closure of more than {MAX_POINTS} points is not built")
    gens: list[DimPoint] = []
    for p in a.maxima:
        d1, r2 = p[0], p[1]
        # s = |k| descending, so the first coordinate ascends
        if w == 2:
            gens += [(d1 - s, r2 + s) for s in range(d1, -1, -1)]
        else:
            r3 = p[2]
            gens += [(d1 - s, r2 + k, r3 + s - k) for s in range(d1, -1, -1) for k in range(s + 1)]
    out = object.__new__(LowerSet)
    object.__setattr__(out, "maxima", tuple(gens) if len(a.maxima) == 1 else _antichain(gens))
    return out


def shift_closure3(a: LowerSet) -> LowerSet:
    """:func:`shift_closure` of a lower set of N^3, which it requires.

    One valued-field dimension may disappear or convert into one group
    dimension or one residue dimension; group and residue dimensions can
    only disappear.
    """
    if a.width == 2:
        raise ValueError("shift_closure3 takes lower sets of N^3")
    return shift_closure(a)


def dim_nat(a: LowerSet) -> int | float:
    """Collapse to a single natural number: the maximal coordinate sum.

    Returns ``NEG_INF`` for the empty lower set.
    """
    if a.is_empty():
        return NEG_INF
    return max(sum(p) for p in a.maxima)


def render_diagram(a: LowerSet) -> str:
    """ASCII diagram of a lower set of N^2: one row per second coordinate.

    Members print as a bullet, non-members as a dot; both axes are
    labelled.  Output is deterministic.  A bounding box of more than
    ``MAX_POINTS`` cells is refused with a ValueError.
    """
    if a.width == 3:
        raise ValueError("diagrams are drawn for lower sets of N^2 only")
    if a.is_empty():
        return "(empty)"
    xmax = max(p[0] for p in a.maxima)
    ymax = max(p[1] for p in a.maxima)
    if (xmax + 1) * (ymax + 1) > MAX_POINTS:
        raise ValueError(f"a diagram of more than {MAX_POINTS} cells is not drawn")
    ywidth = len(str(ymax))
    xwidth = max(len(str(x)) for x in range(xmax + 1))
    # reach[y]: the largest x with (x, y) in a, or -1
    reach = [-1] * (ymax + 2)
    for x, y in a.maxima:
        reach[y] = x
    for y in range(ymax, -1, -1):
        reach[y] = max(reach[y], reach[y + 1])
    bullet, dot = "•".rjust(xwidth), ".".rjust(xwidth)
    lines = []
    for y in range(ymax, -1, -1):
        cells = [bullet] * (reach[y] + 1) + [dot] * (xmax - reach[y])
        lines.append(f"{str(y).rjust(ywidth)} | " + " ".join(cells))
    lines.append(" " * ywidth + " +" + "-" * ((xwidth + 1) * (xmax + 1) + 1))
    lines.append(
        " " * (ywidth + 3) + " ".join(str(x).rjust(xwidth) for x in range(xmax + 1))
    )
    return "\n".join(lines)
