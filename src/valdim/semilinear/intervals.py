"""Canonical shape of a one-variable definable set over (Q, +, <).

Every Boolean combination of one-variable linear constraints is a finite
union of maximal intervals and isolated points.  The pair (M, N) counting
them is the *type* of the set; the decomposition itself is unique once
adjacent pieces are merged, and the boundary is read off the endpoint and
point data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .atoms import Formula, embed
from .cells import cell_decompose

#: (lo, lo_closed, hi, hi_closed); None stands for the missing endpoint of
#: a half-line or the full line.
Interval = tuple[Fraction | None, bool, Fraction | None, bool]


@dataclass(frozen=True)
class IntervalType:
    """Type (M, N): M maximal intervals, N isolated points, plus the data.

    Endpoints appear in increasing order and isolated points are distinct
    from interval endpoints (such coincidences merge during
    normalization).  ``boundary`` is the topological boundary: closure
    minus interior.
    """

    M: int
    N: int
    intervals: tuple[Interval, ...]
    points: tuple[Fraction, ...]
    boundary: tuple[Fraction, ...]

    def is_empty(self) -> bool:
        return self.M == 0 and self.N == 0

    def holds(self, x: Fraction) -> bool:
        for lo, lc, hi, hc in self.intervals:
            if (lo is None or x > lo or (lc and x == lo)) and (
                hi is None or x < hi or (hc and x == hi)
            ):
                return True
        return x in self.points


def one_var_canonical(f: Formula) -> IntervalType:
    """Canonical decomposition of a formula in at most one variable.

    Reads the cells of :func:`cell_decompose` bottom to top and merges
    two consecutive cells when they share an endpoint that one of them
    contains.  A closed run of one point is an isolated point.  A formula
    without variables is read as a cylinder over the line.
    """
    if f.arity > 1:
        raise ValueError(f"one_var_canonical needs 1 free variable, got {f.arity}")
    if f.arity == 0:
        f = embed(f, (0,), 1)
    runs: list[list] = []
    for cell in cell_decompose(f):
        [spec] = cell.bounds
        if cell.signature == (0,):
            v = spec.value(())
            lo, lc, hi, hc = v, True, v, True
        else:
            lo, hi = (b and b.value(()) for b in spec)
            lc = hc = False
        if runs and runs[-1][2] == lo and (runs[-1][3] or lc):
            runs[-1][2:] = hi, hc
        else:
            runs.append([lo, lc, hi, hc])
    intervals = tuple(tuple(r) for r in runs if r[0] is None or r[0] != r[2])
    points = tuple(r[0] for r in runs if r[0] is not None and r[0] == r[2])
    boundary = {e for lo, _, hi, _ in intervals for e in (lo, hi) if e is not None}
    return IntervalType(
        M=len(intervals),
        N=len(points),
        intervals=intervals,
        points=points,
        boundary=tuple(sorted(boundary.union(points))),
    )
