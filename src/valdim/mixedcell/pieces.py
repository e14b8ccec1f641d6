"""Decomposition of the valued line into pieces with monomial valuations.

Given factored polynomials f_1, ..., f_N, the line splits into finitely
many pieces, each carrying one tracked center c, on which every
v(f_i(x)) is exactly affine in rho = v(x - c).  Pieces come in three
shapes:

- annuli   { x : v(x - c) in (lo, hi) }     open rational interval,
- spheres  { x : v(x - c) = r } minus the branches of the other tracked
  elements at distance exactly r (the ``avoid`` list),
- points, one per tracked center: the piece is its ``center``, and its
  JSON form lists that one element.

Each point of the line is assigned to the piece of its *canonical*
center: the term-lexicographically least element among the tracked ones
closest to it.  Spheres and annuli reachable from several centers are
therefore emitted once, from the least center of the relevant cluster,
and the emitted pieces partition the line by construction.  The branch
entered at a critical radius is covered by the pieces centered inside
that branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..semilinear.atoms import between
from .puiseux import INFINITY, FactoredPoly, PuiseuxElement, Val


@dataclass(frozen=True)
class MonomialValuation:
    """v(f(x)) = const + slope * rho on the owning piece (slope in N).

    On a point piece rho is infinite: the value is ``const`` when
    slope = 0 and INFINITY otherwise.
    """

    const: Fraction
    slope: int

    def value(self, rho: Val) -> Val:
        if rho is INFINITY:
            return INFINITY if self.slope else self.const
        return self.const + self.slope * rho


@dataclass(frozen=True)
class SwissPiece:
    """One piece of the valued line; see the module docstring for shapes.

    ``kind`` is one of ``"annulus"``, ``"sphere"``, ``"points"``.  The
    radius data is (lo, hi) for annuli with None for an unbounded end and
    ``radius`` plus the ``avoid`` exclusion list for spheres; a point
    piece is its ``center`` alone.
    """

    kind: str
    center: PuiseuxElement | None = None
    lo: Fraction | None = None
    hi: Fraction | None = None
    radius: Fraction | None = None
    avoid: tuple[PuiseuxElement, ...] = ()

    def contains(self, x: PuiseuxElement) -> bool:
        if self.kind == "points":
            return x == self.center
        rho = x.distance(self.center)
        if self.kind == "sphere":
            if rho != self.radius:
                return False
            return all(x.distance(a) == self.radius for a in self.avoid)
        if rho is INFINITY:
            return False
        if self.lo is not None and not (self.lo < rho):
            return False
        if self.hi is not None and not (rho < self.hi):
            return False
        return True

    def rho_of(self, x: PuiseuxElement) -> Val:
        """The radius coordinate of a member point."""
        if self.kind == "points":
            return INFINITY
        return x.distance(self.center)

    def sample(self, rho: Fraction | None = None) -> PuiseuxElement:
        """A member of the piece, optionally at a prescribed radius."""
        if self.kind == "points":
            return self.center
        if self.kind == "sphere":
            r = self.radius
            bad = {0}
            for a in self.avoid:
                bad.add(-(self.center - a).coefficient(r))
            u = 1
            while u in bad:
                u += 1
            return self.center + PuiseuxElement.of((r, u))
        if rho is None:
            rho = between(self.lo, self.hi)
        else:
            if (self.lo is not None and rho <= self.lo) or (
                self.hi is not None and rho >= self.hi
            ):
                raise ValueError(f"radius {rho} outside the annulus interval")
        return self.center + PuiseuxElement.of((rho, 1))


def piece_k_dimension(p: SwissPiece) -> int:
    """0 for a point piece, 1 for any other piece.

    Every annulus or sphere piece with a nonempty radius condition is an
    infinite clopen subset of the line.
    """
    return 0 if p.kind == "points" else 1


def monomial_decompose(
    polys: Sequence[FactoredPoly],
) -> list[tuple[SwissPiece, tuple[MonomialValuation, ...]]]:
    """Partition the valued line so every input polynomial is monomial.

    Returns (piece, per-polynomial valuation) pairs in canonical piece
    order: by center, then the point, the spheres by radius, the annuli
    by lower end and the unbounded annulus last.  The tracked centers are
    the roots of all the inputs together with 0; the critical radii of a
    center are its distances to the other centers.

    Centers are handled by their index in key order, so the least center
    of a cluster is its lowest index: center i owns a radius r exactly
    when every center before it lies at distance < r.  Around center i,
    with distinct radii r_0 < ... < r_(k-1), the valuations on annulus t
    (between r_(t-1) and r_t, where t = k is the innermost) count a root
    in the slope when it is the center or lies at distance >= r_t, and
    as the constant m * d otherwise.  The sphere at r_t has the
    valuations of annulus t + 1, and the point those of annulus k.
    """
    found = {(): PuiseuxElement()}
    for f in polys:
        for r, _ in f.roots:
            found[r.terms] = r
    clist = sorted(found.values(), key=PuiseuxElement.key)
    at = {c.terms: i for i, c in enumerate(clist)}
    roots = [[(at[r.terms], m) for r, m in f.roots] for f in polys]
    n = len(clist)
    dist: list[list[Val]] = [[INFINITY] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = clist[i].distance(clist[j])

    out: list[tuple[SwissPiece, tuple[MonomialValuation, ...]]] = []
    for i, c in enumerate(clist):
        row = dist[i]
        # The distinct radii, the rank of each other center's distance
        # among them, and the centers at each radius in index order.
        radii: list[Fraction] = []
        rank = [-1] * n
        at_radius: list[list[PuiseuxElement]] = []
        for j in sorted((j for j in range(n) if j != i), key=row.__getitem__):
            if not radii or row[j] != radii[-1]:
                # a Fraction, as the radius data of the pieces and the
                # samplers that divide it expect
                radii.append(Fraction(row[j]))
                at_radius.append([])
            rank[j] = len(radii) - 1
            at_radius[-1].append(clist[j])
        k = len(radii)
        first = max((rank[j] + 1 for j in range(i)), default=0)

        columns = []
        for rs in roots:
            mult = [0] * k
            slope = 0
            for j, m in rs:
                slope += m
                if j != i:
                    mult[rank[j]] += m
            const = Fraction(0)
            column = [MonomialValuation(const, slope)]
            for t in range(k):
                if mult[t]:
                    const += mult[t] * radii[t]
                    slope -= mult[t]
                column.append(MonomialValuation(const, slope))
            columns.append(column)
        # vals[t]: the valuations on annulus t
        vals = [tuple(column[t] for column in columns) for t in range(k + 1)]

        out.append((SwissPiece("points", center=c), vals[k]))
        for t in range(first, k):
            piece = SwissPiece(
                "sphere", center=c, radius=radii[t], avoid=tuple(at_radius[t])
            )
            out.append((piece, vals[t + 1]))
        for t in range(max(first, 1), k + 1):
            hi = radii[t] if t < k else None
            piece = SwissPiece("annulus", center=c, lo=radii[t - 1], hi=hi)
            out.append((piece, vals[t]))
        if first == 0:
            piece = SwissPiece("annulus", center=c, hi=radii[0] if k else None)
            out.append((piece, vals[0]))
    return out
