"""Decomposition of the valued line into pieces with monomial valuations.

Given factored polynomials f_1, ..., f_N, the line splits into finitely
many pieces, each carrying one tracked center c, on which every
v(f_i(x)) is exactly affine in rho = v(x - c).  Pieces come in three
shapes:

- annuli   { x : v(x - c) in (lo, hi) }     open rational interval,
- spheres  { x : v(x - c) = r } minus the branches of the other tracked
  elements at distance exactly r (the ``avoid`` list),
- explicit finite point lists (the centers themselves).

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
    radius data is (lo, hi) for annuli with None for an unbounded end,
    ``radius`` plus the ``avoid`` exclusion list for spheres, and the
    explicit ``elements`` list for point pieces.
    """

    kind: str
    center: PuiseuxElement | None = None
    lo: Fraction | None = None
    hi: Fraction | None = None
    radius: Fraction | None = None
    avoid: tuple[PuiseuxElement, ...] = ()
    elements: tuple[PuiseuxElement, ...] = ()

    def contains(self, x: PuiseuxElement) -> bool:
        if self.kind == "points":
            return any(x == e for e in self.elements)
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
            return self.elements[0]
        if self.kind == "sphere":
            r = self.radius
            bad = {Fraction(0)}
            for a in self.avoid:
                bad.add(-(self.center - a).coefficient(r))
            u = Fraction(1)
            while u in bad:
                u += 1
            return self.center + PuiseuxElement.of((r, u))
        if rho is None:
            if self.lo is None and self.hi is None:
                rho = Fraction(0)
            elif self.lo is None:
                rho = self.hi - 1
            elif self.hi is None:
                rho = self.lo + 1
            else:
                rho = (self.lo + self.hi) / 2
        else:
            if (self.lo is not None and rho <= self.lo) or (
                self.hi is not None and rho >= self.hi
            ):
                raise ValueError(f"radius {rho} outside the annulus interval")
        return self.center + PuiseuxElement.of((rho, Fraction(1)))

    def sort_key(self) -> tuple:
        order = {"points": 0, "sphere": 1, "annulus": 2}
        if self.kind == "points":
            return (self.elements[0].key(), order[self.kind], ())
        radius_key = (
            (self.radius,)
            if self.kind == "sphere"
            else (self.lo is None, self.lo, self.hi is None, self.hi)
        )
        return (self.center.key(), order[self.kind], radius_key)


def piece_k_dimension(p: SwissPiece) -> int:
    """0 for an explicit finite point list, 1 for any other piece.

    Every annulus or sphere piece with a nonempty radius condition is an
    infinite clopen subset of the line.
    """
    return 0 if p.kind == "points" else 1


def _valuations_for(
    polys: Sequence[FactoredPoly],
    center: PuiseuxElement,
    dist_of: dict[tuple, Fraction],
    hi: Fraction | None,
    sphere_at: Fraction | None = None,
) -> tuple[MonomialValuation, ...]:
    """Monomial data for each polynomial on one piece around ``center``.

    For an annulus piece the cut is at its upper end ``hi``: roots at
    distance >= hi (and the center itself) contribute the slope, roots
    strictly below contribute constants.  For a sphere piece at radius r
    roots at distance exactly r sit on the avoided branches and
    contribute r as a constant.
    """
    out = []
    for f in polys:
        slope = 0
        const = Fraction(0)  # lead coefficients are rational: valuation 0
        for r, m in f.roots:
            if r == center:
                slope += m
                continue
            d = dist_of[r.key()]
            if sphere_at is not None:
                if d > sphere_at:
                    slope += m
                elif d == sphere_at:
                    const += m * sphere_at
                else:
                    const += m * d
            else:
                if hi is not None and d >= hi:
                    slope += m
                else:
                    const += m * d
        out.append(MonomialValuation(const, slope))
    return tuple(out)


def monomial_decompose(
    polys: Sequence[FactoredPoly],
) -> list[tuple[SwissPiece, tuple[MonomialValuation, ...]]]:
    """Partition the valued line so every input polynomial is monomial.

    Returns (piece, per-polynomial valuation) pairs in canonical piece
    order.  The tracked centers are the roots of all the inputs together
    with 0; the critical radii of a center are its distances to the other
    centers.
    """
    centers: dict[tuple, PuiseuxElement] = {
        PuiseuxElement().key(): PuiseuxElement()
    }
    for f in polys:
        for r, _ in f.roots:
            centers[r.key()] = r
    clist = sorted(centers.values(), key=PuiseuxElement.key)

    out: list[tuple[SwissPiece, tuple[MonomialValuation, ...]]] = []
    for c in clist:
        dist_of: dict[tuple, Fraction] = {}
        for other in clist:
            if other == c:
                continue
            dist_of[other.key()] = c.distance(other)
        radii = sorted(set(dist_of.values()))

        def least_of_cluster(threshold: Fraction | None, strict: bool) -> PuiseuxElement:
            """Least center among those at distance >= / > threshold, plus c."""
            cluster = [c]
            if threshold is not None:
                for other in clist:
                    if other == c:
                        continue
                    d = dist_of[other.key()]
                    if d > threshold or (not strict and d == threshold):
                        cluster.append(other)
            return min(cluster, key=PuiseuxElement.key)

        edges = [None, *radii, None]
        for i in range(len(edges) - 1):
            lo, hi = edges[i], edges[i + 1]
            if hi is None:
                owner = c  # innermost annulus: nothing is closer
            else:
                owner = least_of_cluster(hi, strict=False)
            if owner == c:
                piece = SwissPiece("annulus", center=c, lo=lo, hi=hi)
                out.append((piece, _valuations_for(polys, c, dist_of, hi)))
        for r in radii:
            if least_of_cluster(r, strict=False) != c:
                continue
            avoid = tuple(
                other for other in clist
                if other != c and dist_of[other.key()] == r
            )
            piece = SwissPiece("sphere", center=c, radius=r, avoid=avoid)
            out.append(
                (piece, _valuations_for(polys, c, dist_of, None, sphere_at=r))
            )
        piece = SwissPiece("points", elements=(c,))
        out.append((piece, _valuations_for(polys, c, dist_of, None)))

    out.sort(key=lambda pv: pv[0].sort_key())
    return out
