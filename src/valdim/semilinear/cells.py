"""Recursive cell decomposition of semilinear sets over (Q, +, <).

A cell with signature (i_1, ..., i_n) in {0,1}^n is built coordinate by
coordinate: coordinate k is either the graph of an affine bound over the
earlier coordinates (i_k = 0) or an open band between two such bounds
(i_k = 1).  A band end may be open: it is then None, as in
:func:`~valdim.semilinear.atoms.between`, and ``-inf`` below or ``inf``
above in the cell JSON.  The dimension of a cell is the sum of its signature.

The decomposition refines the arrangement of every atom of the input
formula: the last coordinate is sliced along the bound functions solved
out of the atoms mentioning it, uniformly over a recursive decomposition
of the base that keeps the relative order of those bounds constant.  On
each resulting cell every atom has constant truth value.  A formula is
decomposed by deciding that truth while lifting, from the order of the
bound values at each base cell's sample point, and keeping the cells on
which the formula is true; this is exact because it is the truth of
every atom at the cell's own sample point.

Cells are built only when a caller asks for them.  :func:`dimension`
works on the DNF by implicit equalities and exact rank; the largest
signature sum of a decomposition is the oracle it is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Sequence, Union

from ..boolean import evaluate
from ..lowerset import NEG_INF
from .atoms import (
    COMPARE,
    EQ,
    LT,
    Atom,
    BasicSet,
    Formula,
    LinearAtom,
    Point,
    atom,
    between,
    normalize_dnf,
)
from .elimination import basic_dimension, is_empty, project_basic


@dataclass(frozen=True)
class AffineBound:
    """Affine function (coeffs . x + const) / div over earlier coordinates.

    ``div`` is a positive integer; divisibility of the group makes the
    division total.  Stored in reduced form so equal functions compare
    equal.
    """

    coeffs: tuple[int, ...]
    const: Fraction
    div: int = 1

    def __post_init__(self):
        if self.div < 1:
            raise ValueError("divisor must be a positive integer")
        g = self.div
        for c in self.coeffs:
            g = gcd(g, abs(c))
        if g > 1:
            object.__setattr__(self, "coeffs", tuple(c // g for c in self.coeffs))
            object.__setattr__(self, "const", Fraction(self.const, g))
            object.__setattr__(self, "div", self.div // g)
        else:
            object.__setattr__(self, "const", Fraction(self.const))

    def value(self, prefix: Sequence[Fraction]) -> Fraction:
        acc = self.const
        for c, v in zip(self.coeffs, prefix):
            acc += c * v
        return Fraction(acc, self.div)

    def key(self) -> tuple:
        return (self.coeffs, self.const, self.div)


#: A band end: an AffineBound, or None for an open end.
Bound = AffineBound | None
#: Per-coordinate data: an AffineBound for a graph coordinate, or a
#: (lower, upper) pair for a band coordinate.
CoordSpec = Union[AffineBound, tuple[Bound, Bound]]


@dataclass(frozen=True)
class GammaCell:
    """A cell: 0/1 signature plus one bound (graph) or two (band) per coordinate."""

    signature: tuple[int, ...]
    bounds: tuple[CoordSpec, ...]

    @property
    def arity(self) -> int:
        return len(self.signature)

    def dimension(self) -> int:
        return sum(self.signature)

    def sample(self) -> tuple[Fraction, ...]:
        """A point of the cell, built coordinate by coordinate."""
        values: list[Fraction] = []
        for i, spec in zip(self.signature, self.bounds):
            if i == 0:
                values.append(spec.value(values))
            else:
                lo, hi = (None if e is None else e.value(values) for e in spec)
                values.append(between(lo, hi))
        return tuple(values)

    def contains(self, point: Sequence[Fraction]) -> bool:
        for k, (i, spec) in enumerate(zip(self.signature, self.bounds)):
            prefix = point[:k]
            x = point[k]
            if i == 0:
                if x != spec.value(prefix):
                    return False
            else:
                lo, hi = spec
                if lo is not None and not (lo.value(prefix) < x):
                    return False
                if hi is not None and not (x < hi.value(prefix)):
                    return False
        return True

    def to_basicset(self) -> BasicSet:
        """The cell as a conjunction of linear constraints, one face ``x_k REL b`` each."""
        n = self.arity
        atoms: list[LinearAtom] = []
        for k, (i, spec) in enumerate(zip(self.signature, self.bounds)):
            faces = [(EQ, spec)] if i == 0 else [(">", spec[0]), ("<", spec[1])]
            for rel, b in faces:
                if b is None:
                    continue
                coeffs = [0] * n
                for idx, c in enumerate(b.coeffs):
                    coeffs[idx] = -c
                coeffs[k] = b.div
                a = atom(coeffs, rel, b.const)
                if isinstance(a, Atom):
                    atoms.append(a.atom)
        return BasicSet(tuple(atoms), n)

    def is_consistent(self) -> bool:
        """Check the band invariant: lower strictly below upper on the base.

        Decided by emptiness of the violating system, coordinate by
        coordinate.
        """
        for k, (i, spec) in enumerate(zip(self.signature, self.bounds)):
            if i != 1:
                continue
            lo, hi = spec
            if lo is None or hi is None:
                continue
            # lo >= hi anywhere on the base would break the cell; both
            # bounds and the base live on the first k coordinates.
            coeffs = [0] * k
            for idx, c in enumerate(lo.coeffs):
                coeffs[idx] += c * hi.div
            for idx, c in enumerate(hi.coeffs):
                coeffs[idx] -= c * lo.div
            rhs = hi.const * lo.div - lo.const * hi.div
            bad = atom(coeffs, ">=", rhs)
            if not isinstance(bad, Atom):
                if bad.holds(()):
                    return False
                continue
            base = GammaCell(self.signature[:k], self.bounds[:k]).to_basicset()
            if not is_empty(BasicSet(base.atoms + (bad.atom,), k)):
                return False
        return True


def bound_to_json(b: AffineBound) -> dict:
    return {"coeffs": list(b.coeffs), "const": str(b.const), "div": b.div}


def bound_from_json(obj) -> Bound:
    """An AffineBound, or None for an open band end ("-inf" or "inf")."""
    if obj in ("-inf", "inf"):
        return None
    return AffineBound(tuple(obj["coeffs"]), Fraction(obj["const"]), obj["div"])


def cell_to_json(c: GammaCell) -> dict:
    bounds = []
    for i, spec in zip(c.signature, c.bounds):
        if i == 0:
            bounds.append(bound_to_json(spec))
        else:
            lo, hi = spec
            bounds.append([
                "-inf" if lo is None else bound_to_json(lo),
                "inf" if hi is None else bound_to_json(hi),
            ])
    return {"signature": list(c.signature), "bounds": bounds}


def cell_from_json(obj) -> GammaCell:
    signature = tuple(obj["signature"])
    bounds: list[CoordSpec] = []
    for i, spec in zip(signature, obj["bounds"]):
        if i == 0:
            bounds.append(bound_from_json(spec))
        else:
            bounds.append((bound_from_json(spec[0]), bound_from_json(spec[1])))
    return GammaCell(signature, tuple(bounds))


def _bound_from_atom(a: LinearAtom, j: int) -> AffineBound:
    """Solve atom ``a`` for variable ``j``: x_j REL (u.x + const)/div."""
    c = a.coeffs[j]
    rest = a.coeffs[:j]
    if c > 0:
        return AffineBound(tuple(-r for r in rest), a.rhs, c)
    return AffineBound(tuple(rest), -a.rhs, -c)


def _comparison_atoms(b1: AffineBound, b2: AffineBound) -> list[LinearAtom]:
    """Atoms whose truth pins the sign of b1 - b2 on a base cell."""
    coeffs = tuple(
        b2.div * c1 - b1.div * c2 for c1, c2 in zip(b1.coeffs, b2.coeffs)
    )
    rhs = b1.div * b2.const - b2.div * b1.const
    out = []
    for rel in (EQ, LT):
        f = atom(coeffs, rel, rhs)
        if isinstance(f, Atom):
            out.append(f.atom)
    return out


def _lift(
    atoms_: Sequence[LinearAtom], n: int
) -> tuple[list[AffineBound], list[tuple[GammaCell, Point]]]:
    """The bounds on x_n solved out of ``atoms_``, and the base arrangement.

    The base arrangement of Q^(n-1) splits by the atoms without x_n and by
    the sign of every difference of two bounds, so on each base cell the
    atoms without x_n have constant truth and the bounds a constant order.
    """
    j = n - 1
    bounds: dict[tuple, AffineBound] = {}
    base_atoms: dict[tuple, LinearAtom] = {}
    for a in atoms_:
        if a.coeffs[j] != 0:
            b = _bound_from_atom(a, j)
            bounds[b.key()] = b
        else:
            trunc = LinearAtom(a.coeffs[:j], a.rel, a.rhs)
            base_atoms[trunc.key()] = trunc
    blist = sorted(bounds.values(), key=AffineBound.key)
    # At the lowest level every comparison is a constant and Q^0 is one cell.
    if j:
        for b1, b2 in combinations(blist, 2):
            for c in _comparison_atoms(b1, b2):
                base_atoms[c.key()] = c
    return blist, arrangement(sorted(base_atoms.values(), key=LinearAtom.key), j)


def _order(
    blist: list[AffineBound], s: Point
) -> tuple[list[Fraction], list[AffineBound], list[int]]:
    """The bound values at base sample ``s``, as the lifting sees them.

    Returns the distinct values in ascending order, the bound of least key
    for each, and for each bound of ``blist`` the position of its graph
    among the strata: value k of m is stratum 2k + 1 of 0 .. 2m, and the
    even strata are the bands between.
    """
    vals = [b.value(s) for b in blist]
    values: list[Fraction] = []
    reps: list[AffineBound] = []
    slots = [0] * len(blist)
    # A stable sort of a key-sorted list puts the least key first on ties.
    for k in sorted(range(len(blist)), key=vals.__getitem__):
        if not values or vals[k] != values[-1]:
            values.append(vals[k])
            reps.append(blist[k])
        slots[k] = 2 * len(values) - 1
    return values, reps, slots


def _stratum(reps: list[AffineBound], p: int) -> tuple[int, CoordSpec]:
    """Signature bit and bound data of stratum ``p``."""
    k = p // 2
    if p % 2:
        return 0, reps[k]
    lo = reps[k - 1] if k else None
    hi = reps[k] if k < len(reps) else None
    return 1, (lo, hi)


def _stratum_sample(values: list[Fraction], p: int) -> Fraction:
    """The x_n sample of stratum ``p``, as :meth:`GammaCell.sample` computes it."""
    k = p // 2
    if p % 2:
        return values[k]
    return between(values[k - 1] if k else None, values[k] if k < len(values) else None)


def arrangement(
    atoms_: Sequence[LinearAtom], n: int
) -> list[tuple[GammaCell, Point]]:
    """Partition Q^n into cells on which every atom has constant truth.

    Each cell comes with its sample point, carried up the lifting: the
    sample of a stratum is built from the bound values at the base sample,
    so it equals :meth:`GammaCell.sample` of the cell.
    """
    if n == 0:
        return [(GammaCell((), ()), ())]
    blist, base = _lift(atoms_, n)
    out = []
    for cell, s in base:
        values, reps, _ = _order(blist, s)
        for p in range(2 * len(values) + 1):
            i, spec = _stratum(reps, p)
            stratum = GammaCell(cell.signature + (i,), cell.bounds + (spec,))
            out.append((stratum, s + (_stratum_sample(values, p),)))
    return out


def cell_decompose(f: Formula) -> list[GammaCell]:
    """Partition the set of ``f`` into pairwise disjoint cells.

    The cells are those of the arrangement of the atoms of ``f`` on which
    ``f`` is true.  Every atom has constant truth on a cell, so truth is
    decided per base cell while lifting, for all strata above it at once:
    an atom without x_n by its value at the base sample, and an atom with
    x_n by the sign of x_n minus its bound, which is negative on the
    strata below the graph of that bound, zero on it and positive above,
    since the strata lie in the order of the bound values at the base
    sample.  This is exactly the truth of the atom at each cell's sample
    point.  With one bit per stratum, ``f`` is evaluated once per base
    cell, and only the kept cells are built.  The returned cells cover
    exactly the set of ``f``; output order is deterministic (base cells in
    recursive order, strata bottom to top).
    """
    n = f.arity
    if n == 0:
        return [GammaCell((), ())] if f.holds(()) else []
    j = n - 1
    atoms_ = sorted(f.atoms(), key=LinearAtom.key)
    blist, base = _lift(atoms_, n)
    index = {b.key(): k for k, b in enumerate(blist)}
    flat = [a for a in atoms_ if a.coeffs[j] == 0]
    # Each atom with x_n, its bound, and whether it holds where x_n minus
    # that bound is negative, zero and positive: the atom is c * (x_n -
    # bound) REL 0, c its x_n coefficient.
    lifted = []
    for a in atoms_:
        c = a.coeffs[j]
        if c != 0:
            k = index[_bound_from_atom(a, j).key()]
            holds = COMPARE[a.rel]
            lifted.append((a, k, holds(-c, 0), holds(0, 0), holds(c, 0)))
    out = []
    for cell, s in base:
        values, reps, slots = _order(blist, s)
        top = 2 * len(values)
        full = (2 << top) - 1
        masks = {a: full if a.holds(s) else 0 for a in flat}
        for a, k, neg, zero, pos in lifted:
            on = 1 << slots[k]
            below, above = on - 1, full ^ (2 * on - 1)
            masks[a] = (below if neg else 0) | (on if zero else 0) | (above if pos else 0)
        kept = evaluate(f, masks.__getitem__, full)
        for p in range(top + 1):
            if kept >> p & 1:
                i, spec = _stratum(reps, p)
                out.append(GammaCell(cell.signature + (i,), cell.bounds + (spec,)))
    return out


def has_interior(b: BasicSet) -> bool:
    """Full-dimensionality of one disjunct via its strict interior system."""
    strict = []
    for a in b.atoms:
        if a.rel == EQ:
            return False
        strict.append(LinearAtom(a.coeffs, LT, a.rhs))
    return not is_empty(BasicSet(tuple(strict), b.arity))


def dimension(f: Formula) -> int | float:
    """Dimension of a semilinear set, without building any cell.

    The set is the union of its DNF disjuncts, so its dimension is the
    largest disjunct dimension.  Each disjunct is convex, and a nonempty
    convex set has a point where every row that is not an implicit
    equality holds strictly; near that point the set fills the affine
    space of its equalities, whose dimension :func:`basic_dimension`
    reads off by exact rank.  This equals the largest signature sum of a
    cell decomposition, which ``verify.suite_cells`` checks.  Returns
    ``NEG_INF`` for the empty set.
    """
    return max((basic_dimension(b) for b in normalize_dnf(f)), default=NEG_INF)


def dimension_via_projection(f: Formula) -> int | float:
    """Dimension as the largest d with an interior-carrying projection to Q^d.

    Independent route: project the DNF disjunct by disjunct onto every
    d-subset of coordinates and test full-dimensionality of the strict
    interior system.  Agrees with :func:`dimension` on every definable
    set.
    """
    disjuncts = normalize_dnf(f)
    if not disjuncts:
        return NEG_INF
    n = f.arity
    for d in range(n, 0, -1):
        for keep in combinations(range(n), d):
            for b in disjuncts:
                p = project_basic(b, keep)
                if p is not None and has_interior(p):
                    return d
    return 0
