"""Recursive cell decomposition of semilinear sets over (Q, +, <).

A cell with signature (i_1, ..., i_n) in {0,1}^n is built coordinate by
coordinate: coordinate k is either the graph of an affine bound over the
earlier coordinates (i_k = 0) or an open band between two such bounds
(i_k = 1).  A band end may be open: it is then None, as in
:func:`~valdim.semilinear.atoms.between`, and ``-inf`` below or ``inf``
above in the cell JSON.  The dimension of a cell is the sum of its signature.

The decomposition refines the arrangement of every atom of the input
formula, and one routine, :func:`arrangement`, lifts it.  The last
coordinate is sliced along the bound functions solved out of the atoms
mentioning it, each atom solved once, uniformly over the arrangement of
the base that the routine builds by calling itself once on Q^(n-1): the
atoms without x_n and one ``=`` row per pair of bounds, which keeps the
order of the bounds constant on every base cell.  On each resulting cell
every atom has constant truth value.  Only the atoms of the formula are
asked for that truth, at the top level and nowhere below it: it is read
while lifting, from the order of the bound values at each base cell's
sample point, and the cells on which the formula is true are kept; this
is exact because it is the truth of every atom at the cell's own sample
point.

The lifting does no ``Fraction`` arithmetic.  A base sample is carried
as integer numerators ``nums`` over one positive denominator ``den``.
With L the lcm of the divisors of the bounds on x_n, each bound row is
scaled once by ``L // div``, so its value at the sample is one integer
over ``L * den`` and the bounds are ordered by sorting integers.  The
strata samples are integers over ``2 * L * den``, the prefix numerators
scaled to match, and an atom without x_n holds where ``sum(c * num) REL
rhs * den``.  A sample is built only for a stratum that a further level
lifts over, so every stratum below the top carries one; the top level
carries one when :func:`arrangement` is called directly, as the
filtering oracle in ``verify`` calls it, and none under
:func:`cell_decompose`, which reads no sample.  A cell read on its own
does not use that kernel: :meth:`GammaCell.sample` and
:meth:`GammaCell.contains` evaluate its bounds in ``Fraction``s with
:meth:`AffineBound.value`, the arithmetic of :meth:`LinearAtom.holds`,
so they are a second route to the samples the lifting carries.

Cells are built only when a caller asks for them.  :func:`dimension`
works on the DNF, reading each disjunct's signature off one
back-substituted relative-interior point; the largest signature sum of a
decomposition is the oracle it is checked against.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Sequence, Union

from ..boolean import Bool, evaluate
from ..lowerset import NEG_INF
from .atoms import (
    COMPARE,
    EQ,
    LT,
    Atom,
    BasicSet,
    Formula,
    LinearAtom,
    _primitive,
    atom,
    between,
    normalize_dnf,
)
from .elimination import basic_dimension, is_empty, project_basic


class AffineBound(tuple):
    """Affine function ``(coeffs . x + const) / div`` over earlier coordinates.

    Stored as one primitive integer row ``(coeffs, const, div)``: a
    rational ``const`` is cleared into the row, ``div`` is positive
    (divisibility of the group makes the division total) and the gcd of
    the row is 1, so equal functions compare equal.  :meth:`key` and the
    cell JSON read the coefficient-gcd form, the row over gcd(div, coeffs).
    """

    __slots__ = ()
    coeffs = property(itemgetter(0))
    const = property(itemgetter(1))
    div = property(itemgetter(2))

    def __new__(cls, coeffs: Sequence[int], const: Fraction | int, div: int = 1):
        if div < 1:
            raise ValueError("divisor must be a positive integer")
        if type(const) is int:
            d = 1
        else:
            q = Fraction(const)
            const, d = q.numerator, q.denominator
        # the gcd of the row scaled by d, since d is prime to the numerator
        g = gcd(const, div, *coeffs)
        return tuple.__new__(
            cls, (tuple(c * d // g for c in coeffs), const // g, div * d // g)
        )

    def value(self, prefix: Sequence[Fraction]) -> Fraction:
        coeffs, acc, div = self
        for c, v in zip(coeffs, prefix):
            acc += c * v
        return Fraction(acc, div)

    def key(self) -> tuple:
        """``(coeffs/g, const/g, div/g)`` with g = gcd(div, coeffs): the sort key of bounds."""
        coeffs, const, div = self
        g = gcd(div, *coeffs)
        return (tuple(c // g for c in coeffs), Fraction(const, g), div // g)


#: A band end: an AffineBound, or None for an open end.
Bound = AffineBound | None
#: Per-coordinate data: an AffineBound for a graph coordinate, or a
#: (lower, upper) pair for a band coordinate.
CoordSpec = Union[AffineBound, tuple[Bound, Bound]]


class GammaCell(tuple):
    """A cell ``(signature, bounds)``: a 0/1 signature, one bound (graph) or two (band) each."""

    __slots__ = ()
    signature = property(itemgetter(0))
    bounds = property(itemgetter(1))

    def __new__(cls, signature: tuple[int, ...], bounds: tuple[CoordSpec, ...]):
        return tuple.__new__(cls, (signature, bounds))

    @property
    def arity(self) -> int:
        return len(self.signature)

    def dimension(self) -> int:
        return sum(self.signature)

    def sample(self) -> tuple[Fraction, ...]:
        """A point of the cell: a graph's value, or :func:`between` a band's end values."""
        point: tuple[Fraction, ...] = ()
        for i, spec in zip(self.signature, self.bounds):
            x = spec.value(point) if i == 0 else between(*(e and e.value(point) for e in spec))
            point += (x,)
        return point

    def contains(self, point: Sequence[Fraction]) -> bool:
        for k, (i, spec) in enumerate(zip(self.signature, self.bounds)):
            # each bound reads only the coordinates before x_k
            x = point[k]
            if i == 0:
                if x != spec.value(point):
                    return False
            else:
                lo, hi = spec
                if lo is not None and not lo.value(point) < x:
                    return False
                if hi is not None and not x < hi.value(point):
                    return False
        return True

    def to_basicset(self) -> BasicSet:
        """The cell as a conjunction of linear constraints, one face ``x_k REL b`` each."""
        n = self.arity
        atoms: list[LinearAtom] = []
        for k, (i, spec) in enumerate(zip(self.signature, self.bounds)):
            faces = [(EQ, spec)] if i == 0 else [(">", spec[0]), ("<", spec[1])]
            for rel, b in faces:
                if b is not None:
                    row = (*(-c for c in b.coeffs), b.div) + (0,) * (n - k - 1)
                    atoms.append(atom(row, rel, b.const))
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
            coeffs, rhs = _difference(lo, hi)
            bad = atom(coeffs, ">=", rhs)
            if not isinstance(bad, Atom):
                if bad.holds(()):
                    return False
                continue
            base = GammaCell(self.signature[:k], self.bounds[:k]).to_basicset()
            if not is_empty(BasicSet(base.atoms + (bad,), k)):
                return False
        return True


def bound_to_json(b: AffineBound) -> dict:
    coeffs, const, div = b.key()
    return {"coeffs": list(coeffs), "const": str(const), "div": div}


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


def _difference(b1: AffineBound, b2: AffineBound) -> tuple[tuple[int, ...], int]:
    """``(coeffs, rhs)`` with b1 - b2 REL 0 exactly where ``coeffs . x REL rhs``."""
    coeffs = tuple(b2.div * c1 - b1.div * c2 for c1, c2 in zip(b1.coeffs, b2.coeffs))
    return coeffs, b1.div * b2.const - b2.div * b1.const


def _scaled_rows(blist: Sequence[AffineBound]) -> tuple[int, list[tuple]]:
    """The lcm L of the divisors, and each bound's ``(coeffs, const)`` times ``L // div``.

    At an integer point ``nums`` over ``den`` a scaled row gives the
    bound's value as one integer over ``L * den``.
    """
    scale = lcm(*(b.div for b in blist))
    rows = []
    for coeffs, const, div in blist:
        m = scale // div
        rows.append((tuple(c * m for c in coeffs), const * m))
    return scale, rows


def _order(
    blist: list[AffineBound], rows: list[tuple], nums: Sequence[int], den: int
) -> tuple[list[int], list[AffineBound], list[int]]:
    """The bound values at the base sample ``nums / den``, as the lifting sees them.

    Each value is one integer over ``L * den``, L the lcm of the bound
    divisors, read off the bound's row scaled by ``L // div``
    (:func:`_scaled_rows`), so no two values need a common denominator
    found.  Returns the distinct values in ascending order, the bound of
    least key for each, and for each bound of ``blist`` the position of
    its graph among the strata: value k of m is stratum 2k + 1 of 0 .. 2m,
    and the even strata are the bands between.
    """
    vals = [const * den + sum(map(mul, coeffs, nums)) for coeffs, const in rows]
    values: list[int] = []
    reps: list[AffineBound] = []
    slots = [0] * len(blist)
    # A stable sort of a key-sorted list puts the least key first on ties.
    for k in sorted(range(len(blist)), key=vals.__getitem__):
        if not values or vals[k] != values[-1]:
            values.append(vals[k])
            reps.append(blist[k])
        slots[k] = 2 * len(values) - 1
    return values, reps, slots


def _stratum_sample(values: list[int], p: int, one: int) -> int:
    """The x_n sample of stratum ``p`` over ``2 * one``, values over ``one``.

    It mirrors :func:`~valdim.semilinear.atoms.between`: the value of a
    graph, one below the lowest value, one above the highest, the midpoint
    of a band, and 0 on the whole line.
    """
    k = p // 2
    if p % 2:
        return 2 * values[k]
    if k == len(values):
        return 2 * (values[-1] + one) if values else 0
    if k == 0:
        return 2 * (values[0] - one)
    return values[k - 1] + values[k]


#: The arrangement of Q^0: its one cell, with the empty sample.
_ORIGIN = ((GammaCell((), ()), (), 1),)


def arrangement(
    atoms_: Sequence[LinearAtom], n: int, f: Formula, _samples: bool = True
) -> list[tuple[GammaCell, tuple[int, ...], int]] | list[GammaCell]:
    """The strata of the arrangement of ``atoms_`` in Q^n on which ``f`` holds.

    Each comes as ``(cell, nums, den)``, its sample ``nums / den`` with
    ``den > 0``.  The last coordinate is sliced along the bounds solved out
    of the atoms with x_n, over the base arrangement of Q^(n-1): this
    routine again, with ``f = Bool(True)`` so that it keeps every stratum
    (for n = 1, the one cell of Q^0), on the atoms without x_n and one
    ``=`` row of each difference of two bounds.  That row pins the order
    of the bounds on every base cell; the base needs their bounds, not
    their relations.  The atoms of ``f``, all among ``atoms_``, have
    constant truth on each stratum, read for all strata over a base cell
    at once: an atom without x_n by its value at the base sample, and an
    atom with x_n by the sign of x_n minus its bound, negative on the
    strata below that bound's graph, zero on it and positive above, as
    the strata lie in the order of the bound values at the base sample.
    With one bit per stratum, ``f`` is evaluated once per base cell.
    Output order is deterministic: base cells in recursive order, strata
    bottom to top.

    With ``_samples=False``, which :func:`cell_decompose` passes, it
    returns the bare cells of this level and builds no sample for them.
    The levels below always carry theirs: the next level orders its bounds
    at them.
    """
    if n == 0:
        if not f.holds(()):
            return []
        return list(_ORIGIN) if _samples else [_ORIGIN[0][0]]
    j = n - 1
    wanted = f.atoms()
    solved: dict[LinearAtom, AffineBound] = {}
    base_atoms: set[LinearAtom] = set()
    flat = []
    for a in atoms_:
        coeffs, rel, rhs = a
        if coeffs[j]:
            solved[a] = _bound_from_atom(a, j)
        else:
            base_atoms.add(_primitive(coeffs[:j], rel, rhs))
            if a in wanted:
                flat.append((a, coeffs, COMPARE[rel], rhs))
    blist = list(set(solved.values()))
    # Over Q^0 every comparison is a constant, and its one cell is the base.
    # Distinct constant bounds never tie, so only over Q^j, j > 0, does
    # _order need them in key order, to keep the least key on a tie.
    base = _ORIGIN
    if j:
        blist.sort(key=AffineBound.key)
        for b1, b2 in combinations(blist, 2):
            coeffs, rhs = _difference(b1, b2)
            if any(coeffs):
                base_atoms.add(_primitive(coeffs, EQ, rhs))
        base = arrangement(sorted(base_atoms, key=LinearAtom.key), j, Bool(True, j))
    scale, rows = _scaled_rows(blist)
    index = {b: k for k, b in enumerate(blist)}
    # Each atom of f with x_n, its bound, and whether it holds where x_n
    # minus that bound is negative, zero and positive: the atom is
    # c * (x_n - bound) REL 0, c its x_n coefficient.
    lifted = []
    for a, b in solved.items():
        if a in wanted:
            c, holds = a.coeffs[j], COMPARE[a.rel]
            lifted.append((a, index[b], holds(-c, 0), holds(0, 0), holds(c, 0)))
    out = []
    for (sig, bounds), nums, den in base:
        values, reps, slots = _order(blist, rows, nums, den)
        top = 2 * len(values)
        full = (2 << top) - 1
        # sum(c * x) / den REL rhs, with den > 0
        masks = {
            a: full if holds(sum(map(mul, coeffs, nums)), rhs * den) else 0
            for a, coeffs, holds, rhs in flat
        }
        for a, k, neg, zero, pos in lifted:
            on = 1 << slots[k]
            below, above = on - 1, full ^ (2 * on - 1)
            masks[a] = (below if neg else 0) | (on if zero else 0) | (above if pos else 0)
        kept = evaluate(f, masks.__getitem__, full)
        if not kept:
            continue
        graph, band = sig + (0,), sig + (1,)
        ends = (None, *reps, None)
        if _samples:
            one = scale * den
            prefix = tuple(2 * scale * x for x in nums)
        for p in range(top + 1):
            if kept >> p & 1:
                k = p // 2
                if p % 2:
                    stratum = tuple.__new__(GammaCell, (graph, bounds + (reps[k],)))
                else:
                    stratum = tuple.__new__(GammaCell, (band, bounds + (ends[k : k + 2],)))
                if _samples:
                    stratum = (stratum, prefix + (_stratum_sample(values, p, one),), 2 * one)
                out.append(stratum)
    return out


def cell_decompose(f: Formula) -> list[GammaCell]:
    """Partition the set of ``f`` into pairwise disjoint cells.

    The cells are the strata of the arrangement of the atoms of ``f`` on
    which ``f`` holds (:func:`arrangement`), so they cover exactly the set
    of ``f``.
    """
    atoms_ = sorted(f.atoms(), key=LinearAtom.key)
    return arrangement(atoms_, f.arity, f, _samples=False)


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
    largest disjunct dimension.  Each disjunct is convex, and
    :func:`basic_dimension` sums the signature of the cell that holds one
    of its relative-interior points, read off the emptiness stages by
    back-substitution.  This equals the largest signature sum of a cell
    decomposition, which ``verify.suite_cells`` checks.  Returns
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
