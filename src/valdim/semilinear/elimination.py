"""Exact Fourier-Motzkin elimination with strict/weak bookkeeping.

Projection of a linear system over (Q, +, <) works one variable at a
time: equalities are eliminated first by substitution, then every lower
bound on the variable is combined with every upper bound.  A derived
constraint is strict exactly when one of its parents is strict.  Because
the group is dense, divisible and unbounded, the procedure is a complete
decision method for emptiness, and a satisfying point can be read back by
assigning variables in order against the per-stage bound lists.  One
routine, :func:`_eliminate`, runs every elimination; a basic set keeps
the stages of its emptiness test, and one back-substitution over them
gives both :func:`sample_point` and the signature whose sum is
:func:`basic_dimension`.  A projection reads its rows and its emptiness
verdict off one pass per disjunct (:func:`project_basic`); a projection
in the emptiness order reads the kept stages, a disjunct already found
empty is not eliminated again, and one already found nonempty has only
its dropped coordinates eliminated.  Once a pass has removed every
variable but one, the rows are bounds on that variable alone, and the
last step is decided in one pass over them (:func:`_decide_var`).

Every row is ``(coeffs, rel, rhs)`` in integers.  A
:class:`~valdim.semilinear.atoms.LinearAtom` is such a row, primitive, so
the atoms of a basic set are the input of its elimination as they stand,
and a projection's rows become atoms again by dividing out their gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, Sequence

from ..lowerset import NEG_INF
from .atoms import (
    COMPARE, COMPLEMENT, EQ, LE, LT, BasicSet, Formula, LinearAtom, Or, between, embed, normal_rows,
)

# A row is (coeffs, rel, rhs) with integer coeffs and integer rhs; a LinearAtom is one.
Row = tuple[tuple[int, ...], str, int]


def _reduce(coeffs: tuple[int, ...], rel: str, rhs: int) -> Row | bool:
    """Decide all-zero rows; rescale a row only when coefficients grow.

    Full gcd normalization on every combination costs more than it saves;
    rows are reduced once their magnitude passes a threshold, which keeps
    the integers machine-sized without a gcd per row.
    """
    big = False
    nonzero = False
    for c in coeffs:
        if c:
            nonzero = True
            if c > 256 or c < -256:
                big = True
    if not nonzero:
        return COMPARE[rel](0, rhs)
    if big:
        g = 0
        for c in coeffs:
            g = gcd(g, c)
        g = gcd(g, rhs)
        if g > 1:
            coeffs = tuple(c // g for c in coeffs)
            rhs //= g
    return (coeffs, rel, rhs)


def _substitute_eq(rows: list[Row], pivot: Row, j: int) -> list[Row] | None:
    """Eliminate variable ``j`` using the equality row ``pivot``.

    Returns None when a contradiction is exposed.
    """
    pc, _, pq = pivot
    a = pc[j]
    s = 1 if a > 0 else -1
    mag = abs(a)
    out: list[Row] = []
    for coeffs, rel, rhs in rows:
        d = coeffs[j]
        if d == 0:
            out.append((coeffs, rel, rhs))
            continue
        # row * |a|  -  pivot * sign(a) * d   kills the j column
        new_coeffs = tuple(mag * c - s * d * p for c, p in zip(coeffs, pc))
        r = _reduce(new_coeffs, rel, mag * rhs - s * d * pq)
        if r is False:
            return None
        if r is not True:
            out.append(r)
    return out


def _eliminate_var(rows: list[Row], j: int) -> list[Row] | None:
    """One FM step: remove every occurrence of variable ``j``.

    Returns the reduced system, or None when infeasibility is exposed.
    Rows that all mention ``j`` alone, as at the last step of a full
    elimination, are decided by :func:`_decide_var` without pairing.
    """
    first = rows[0][0] if rows else ()
    if first and first[j] and first.count(0) == len(first) - 1 and all(
        row[0][j] and row[0].count(0) == len(first) - 1 for row in rows
    ):
        return _decide_var(rows, j)
    for row in rows:
        if row[1] == EQ and row[0][j] != 0:
            rest = [r for r in rows if r is not row]
            return _substitute_eq(rest, row, j)
    lowers: list[Row] = []   # coeffs[j] < 0: bound from below
    uppers: list[Row] = []   # coeffs[j] > 0: bound from above
    keep: list[Row] = []
    for row in rows:
        c = row[0][j]
        if c == 0:
            keep.append(row)
        elif c > 0:
            uppers.append(row)
        else:
            lowers.append(row)
    seen = set(keep)
    out = list(keep)
    for lc, lrel, lq in lowers:
        for uc, urel, uq in uppers:
            m_low = uc[j]        # > 0, multiplier for the lower row
            m_up = -lc[j]        # > 0, multiplier for the upper row
            coeffs = tuple(m_low * cl + m_up * cu for cl, cu in zip(lc, uc))
            rel = LT if (lrel == LT or urel == LT) else LE
            r = _reduce(coeffs, rel, m_low * lq + m_up * uq)
            if r is False:
                return None
            if r is True or r in seen:
                continue
            seen.add(r)
            out.append(r)
    return out


def _decide_var(rows: list[Row], j: int) -> list[Row] | None:
    """The FM step on rows that mention variable ``j`` alone, in one pass.

    Every row bounds ``j`` by ``rhs / coeffs[j]``: from above for a
    positive coefficient, from below for a negative one, and from both
    sides for an equality.  The rows hold together exactly when the
    largest lower bound lies below the smallest upper one, in the order
    of :func:`_less`.  Returns ``[]`` then and None otherwise, as pairing
    every lower row with every upper row would.
    """
    lo = hi = None
    for coeffs, rel, rhs in rows:
        c = coeffs[j]
        num, den = (rhs, c) if c > 0 else (-rhs, -c)
        if rel == EQ or c > 0:
            b = (num, den, rel != LT)
            if hi is None or _less(b, hi):
                hi = b
        if rel == EQ or c < 0:
            b = (num, den, rel == LT)
            if lo is None or _less(lo, b):
                lo = b
    return [] if lo is None or hi is None or _less(lo, hi) else None


def _less(a: tuple[int, int, bool], b: tuple[int, int, bool]) -> bool:
    """``a < b`` for bounds ``(num, den, s)``, ``den > 0``: by the value ``num / den``,
    compared crosswise, and then by ``s``.

    ``s`` is True for a strict lower bound and a weak upper one, so of two
    bounds on one value the strict one is the tighter, and a lower bound
    lies below an upper one on the same value only when both are weak.
    """
    left, right = a[0] * b[1], b[0] * a[1]
    return left < right or left == right and a[2] < b[2]


def _eliminate(rows: list[Row], order: Iterable[int]) -> list[list[Row]] | None:
    """Eliminate the variables of ``order`` one at a time.

    Returns the stages: the input system, then the system after each
    step, so stage k has the first k variables of ``order`` gone.  Returns
    None as soon as a step exposes a contradiction.  Every input row has a
    nonzero coefficient, as every atom and every :func:`negate_row` piece
    of one has: a step decides the all-zero rows it derives, but never an
    input row, which would stay in every stage undecided.
    """
    stages = [rows]
    for j in order:
        rows = _eliminate_var(rows, j)
        if rows is None:
            return None
        stages.append(rows)
    return stages


def rows_infeasible(rows: list[Row], arity: int) -> bool:
    """Whether no point satisfies the raw integer rows, by full elimination.

    Each row needs a nonzero coefficient, as for :func:`_eliminate`.
    """
    return _eliminate(rows, range(arity)) is None


def negate_row(row: Row) -> list[Row]:
    """Rows covering the complement of one row (two pieces for equality)."""
    return normal_rows(row[0], COMPLEMENT[row[1]], row[2])


def _stages(b: BasicSet) -> tuple[list[Row], ...]:
    """Elimination stages of ``b``, last variable first; () when ``b`` is empty.

    Computed once and kept on the basic set; nothing mutates them.  Stage
    k has the last k variables gone.
    """
    if b._stages is None:
        stages = _eliminate(list(b.atoms), range(b.arity - 1, -1, -1))
        object.__setattr__(b, "_stages", tuple(stages or ()))
    return b._stages


def is_empty(b: BasicSet) -> bool:
    """Decide whether no rational point satisfies the conjunction ``b``.

    Eliminates from the last variable down, once per basic set; the
    stages stay on ``b`` for :func:`sample_point` and
    :func:`basic_dimension`.
    """
    return not _stages(b)


def _back_substitute(b: BasicSet) -> tuple[list[int], int, tuple[int, ...]] | None:
    """A relative-interior point of ``b`` and its 0/1 signature, or None.

    Reads the stages :func:`is_empty` built, from the last variable down;
    coordinate j is assigned from stage n-1-j, the projection of ``b``
    onto the first j+1 coordinates, over the values already chosen.  It
    is pinned by an equality row, or it gets the sample :func:`between`
    picks in its feasible interval; bit j is 1 exactly when that interval
    is open.  Each value lies in the relative interior of its fibre, so
    the prefix stays in the relative interior of every projection
    (Rockafellar, Convex Analysis, Thm 6.8), and above it each fibre has
    dimension dim pi_{<=j} b - dim pi_{<j} b: the bits sum to dim ``b``.
    The point is returned as integer numerators over one common
    denominator, which is how the prefix is carried, so the rows are read
    in integers alone.
    """
    stages = _stages(b)
    if not stages:
        return None
    n = b.arity
    nums: list[int] = []
    den = 1
    bits: list[int] = []
    for j in range(n):
        # bounds as (numerator, positive denominator), compared crosswise
        lo = hi = pin = None
        for coeffs, rel, rhs in stages[n - 1 - j]:
            c = coeffs[j]
            if c == 0:
                continue
            num = rhs * den - sum(map(mul, coeffs, nums)) if j else rhs
            d = c * den
            if d < 0:
                num, d = -num, -d
            if rel == EQ:
                pin = (num, d)
            elif c > 0:
                if hi is None or num * hi[1] < hi[0] * d:
                    hi = (num, d)
            elif lo is None or num * lo[1] > lo[0] * d:
                lo = (num, d)
        if pin is None:
            bits.append(1 if lo is None or hi is None or lo[0] * hi[1] < hi[0] * lo[1] else 0)
            value = between(lo and Fraction(*lo), hi and Fraction(*hi))
        else:
            bits.append(0)
            value = Fraction(*pin)
        q = value.denominator
        scale = q // gcd(den, q)
        if scale > 1:
            nums = [v * scale for v in nums]
            den *= scale
        nums.append(value.numerator * (den // q))
    return nums, den, tuple(bits)


def basic_signature(b: BasicSet) -> tuple[int, ...] | None:
    """The signature of the cell holding a relative-interior point of ``b``.

    Bit j is 1 when the fibre over the first j coordinates is an open
    interval; None when ``b`` is empty.  No elimination beyond the
    emptiness stages is run.
    """
    found = _back_substitute(b)
    return None if found is None else found[2]


def basic_dimension(b: BasicSet) -> int | float:
    """Dimension of one convex system: the sum of its signature.

    Returns ``NEG_INF`` for an empty system.
    """
    sig = basic_signature(b)
    return NEG_INF if sig is None else sum(sig)


def project_basic(b: BasicSet, keep: Sequence[int]) -> BasicSet | None:
    """Project a basic set onto the coordinates in ``keep`` (sorted).

    Returns a basic set over ``len(keep)`` variables, or None when ``b``
    is empty.  One elimination answers both: the dropped coordinates go
    first, in ascending order, and the stage after them is the
    projection; the kept ones then go last first, so the pass ends in
    None exactly when ``b`` is empty, a contradiction among the kept
    coordinates included.  When that order is the emptiness order, last
    variable first (nothing or only the last coordinate is dropped), the
    stages :func:`is_empty` keeps on ``b`` are that elimination; a ``b``
    already known to be empty is answered at once, and one found empty
    here keeps ``()`` as its stages.  A ``b`` already known to be
    nonempty needs no verdict: only its dropped coordinates are
    eliminated, the first ``len(drop)`` steps of that pass.
    """
    keep = sorted(keep)
    drop = [j for j in range(b.arity) if j not in keep]
    if b._stages == () or drop in ([], [b.arity - 1]):
        stages = _stages(b)
    elif b._stages:
        stages = _eliminate(list(b.atoms), drop)
    else:
        stages = _eliminate(list(b.atoms), drop + keep[::-1])
        if stages is None:
            object.__setattr__(b, "_stages", ())
    if not stages:
        return None
    rows = stages[len(drop)]
    atoms_ = [LinearAtom(tuple(coeffs[j] for j in keep), rel, rhs) for coeffs, rel, rhs in rows]
    return BasicSet(tuple(atoms_), len(keep))


def project(f: Formula, keep: Sequence[int]) -> Formula:
    """Coordinate projection of the set of ``f`` onto the ``keep`` variables.

    Variable indices are 0-based positions in the ambient space; the
    result is a formula over ``len(keep)`` variables in the same relative
    order.  Works disjunct by disjunct on the DNF, empty disjuncts
    included: the elimination that projects a disjunct is the one that
    finds it empty.
    """
    from .atoms import Bool, dnf

    keep = sorted(keep)
    if any(j < 0 or j >= f.arity for j in keep):
        raise ValueError(f"projection indices {keep} out of range for arity {f.arity}")
    parts = []
    for b in dnf(f):
        p = project_basic(b, keep)
        if p is None:
            continue
        parts.append(p.to_formula())
    if not parts:
        return Bool(False, len(keep))
    return Or.of(*parts)


def exists(f: Formula, var: int) -> Formula:
    """Existential quantification of one variable, keeping the ambient arity.

    The result is a cylinder: the projection that eliminates variable
    ``var``, embedded back with ``var`` unconstrained, so the formula
    composes with the rest of an enclosing Boolean tree.
    """
    n = f.arity
    if not (0 <= var < n):
        raise ValueError(f"variable {var} out of range for arity {n}")
    keep = [j for j in range(n) if j != var]
    return embed(project(f, keep), keep, n)


def sample_point(b: BasicSet) -> tuple[Fraction, ...] | None:
    """A rational point satisfying ``b``, by back-substitution, or None.

    The point of :func:`_back_substitute`: values are assigned from the
    first index up, each one pinned by an equality or the sample
    :func:`between` picks in the remaining feasible interval.  Every
    atom is checked on the integer numerators over their common
    denominator, which is positive.
    """
    found = _back_substitute(b)
    if found is None:
        return None
    nums, den, _ = found
    if not all(COMPARE[rel](sum(map(mul, coeffs, nums)), rhs * den) for coeffs, rel, rhs in b.atoms):
        # FM guarantees feasibility of the greedy assignment; reaching here
        # means an internal invariant broke.
        raise AssertionError(f"back-substitution produced a non-member {nums} / {den}")
    return tuple(Fraction(v, den) for v in nums)
