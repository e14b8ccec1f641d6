"""Exact Fourier-Motzkin elimination with strict/weak bookkeeping.

Projection of a linear system over (Q, +, <) works one variable at a
time: equalities are eliminated first by substitution, then every lower
bound on the variable is combined with every upper bound.  A derived
constraint is strict exactly when one of its parents is strict.  Because
the group is dense, divisible and unbounded, the procedure is a complete
decision method for emptiness, and a satisfying point can be read back by
assigning variables in order against the per-stage bound lists.  One
routine, :func:`_eliminate`, runs every elimination; a basic set keeps
the stages of its emptiness test, which :func:`sample_point` reads back.

Internally every row is scaled to integers (coefficients and right side),
so the elimination itself runs in machine integers; rational constants
reappear only at the boundary.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from ..lowerset import NEG_INF
from .atoms import (
    COMPARE, COMPLEMENT, EQ, LE, LT, BasicSet, Formula, LinearAtom, Or, between, embed, normal_rows,
)

# Raw rows are (coeffs, rel, rhs) with integer coeffs and integer rhs.
Row = tuple[tuple[int, ...], str, int]


def atom_rows(atoms: Sequence[LinearAtom]) -> list[Row]:
    """Integer-scaled rows of a conjunction, for callers staying in row space."""
    rows = []
    for a in atoms:
        d = a.rhs.denominator
        rows.append((tuple(c * d for c in a.coeffs), a.rel, a.rhs.numerator))
    return rows


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
    """
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


def _eliminate(rows: list[Row], order: Iterable[int]) -> list[list[Row]] | None:
    """Eliminate the variables of ``order`` one at a time.

    Returns the stages: the input system, then the system after each
    step, so stage k has the first k variables of ``order`` gone.  Returns
    None as soon as a step exposes a contradiction.
    """
    stages = [rows]
    for j in order:
        rows = _eliminate_var(rows, j)
        if rows is None:
            return None
        stages.append(rows)
    return stages


def rows_infeasible(rows: list[Row], arity: int) -> bool:
    """Whether no point satisfies the raw integer rows, by full elimination."""
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
        stages = _eliminate(atom_rows(b.atoms), range(b.arity - 1, -1, -1))
        object.__setattr__(b, "_stages", tuple(stages or ()))
    return b._stages


def is_empty(b: BasicSet) -> bool:
    """Decide whether no rational point satisfies the conjunction ``b``.

    Eliminates from the last variable down, once per basic set; the
    stages stay on ``b`` for :func:`sample_point`.
    """
    return not _stages(b)


def _rank(matrix: list[tuple[int, ...]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination.

    After each pivot step every entry below the pivot rows is a minor of
    the input, so the division by the previous pivot is exact and the
    integers never leave Z.
    """
    m = [list(r) for r in matrix]
    rank, prev = 0, 1
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        p = top[col]
        for i in range(rank + 1, len(m)):
            a = m[i][col]
            m[i] = [(p * x - a * y) // prev for x, y in zip(m[i], top)]
        prev = p
        rank += 1
    return rank


def basic_dimension(b: BasicSet) -> int | float:
    """Dimension of one convex system: n minus the rank of its implicit equalities.

    A weak row is an implicit equality when the system with that row made
    strict is empty.  A nonempty convex set has a point where every other
    weak row and every strict row holds strictly (the average of one
    witness per row), so a neighbourhood of that point in the affine
    space cut out by the explicit and implicit equalities lies in the
    set.  Found implicit equalities are turned into equalities, which the
    elimination substitutes away cheaply in the remaining tests.  Returns
    ``NEG_INF`` for an empty system.
    """
    if is_empty(b):
        return NEG_INF
    n = b.arity
    system = atom_rows(b.atoms)
    weak = [i for i, row in enumerate(system) if row[1] == LE]
    all_strict = [(c, LT if rel == LE else rel, q) for c, rel, q in system]
    if weak and rows_infeasible(all_strict, n):
        for i in weak:
            coeffs, _, rhs = system[i]
            trial = system[:i] + [(coeffs, LT, rhs)] + system[i + 1 :]
            if rows_infeasible(trial, n):
                system[i] = (coeffs, EQ, rhs)
    return n - _rank([c for c, rel, _ in system if rel == EQ])


def project_basic(b: BasicSet, keep: Sequence[int]) -> BasicSet | None:
    """Project a basic set onto the coordinates in ``keep`` (sorted).

    Returns a basic set over ``len(keep)`` variables, or None when ``b``
    is empty.
    """
    keep = sorted(keep)
    if is_empty(b):
        # contradictions purely among kept coordinates would otherwise
        # survive the elimination untouched
        return None
    # FM never finds a contradiction in a nonempty system
    rows = _eliminate(atom_rows(b.atoms), [j for j in range(b.arity) if j not in keep])[-1]
    atoms_ = []
    for coeffs, rel, rhs in rows:
        atoms_.append(
            LinearAtom(tuple(coeffs[j] for j in keep), rel, Fraction(rhs))
        )
    return BasicSet(tuple(atoms_), len(keep))


def project(f: Formula, keep: Sequence[int]) -> Formula:
    """Coordinate projection of the set of ``f`` onto the ``keep`` variables.

    Variable indices are 0-based positions in the ambient space; the
    result is a formula over ``len(keep)`` variables in the same relative
    order.  Works disjunct by disjunct on the DNF.
    """
    from .atoms import Bool, normalize_dnf

    keep = sorted(keep)
    if any(j < 0 or j >= f.arity for j in keep):
        raise ValueError(f"projection indices {keep} out of range for arity {f.arity}")
    parts = []
    for b in normalize_dnf(f):
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

    Reads the stages :func:`is_empty` built, from the last variable down;
    values are assigned from the first index up, each one the sample
    :func:`between` picks in the remaining feasible interval.
    """
    stages = _stages(b)
    if not stages:
        return None
    n = b.arity
    values: list[Fraction] = []
    for j in range(n):
        lo: Fraction | None = None
        hi: Fraction | None = None
        pin: Fraction | None = None
        for coeffs, rel, rhs in stages[n - 1 - j]:
            c = coeffs[j]
            if c == 0:
                continue
            rest = rhs - sum(coeffs[i] * values[i] for i in range(j))
            bound = Fraction(rest, c)
            if rel == EQ:
                pin = bound
            elif c > 0:
                if hi is None or bound < hi:
                    hi = bound
            else:
                if lo is None or bound > lo:
                    lo = bound
        values.append(between(lo, hi) if pin is None else pin)
    point = tuple(values)
    if not b.holds(point):
        # FM guarantees feasibility of the greedy assignment; reaching here
        # means an internal invariant broke.
        raise AssertionError(f"back-substitution produced a non-member {point}")
    return point
