"""Relative cell decomposition over one valued coordinate and its dimensions.

The engine reduces every mixed formula to group-sort reasoning: the
valued line is partitioned by :func:`monomial_decompose` so each
valuation term, and so each atom's sum of terms, becomes affine in the
radius coordinate rho = v(x - c); on each piece the formula turns into
a linear formula over k radius coordinates and then gamma_1, ...,
gamma_n, k the piece's dimension: (rho, gamma) on a sphere or an
annulus, rho acting as the base-linked coordinate, and gamma alone at a
point.  Every reader slices at k.  Zero loci of the tracked polynomials
are point pieces, where :func:`decide_infinite` decides every atom with
an infinite side: no infinite valuation reaches the group-sort engine.

A mixed cell is a piece of the line together with a group-sort cell in
that layout; its dimension is the pair (piece dimension, sum of the
gamma signature), and the mixed dimension of a set is the lower set
generated by its cells' dimension pairs.  :func:`mixed_dimension`
computes that lower set without building cells, from the signature of
one relative-interior point of each convex DNF disjunct; cells are built
only by :func:`mixed_cell_decompose`.

The pieces and their formulas are built once per formula value, on
first use, and kept on it: :func:`mixed_dimension`,
:func:`project_to_gamma` and :func:`mixed_cell_decompose` all read the
same :func:`piece_formulas`.  Each piece formula keeps its DNF disjuncts
in turn, with their elimination stages, so :func:`project_to_gamma`
projects the disjuncts :func:`mixed_dimension` has already decided: it
skips the empty ones and eliminates only the radius from the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .. import semilinear as sl
from ..boolean import Formula, map_atoms
from ..errors import SemanticError
from ..lowerset import LowerSet, lower_closure
from ..semilinear.elimination import _eliminate
from .formula import MixedAtom, decide_infinite, polys
from .pieces import MonomialValuation, SwissPiece, monomial_decompose, piece_k_dimension
from .puiseux import INFINITY, PuiseuxElement


@dataclass(frozen=True)
class MixedCell:
    """A swiss piece with a group-sort cell above it.

    The fiber's first ``kdim`` coordinates are the radius rho: one for a
    sphere or an annulus, whose base-linked coordinate it is, and none at
    a point, where rho is infinite.  The gamma coordinates follow, and
    every reader slices the fiber at ``kdim``.
    """

    piece: SwissPiece
    fiber: sl.GammaCell

    @property
    def kdim(self) -> int:
        return piece_k_dimension(self.piece)

    @property
    def gamma_signature(self) -> tuple[int, ...]:
        return self.fiber.signature[self.kdim:]

    def dim_pair(self) -> tuple[int, int]:
        return (self.kdim, sum(self.gamma_signature))

    def contains(self, x: PuiseuxElement, gamma: Sequence[Fraction]) -> bool:
        if not self.piece.contains(x):
            return False
        return self.fiber.contains((self.piece.rho_of(x),) * self.kdim + tuple(gamma))

    def sample(self) -> tuple[PuiseuxElement, tuple[Fraction, ...]]:
        """A member (x, gamma) of the cell; on a sphere the fiber pins rho to its radius."""
        point = self.fiber.sample()
        k = self.kdim
        return self.piece.sample(*point[:k]), point[k:]

    def gamma_projection(self) -> sl.Formula:
        """Exact projection of the cell to the gamma coordinates.

        A cell is never empty, so its ``kdim`` radius coordinates are all
        the elimination needs to remove: no step re-proves nonemptiness.
        """
        b = self.fiber.to_basicset()
        k = self.kdim
        rows = _eliminate(list(b.atoms), range(k))[-1]
        atoms = tuple(sl.LinearAtom(coeffs[k:], rel, rhs) for coeffs, rel, rhs in rows)
        return sl.BasicSet(atoms, b.arity - k).to_formula()


def _atom_on_piece(
    a: MixedAtom, vals: Sequence[MonomialValuation], at: list[tuple[int, int]], n: int, k: int
) -> sl.Formula:
    """Translate one mixed atom into a linear formula over (rho,)*k + gamma on one piece.

    ``vals`` are the valuations of the tracked polynomials on the piece,
    ``at`` the atom's (weight, position in ``vals``) pairs, and ``k`` the
    piece's dimension.  The terms sum to ``sum(w * slope)`` times rho plus
    ``sum(w * const)``; at a point (k = 0) a positive slope is infinite.
    """
    left, right = False, a.rhs is INFINITY
    slope, rhs = 0, a.rhs
    for w, i in at:
        mv = vals[i]
        if not k and mv.slope:  # an infinite term
            left, right = left or w > 0, right or w < 0
        elif not right:  # rhs is still finite
            slope += w * mv.slope
            rhs -= w * mv.const
    if left or right:
        return sl.Bool(decide_infinite(a.rel, left, right), n + k)
    return sl.atom((slope,) * k + a.gcoeffs, a.rel, rhs)


def _rho_constraints(piece: SwissPiece, n: int) -> list[sl.Formula]:
    rho = (1,) + (0,) * n
    out = []
    if piece.kind == "sphere":
        out.append(sl.atom(rho, "=", piece.radius))
    else:
        if piece.lo is not None:
            out.append(sl.atom(rho, ">", piece.lo))
        if piece.hi is not None:
            out.append(sl.atom(rho, "<", piece.hi))
    return out


def piece_formulas(
    f: Formula,
) -> tuple[tuple[SwissPiece, sl.Formula], ...]:
    """Per-piece linear formulas over ``(rho,) * k + gamma``, k the piece dimension.

    The conjunction of the translated formula with the piece's radius
    window; together the pairs describe the set of ``f`` exactly.  The
    pairs are built on the first call and kept on ``f`` outside its
    fields, so they take no part in its equality, hash or repr.
    """
    kept = getattr(f, "_pieces", None)
    if kept is not None:
        return kept
    n = f.arity
    tracked = polys(f)
    weighted = {a: [(w, tracked.index(p)) for p, w in a.terms] for a in f.atoms()}
    out = []
    for piece, vals in monomial_decompose(tracked):
        k = piece_k_dimension(piece)

        def on_piece(a: MixedAtom) -> sl.Formula:
            return _atom_on_piece(a, vals, weighted[a], n, k)

        g = map_atoms(f, on_piece, n + k)
        if k:
            g = sl.And.of(g, *_rho_constraints(piece, n))
        out.append((piece, g))
    kept = tuple(out)
    object.__setattr__(f, "_pieces", kept)
    return kept


def mixed_cell_decompose(f: Formula) -> list[MixedCell]:
    """Partition the set of ``f`` into mixed cells, grouped by piece."""
    return [
        MixedCell(piece, cell)
        for piece, g in piece_formulas(f)
        for cell in sl.cell_decompose(g)
    ]


def mixed_dimension(f: Formula) -> LowerSet:
    """The lower set generated by the dimension pairs of the cells, without cells.

    Each DNF disjunct P of a piece formula contributes (k, s), k the
    piece dimension and s the sum of the signature bits of P after its k
    radius coordinates.  At a point (k = 0) s is dim P.  Otherwise s is
    the largest dimension of a gamma-fiber of P.  Proof: rho is
    coordinate 0, so the back-substitution of :func:`sl.basic_signature`
    picks rho first, in the relative interior of the projection pi P, and
    then a point of the relative interior of the fiber above it
    (Rockafellar, Convex Analysis, Thm 6.8).  The bits after rho sum to dim P - dim pi P, the
    fiber dimension above any relative-interior rho; no fiber is larger,
    since every fiber lies in a translate of the kernel of pi on the
    direction space of the affine hull of P.  Fibers of a union are
    unions of fibers, and a cell over (rho, gamma) is cylindrical with
    rho first, so its gamma signature sum is the dimension of its fibers:
    the pairs generate the same lower set as the cells' pairs, which
    ``verify.suite_mixed`` checks.
    """
    pairs = set()
    for piece, g in piece_formulas(f):
        k = piece_k_dimension(piece)
        for p in sl.normalize_dnf(g):
            pairs.add((k, sum(sl.basic_signature(p)[k:])))
    return lower_closure(pairs)


def project_to_gamma(f: Formula) -> sl.Formula:
    """Formula for { gamma : some x makes (x, gamma) satisfy f }."""
    n = f.arity
    parts = []
    for piece, g in piece_formulas(f):
        k = piece_k_dimension(piece)
        parts.append(sl.project(g, list(range(k, n + k))) if k else g)
    if not parts:
        return sl.Bool(False, n)
    return sl.Or.of(*parts)


def _puiseux_to_json(e: PuiseuxElement) -> list[list[str]]:
    return [[str(exp), str(c)] for exp, c in e.terms]


def piece_to_json(p: SwissPiece) -> dict:
    out: dict = {"kind": p.kind}
    if p.kind == "points":
        out["elements"] = [_puiseux_to_json(p.center)]
        return out
    out["center"] = _puiseux_to_json(p.center)
    if p.kind == "sphere":
        out["radius"] = str(p.radius)
        out["avoid"] = [_puiseux_to_json(a) for a in p.avoid]
    else:
        out["lo"] = None if p.lo is None else str(p.lo)
        out["hi"] = None if p.hi is None else str(p.hi)
    return out


def mixed_cell_to_json(c: MixedCell) -> dict:
    out = sl.cell_to_json(c.fiber)
    out["base"] = piece_to_json(c.piece)
    out["kdim"] = c.kdim
    return out


# --- definable bijections -------------------------------------------------


@dataclass(frozen=True)
class AffineBijection:
    """(x, gamma) -> (x - shift, matrix . gamma + offsets).

    ``matrix`` is an integer n x n matrix with determinant +-1.  A
    permutation of the gamma coordinates is a permutation matrix; a
    translation is the identity matrix with offsets.
    """

    matrix: tuple[tuple[int, ...], ...]
    offsets: tuple[Fraction, ...]
    shift: PuiseuxElement


def _integer_inverse(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """The inverse of a square matrix, by exact Gauss-Jordan elimination.

    Raises ``SemanticError`` when the matrix is singular or its inverse
    is not integral, that is, when it is not unimodular.
    """
    n = len(matrix)
    rows = [
        [Fraction(c) for c in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            raise SemanticError("singular matrix is not a bijection")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = top = [v / rows[col][col] for v in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [v - factor * w for v, w in zip(rows[r], top)]
    inverse = [row[n:] for row in rows]
    if any(v.denominator != 1 for row in inverse for v in row):
        raise SemanticError("matrix is not unimodular: its inverse is not integral")
    return [[int(v) for v in row] for row in inverse]


def apply_bijection(f: Formula, b: AffineBijection) -> Formula:
    """Formula for the image of the set of ``f`` under the bijection ``b``.

    The image holds at (y, delta) iff ``f`` holds at the preimage
    (y + shift, U^-1 (delta - offsets)).  So every polynomial is
    translated by the shift (and the atom's constructor sorts the
    translated terms again), group coefficients c become c U^-1, and a
    finite right side gains (c U^-1) . offsets.
    """
    n = f.arity
    if len(b.matrix) != n or any(len(r) != n for r in b.matrix) or len(b.offsets) != n:
        raise SemanticError(f"bijection shape does not fit {n} group coordinates")
    inverse = _integer_inverse(b.matrix)

    def image(a: MixedAtom) -> Formula:
        coeffs = tuple(
            sum(c * row[j] for c, row in zip(a.gcoeffs, inverse)) for j in range(n)
        )
        rhs = a.rhs
        if rhs is not INFINITY:
            rhs += sum(c * d for c, d in zip(coeffs, b.offsets))
        terms = [(p.translate(b.shift), w) for p, w in a.terms]
        return MixedAtom(terms, coeffs, a.rel, rhs)

    return map_atoms(f, image, n)
