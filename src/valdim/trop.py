"""Tropical hypersurfaces and monomial images, with exact checks.

A tropical polynomial is a finite set of terms (exponent vector, weight);
its hypersurface is the locus where the minimum of ``weight + exponent .
X`` is attained at least twice.  The hypersurface is assembled exactly:
one candidate polyhedron per term pair, kept when nonempty and maximal
under inclusion.  Faces stay in half-space form; all queries (pure
dimension, membership, image dimension bounds, polyhedrality after
closure) reduce to the group-sort engine.

Convention: weights are valuations, so the minimum convention applies
throughout (large norm = small valuation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from . import semilinear as sl
from .errors import SemanticError
from .semilinear.elimination import atom_rows, negate_row, rows_infeasible


@dataclass(frozen=True)
class TropPoly:
    """Terms (exponent in N^n, weight in Q) with distinct exponents, n <= 3."""

    terms: tuple[tuple[tuple[int, ...], Fraction], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a tropical polynomial needs at least one term")
        fixed = []
        seen = set()
        arity = None
        for exp, w in self.terms:
            exp = tuple(int(e) for e in exp)
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            if arity is None:
                arity = len(exp)
            elif len(exp) != arity:
                raise ValueError("mixed exponent arities")
            if exp in seen:
                raise ValueError(f"repeated exponent {exp}")
            seen.add(exp)
            fixed.append((exp, Fraction(w)))
        if arity > 3:
            raise SemanticError(f"arity {arity} > 3 not supported")
        fixed.sort()
        object.__setattr__(self, "terms", tuple(fixed))

    @property
    def arity(self) -> int:
        return len(self.terms[0][0])

    def term_value(self, exp: tuple[int, ...], w: Fraction, x: Sequence[Fraction]):
        return w + sum(e * v for e, v in zip(exp, x))


@dataclass(frozen=True)
class Polyhedron:
    """A nonempty basic set together with its affine-span dimension."""

    system: sl.BasicSet
    dim: int = field(compare=False, default=-1)

    @staticmethod
    def of(system: sl.BasicSet) -> "Polyhedron | None":
        if sl.is_empty(system):
            return None
        return Polyhedron(system, sl.basic_dimension(system))

    def contains(self, x: Sequence[Fraction]) -> bool:
        return self.system.holds(x)


@dataclass(frozen=True)
class PolyhedralComplex:
    """Maximal faces of a union of polyhedra."""

    faces: tuple[Polyhedron, ...]

    def contains(self, x: Sequence[Fraction]) -> bool:
        return any(f.contains(x) for f in self.faces)


@dataclass(frozen=True)
class MonomialMap:
    """Integer exponent matrix, k outputs by n inputs, acting additively."""

    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(e) for e in row) for row in self.matrix)
        if not rows or len({len(r) for r in rows}) != 1:
            raise ValueError("matrix rows must be nonempty and of equal length")
        object.__setattr__(self, "matrix", rows)

    @property
    def outputs(self) -> int:
        return len(self.matrix)

    @property
    def inputs(self) -> int:
        return len(self.matrix[0])


def point_on_trop(p: TropPoly, x: Sequence[Fraction]) -> bool:
    """Whether the minimum of the terms at ``x`` is attained at least twice."""
    values = sorted(p.term_value(exp, w, x) for exp, w in p.terms)
    return len(values) > 1 and values[0] == values[1]


def _pair_face(p: TropPoly, i: int, j: int) -> sl.BasicSet | None:
    """Tie locus of terms i and j where both attain the global minimum.

    None when the locus is syntactically void (equal-weight comparison of
    identical linear parts can only arise between distinct exponents, so
    a constant-false row decides it).
    """
    n = p.arity
    (ei, wi), (ej, wj) = p.terms[i], p.terms[j]
    atoms = []
    eq = sl.atom(tuple(a - b for a, b in zip(ei, ej)), "=", wj - wi)
    if isinstance(eq, sl.Atom):
        atoms.append(eq.atom)
    elif not eq.value:
        return None
    for k, (ek, wk) in enumerate(p.terms):
        if k == i:
            continue
        le = sl.atom(tuple(a - b for a, b in zip(ei, ek)), "<=", wk - wi)
        if isinstance(le, sl.Atom):
            atoms.append(le.atom)
        elif not le.value:
            return None
    return sl.BasicSet(tuple(atoms), n)


def _subset(a: sl.BasicSet, b: sl.BasicSet) -> bool:
    """a subset of b: no piece of the complement of a face of b meets a."""
    rows = atom_rows(a.atoms)
    return all(
        rows_infeasible(rows + [neg], a.arity)
        for row in atom_rows(b.atoms)
        for neg in negate_row(row)
    )


def trop_hypersurface(p: TropPoly) -> PolyhedralComplex:
    """The duplicate-minimum locus as a complex of maximal faces.

    Enumerates term pairs, keeps the nonempty tie polyhedra, and drops
    faces contained in another kept face.
    """
    candidates: list[sl.BasicSet] = []
    seen = set()
    for i, j in combinations(range(len(p.terms)), 2):
        b = _pair_face(p, i, j)
        if b is None or b.atoms in seen or sl.is_empty(b):
            continue
        seen.add(b.atoms)
        candidates.append(b)
    keep: list[sl.BasicSet] = []
    for b in candidates:
        if any(b is not other and _subset(b, other) and not _subset(other, b)
               for other in candidates):
            continue
        if any(_subset(b, k) and _subset(k, b) for k in keep):
            continue  # duplicate set under a different presentation
        keep.append(b)
    faces = []
    for b in keep:
        f = Polyhedron.of(b)
        if f is not None:
            faces.append(f)
    return PolyhedralComplex(tuple(faces))


def pure_dimension_check(c: PolyhedralComplex, d: int) -> bool:
    """Every maximal face has affine-span dimension exactly ``d``.

    Vacuously true for the empty complex.
    """
    return all(f.dim == d for f in c.faces)


def trop_image_monomial(domain: sl.Formula, mp: MonomialMap) -> sl.Formula:
    """Exact image of a domain of input valuations under a monomial map.

    Builds { (X, eta) : X in domain, eta = M X } and projects onto the
    output coordinates.
    """
    n, k = mp.inputs, mp.outputs
    if domain.arity != n:
        raise SemanticError(
            f"domain arity {domain.arity} does not match map inputs {n}"
        )
    lift = sl.embed(domain, range(n), n + k)
    links = []
    for r, row in enumerate(mp.matrix):
        coeffs = list(row) + [0] * k
        coeffs[n + r] = -1
        links.append(sl.atom(tuple(coeffs), "=", 0))
    combined = sl.And.of(lift, *links)
    return sl.project(combined, list(range(n, n + k)))


def trop_poly_from_text(text: str) -> TropPoly:
    """Parse the weight@(exponents) sum syntax, e.g. ``0@(1,0) + 1/2@(0,1)``.

    A weight may also be a Puiseux literal (``t^2@(0,1)``, ``2*t@(1,0)``),
    in which case its valuation is taken; plus signs inside such a
    coefficient are written as ``@`` terms separately, so the literal form
    covers monomial coefficients.
    """
    from .errors import ParseError
    from .mixedcell.parser import parse_puiseux

    terms = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty term in tropical polynomial")
        if "@" not in chunk:
            raise ParseError(f"term {chunk!r} lacks the weight@(exponents) form")
        wtext, etext = chunk.split("@", 1)
        wtext = wtext.strip()
        try:
            w = Fraction(wtext)
        except ValueError:
            coeff = parse_puiseux(wtext)
            if coeff.is_zero():
                raise ParseError(f"zero coefficient {wtext!r} has no weight")
            w = coeff.valuation()
        except ZeroDivisionError as exc:
            raise ParseError(f"bad weight {wtext!r}") from exc
        etext = etext.strip()
        if not (etext.startswith("(") and etext.endswith(")")):
            raise ParseError(f"exponents in {chunk!r} must be parenthesized")
        try:
            exp = tuple(int(e.strip()) for e in etext[1:-1].split(","))
        except ValueError as exc:
            raise ParseError(f"bad exponent vector {etext!r}") from exc
        terms.append((exp, w))
    return TropPoly(tuple(terms))


def complex_to_json(c: PolyhedralComplex) -> dict:
    faces = []
    for f in c.faces:
        faces.append(
            {
                "constraints": [
                    {"coeffs": list(a.coeffs), "rel": a.rel, "rhs": str(a.rhs)}
                    for a in f.system.atoms
                ],
                "dim": f.dim,
            }
        )
    return {"faces": faces}
