"""Tropical hypersurfaces and monomial images, with exact checks.

A tropical polynomial is a finite set of terms (exponent vector, weight);
its hypersurface is the locus where the minimum of ``weight + exponent .
X`` is attained at least twice.  The hypersurface is assembled exactly:
one candidate polyhedron per term pair, labelled by the terms minimal at
one relative-interior point, and kept when nonempty and its label is
minimal.  Faces stay in half-space form; all queries (pure dimension,
membership, image dimension bounds, polyhedrality after closure) reduce
to the group-sort engine.

Convention: weights are valuations, so the minimum convention applies
throughout (large norm = small valuation).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from . import semilinear as sl
from .boolean import DIGITS, Tokens, signed_int
from .errors import ParseError, SemanticError
from .lowerset import NEG_INF


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
        dim = sl.basic_dimension(system)
        return None if dim == NEG_INF else Polyhedron(system, dim)

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


def _pair_face(p: TropPoly, i: int, j: int) -> sl.BasicSet:
    """Tie locus of terms i and j where both attain the global minimum.

    The exponents are distinct, so every row has a nonzero coefficient.
    """
    (ei, wi), (ej, wj) = p.terms[i], p.terms[j]
    atoms = [sl.LinearAtom(tuple(a - b for a, b in zip(ei, ej)), sl.EQ, wj - wi)]
    for k, (ek, wk) in enumerate(p.terms):
        if k != i:
            atoms.append(sl.LinearAtom(tuple(a - b for a, b in zip(ei, ek)), sl.LE, wk - wi))
    return sl.BasicSet(tuple(atoms), p.arity)


def trop_hypersurface(p: TropPoly) -> PolyhedralComplex:
    """The duplicate-minimum locus as a complex of maximal faces.

    Write C_S for the set where every term of S attains the minimum.  The
    tie polyhedron of a pair (i, j) (:func:`_pair_face`) is C_{i,j}; its
    label S is the set of terms minimal at its sample point x, a
    relative-interior point (:func:`~valdim.semilinear.sample_point`).
    For k in S the affine function ``t_k - t_i`` is nonnegative on
    C_{i,j} and zero at x, so it is zero on all of C_{i,j}: C_{i,j} =
    C_S.  The C_S are the faces of one polyhedral complex (Maclagan and
    Sturmfels, Introduction to Tropical Geometry, section 3.1), and C_S
    lies in C_T exactly when T is a subset of S.  So a tie polyhedron is
    maximal exactly when no label is a proper subset of its own, and two
    with one label are one set.  Kept: the first polyhedron of each label
    no other label is a proper subset of, in pair order; one elimination
    per pair, and no inclusion test.
    """
    faces: dict[frozenset[int], sl.BasicSet] = {}
    for i, j in combinations(range(len(p.terms)), 2):
        b = _pair_face(p, i, j)
        x = sl.sample_point(b)
        if x is not None:
            values = [p.term_value(exp, w, x) for exp, w in p.terms]
            low = min(values)
            faces.setdefault(frozenset(k for k, v in enumerate(values) if v == low), b)
    return PolyhedralComplex(tuple(
        Polyhedron.of(b) for label, b in faces.items() if not any(s < label for s in faces)
    ))


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


def _weight(text: str) -> Fraction:
    """``['-'] INT ['/' INT]``, or else the valuation of a Puiseux literal."""
    toks = Tokens(text)
    items = toks.items
    i = 1 if items[:1] == ["-"] else 0
    if i < len(items) and items[i][0] in DIGITS:
        w, j = toks.rational(i)
        if j == len(items):
            return Fraction(-w if i else w)
    from .mixedcell.parser import parse_puiseux

    coeff = parse_puiseux(text)
    if coeff.is_zero():
        raise ParseError(f"zero coefficient {text!r} has no weight")
    return coeff.valuation()


#: A '+' that no ')' closes before the next '(': one outside the parentheses.
_TERM_PLUS = re.compile(r"\+(?![^(]*\))")


def trop_poly_from_text(text: str) -> TropPoly:
    """Parse the weight@(exponents) sum syntax, e.g. ``0@(1,0) + 1/2@(0,1)``.

    A weight is a rational ``['-'] INT ['/' INT]``, read by the shared
    tokenizer of the DSLs, or else a Puiseux literal (``t^2@(0,1)``,
    ``2*t@(1,0)``), in which case its valuation is taken; plus signs
    inside such a coefficient are written as ``@`` terms separately, so
    the literal form covers monomial coefficients.  An exponent is
    ``['-'] INT``.  Terms are split on the ``+`` signs outside
    parentheses.  Every error is reported at its offset in ``text``: one
    in a weight or an exponent at that weight or exponent, one in the form
    of a term, or an exponent vector whose length differs from the first
    term's, at the term.
    """
    terms = []
    start = 0  # offset of the chunk in text
    for chunk in _TERM_PLUS.split(text):
        at = start + len(chunk) - len(chunk.lstrip())  # offset of the stripped chunk
        start += len(chunk) + 1
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty term in tropical polynomial", at)
        if "@" not in chunk:
            raise ParseError(f"term {chunk!r} lacks the weight@(exponents) form", at)
        term_at = at
        wtext, etext = chunk.split("@", 1)
        try:
            w = _weight(wtext.strip())
        except ParseError as exc:  # placed in text, at the weight if it has no position
            raise ParseError(exc.message, (exc.position or 0) + at) from None
        at += len(wtext) + 1 + len(etext) - len(etext.lstrip())
        etext = etext.strip()
        if not (etext.startswith("(") and etext.endswith(")")):
            raise ParseError(f"exponents in {chunk!r} must be parenthesized", term_at)
        exp = []
        for e in etext[1:-1].split(","):
            at += 1  # past '(' or ','
            try:
                exp.append(signed_int(e))
            except ValueError:
                at += len(e) - len(e.lstrip())
                raise ParseError(f"bad exponent vector {etext!r}", at) from None
            at += len(e)
        if terms and len(exp) != len(terms[0][0]):
            raise ParseError(f"term {chunk!r} has an exponent vector of length {len(exp)}, "
                             f"the first term one of length {len(terms[0][0])}", term_at)
        terms.append((tuple(exp), w))
    return TropPoly(tuple(terms))


def complex_to_json(c: PolyhedralComplex) -> dict:
    faces = []
    for f in c.faces:
        faces.append(
            {
                "constraints": [
                    {"coeffs": list(coeffs), "rel": rel, "rhs": str(Fraction(rhs, g))}
                    for coeffs, rel, rhs, g in (a.key() for a in f.system.atoms)
                ],
                "dim": f.dim,
            }
        )
    return {"faces": faces}
