"""Linear atoms and Boolean formulas over the ordered divisible group (Q, +, <).

An atom is an integer-coefficient linear constraint ``c . x REL q`` with
``REL`` one of ``<``, ``<=``, ``=`` and ``q`` an exact rational.  The
relations ``>``, ``>=``, ``!=`` are normalized away at construction time
(sign flip, or a disjunction for ``!=``), and an atom whose coefficients
are all zero collapses to a Boolean constant.  Formulas are Boolean trees
over atoms with a fixed variable arity, built from the shared nodes of
:mod:`valdim.boolean`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from operator import index
from typing import Iterable, Sequence, Union

from ..boolean import And, Atom, Bool, Formula, Junction, Not, Or, map_atoms

LT = "<"
LE = "<="
EQ = "="
RELS = (LT, LE, EQ)

Point = tuple[Fraction, ...]


def _gcd_all(values: Iterable[int]) -> int:
    g = 0
    for v in values:
        g = gcd(g, abs(v))
    return g


RatLike = Union[Fraction, int, str]


def exact(q: RatLike) -> Fraction:
    """The right side ``q`` as a Fraction; a float is not exact data."""
    if isinstance(q, float):
        raise TypeError(f"right side must be an int, a Fraction or a str, got float {q!r}")
    return Fraction(q)


def between(lo: Fraction | None, hi: Fraction | None) -> Fraction:
    """The sample point of the open interval (lo, hi); None is an open end.

    0 on the whole line, one step inside a half-line, else the midpoint.
    Every sampler of cells, FM systems and valued-line annuli uses it, so
    the same interval always gives the same sample.
    """
    if lo is None:
        return Fraction(0) if hi is None else hi - 1
    if hi is None:
        return lo + 1
    return (lo + hi) / 2


@dataclass(frozen=True, eq=False)
class LinearAtom:
    """``coeffs . x REL rhs`` with integer coefficients, in reduced form.

    Invariant: at least one coefficient is nonzero (all-zero constraints
    are Boolean constants, handled by :func:`atom`), the coefficient gcd
    is 1, and equalities have positive leading coefficient.
    """

    coeffs: tuple[int, ...]
    rel: str
    rhs: Fraction

    def __post_init__(self):
        if self.rel not in RELS:
            raise ValueError(f"bad relation {self.rel!r}")
        coeffs = tuple(map(index, self.coeffs))
        rhs = exact(self.rhs)
        g = _gcd_all(coeffs)
        if g == 0:
            raise ValueError("all-zero atom; use atom() which folds constants")
        if g > 1:
            coeffs = tuple(c // g for c in coeffs)
            rhs = rhs / g
        if self.rel == EQ:
            lead = next(c for c in coeffs if c != 0)
            if lead < 0:
                coeffs = tuple(-c for c in coeffs)
                rhs = -rhs
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "rhs", rhs)
        key = (coeffs, self.rel, rhs.numerator, rhs.denominator)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, LinearAtom) and self._key == other._key

    @property
    def arity(self) -> int:
        return len(self.coeffs)

    def holds(self, point: Sequence[Fraction]) -> bool:
        lhs = sum(c * v for c, v in zip(self.coeffs, point))
        if self.rel == LT:
            return lhs < self.rhs
        if self.rel == LE:
            return lhs <= self.rhs
        return lhs == self.rhs

    def key(self) -> tuple:
        return self._key

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            term = f"x{i + 1}" if mag == 1 else f"{mag}*x{i + 1}"
            parts.append(f"{sign} {term}" if parts else f"{sign}{term}")
        return f"{' '.join(parts)} {self.rel} {self.rhs}"


TRUE = Bool(True)
FALSE = Bool(False)


def atom(coeffs: Sequence[int], rel: str, rhs: RatLike) -> Formula:
    """Build an atomic formula, normalizing the relation into {<, <=, =}.

    ``>``/``>=`` negate both sides, ``!=`` expands to a disjunction, and a
    constraint with no variable left becomes a Boolean constant.
    """
    cs = tuple(map(index, coeffs))
    q = exact(rhs)
    if rel in (">", ">="):
        cs = tuple(-c for c in cs)
        q = -q
        rel = LT if rel == ">" else LE
    if rel == "!=":
        return Or.of(atom(cs, LT, q), atom(tuple(-c for c in cs), LT, -q))
    if rel == "==":
        rel = EQ
    if rel not in RELS:
        raise ValueError(f"bad relation {rel!r}")
    if all(c == 0 for c in cs):
        zero = Fraction(0)
        value = zero < q if rel == LT else (zero <= q if rel == LE else zero == q)
        return Bool(value, len(cs))
    return Atom(LinearAtom(cs, rel, q))


def negate_atom(a: LinearAtom) -> Formula:
    """Formula for the complement of a single atom."""
    if a.rel == LT:
        return atom(tuple(-c for c in a.coeffs), LE, -a.rhs)
    if a.rel == LE:
        return atom(tuple(-c for c in a.coeffs), LT, -a.rhs)
    return Or.of(
        atom(a.coeffs, LT, a.rhs), atom(tuple(-c for c in a.coeffs), LT, -a.rhs)
    )


def embed(f: Formula, coords: Sequence[int], arity: int) -> Formula:
    """``f`` in a space of ``arity`` variables, variable i moved to ``coords[i]``.

    The other variables are unconstrained, so the result is a cylinder.
    """

    def move(a: LinearAtom) -> Formula:
        coeffs = [0] * arity
        for c, j in zip(a.coeffs, coords):
            coeffs[j] = c
        return Atom(LinearAtom(tuple(coeffs), a.rel, a.rhs))

    return map_atoms(f, move, arity)


@dataclass(frozen=True)
class BasicSet:
    """Conjunction of atoms: one polyhedron with per-face strict/weak flags.

    Atoms are stored sorted and deduplicated; the elimination stages, ()
    for an empty set, are filled lazily by the elimination module.
    """

    atoms: tuple[LinearAtom, ...]
    arity: int
    _stages: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "atoms", tuple(sorted(set(self.atoms), key=LinearAtom.key))
        )
        for a in self.atoms:
            if a.arity != self.arity:
                raise ValueError("atom arity does not match BasicSet arity")

    def holds(self, point: Sequence[Fraction]) -> bool:
        return all(a.holds(point) for a in self.atoms)

    def to_formula(self) -> Formula:
        if not self.atoms:
            return Bool(True, self.arity)
        return And.of(*[Atom(a) for a in self.atoms])

    def relaxed(self) -> "BasicSet":
        """The same system with every strict face made weak."""
        return BasicSet(
            tuple(
                LinearAtom(a.coeffs, LE if a.rel == LT else a.rel, a.rhs)
                for a in self.atoms
            ),
            self.arity,
        )

    def is_weak(self) -> bool:
        return all(a.rel != LT for a in self.atoms)


def formula_to_dsl(f: Formula) -> str:
    """Render a formula back into DSL text, in disjunctive normal form."""
    disjuncts = normalize_dnf(f)
    if not disjuncts:
        return "false"
    parts = []
    for b in disjuncts:
        if not b.atoms:
            return "true"
        joined = " & ".join(str(a) for a in b.atoms)
        parts.append(f"({joined})" if len(disjuncts) > 1 and len(b.atoms) > 1 else joined)
    return " | ".join(parts)


def _dnf_lists(f: Formula, positive: bool = True) -> list[tuple[LinearAtom, ...]]:
    """The atom tuples of the DNF of ``f``, or of its negation if not ``positive``.

    Negations are pushed down by De Morgan on the way, onto the atoms,
    where :func:`negate_atom` resolves them; a conjunction multiplies its
    parts' disjunct lists out in order, a disjunction concatenates them.
    """
    if isinstance(f, Atom):
        return [(f.atom,)] if positive else _dnf_lists(negate_atom(f.atom))
    if isinstance(f, Junction):
        if f.unit != positive:  # a disjunction once the polarity is applied
            return [d for p in f.parts for d in _dnf_lists(p, positive)]
        disjuncts: list[tuple[LinearAtom, ...]] = [()]
        for p in f.parts:
            branch = _dnf_lists(p, positive)
            disjuncts = [d + b for d in disjuncts for b in branch]
        return disjuncts
    if isinstance(f, Not):
        return _dnf_lists(f.part, not positive)
    if isinstance(f, Bool):
        return [()] if f.value == positive else []
    raise TypeError(f"not a formula: {f!r}")


def normalize_dnf(f: Formula) -> list[BasicSet]:
    """Disjunctive normal form of ``f`` as a list of basic sets.

    The union of the returned sets equals the set defined by ``f``.
    Empty disjuncts are pruned (emptiness decided by full elimination) and
    the output order is lexicographic on atom encodings, for determinism.
    """
    from .elimination import is_empty

    n = f.arity
    seen = set()
    out: list[BasicSet] = []
    for atoms_ in _dnf_lists(f):
        b = BasicSet(atoms_, n)
        if b.atoms in seen:
            continue
        seen.add(b.atoms)
        if not is_empty(b):
            out.append(b)
    out.sort(key=lambda b: tuple(a.key() for a in b.atoms))
    return out
