"""Topological closure and polyhedrality of semilinear sets.

The closure of a *nonempty* conjunction of linear constraints is the same
system with every strict inequality relaxed to a weak one; for an empty
system the relaxation can spuriously become nonempty, so empty disjuncts
are dropped instead of relaxed.  Closure of a union is the union of
closures.  A set is polyhedral (a finite union of weak-inequality
systems) exactly when it is closed.
"""

from __future__ import annotations

from .atoms import BasicSet, Bool, Formula, Not, Or, normalize_dnf
from .elimination import is_empty


def closure(f: Formula) -> Formula:
    """Formula for the topological closure of the set of ``f``."""
    disjuncts = normalize_dnf(f)  # empty disjuncts already pruned
    if not disjuncts:
        return Bool(False, f.arity)
    return Or.of(*[b.relaxed().to_formula() for b in disjuncts])


def is_polyhedral(f: Formula) -> tuple[bool, list[BasicSet] | None]:
    """Whether ``f`` defines a finite union of weak-inequality polyhedra.

    Returns the verdict together with a witness presentation (the list of
    closed disjuncts) when the answer is yes.  A set qualifies iff it
    equals the union of the closures of its disjuncts, checked by
    emptiness of closure(f) minus f; a DNF that is already weak-only is
    accepted without the semantic check.
    """
    disjuncts = normalize_dnf(f)
    if not disjuncts:
        return True, []
    if all(b.is_weak() for b in disjuncts):
        return True, disjuncts
    relaxed = [b.relaxed() for b in disjuncts]
    difference = Or.of(*[b.to_formula() for b in relaxed]) & Not.of(f)
    if all(is_empty(b) for b in normalize_dnf(difference)):
        return True, relaxed
    return False, None
