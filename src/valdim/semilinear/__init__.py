"""Engine for definable sets over the ordered divisible group (Q, +, <).

Formulas are Boolean combinations of integer-coefficient linear
constraints with exact rational constants, built from the Boolean nodes
of :mod:`valdim.boolean` that the mixed engine shares; they are
re-exported here (``And``, ``Or``, ``Not``, ``Bool``, ``Atom``,
``Formula``).  The module provides
disjunctive normal form, Fourier-Motzkin projection and emptiness,
recursive cell decomposition, topological closure, and the constraint
DSL parser.  The dimension is read off the DNF by implicit equalities
and exact rank (:func:`dimension`, :func:`basic_dimension`); cells are
built only by :func:`cell_decompose`.  A second, independent
characterization by interior-carrying projections is kept as
:func:`dimension_via_projection`.
"""

from .atoms import (
    EQ,
    FALSE,
    LE,
    LT,
    TRUE,
    And,
    Atom,
    BasicSet,
    Bool,
    Formula,
    LinearAtom,
    Not,
    Or,
    atom,
    embed,
    formula_to_dsl,
    negate_atom,
    normalize_dnf,
)
from .cells import (
    AffineBound,
    GammaCell,
    cell_decompose,
    cell_from_json,
    cell_to_json,
    dimension,
    dimension_via_projection,
    has_interior,
)
from .elimination import basic_dimension, exists, is_empty, project, project_basic, sample_point
from .intervals import IntervalType, one_var_canonical
from .parser import parse_formula
from .topology import closure, is_polyhedral

__all__ = [
    "EQ", "FALSE", "LE", "LT", "TRUE",
    "And", "Atom", "BasicSet", "Bool", "Formula",
    "LinearAtom", "Not", "Or", "atom", "embed", "formula_to_dsl",
    "negate_atom", "normalize_dnf",
    "AffineBound", "GammaCell",
    "cell_decompose", "cell_from_json", "cell_to_json",
    "dimension", "dimension_via_projection", "has_interior",
    "basic_dimension", "exists", "is_empty", "project", "project_basic", "sample_point",
    "IntervalType", "one_var_canonical",
    "parse_formula", "closure", "is_polyhedral",
]
