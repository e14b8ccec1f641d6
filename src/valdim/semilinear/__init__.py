"""Engine for definable sets over the ordered divisible group (Q, +, <).

Formulas are Boolean combinations of integer-coefficient linear
constraints with exact rational constants, built from the Boolean nodes
of :mod:`valdim.boolean` that the mixed engine shares; they are
re-exported here (``And``, ``Or``, ``Not``, ``Bool``, ``Atom``,
``Formula``).  Each leaf is a ``LinearAtom``, an ``Atom`` subclass, so
an atom is a formula as it stands.  The module provides
disjunctive normal form, Fourier-Motzkin projection and emptiness,
recursive cell decomposition, topological closure, and the constraint
DSL parser.  The dimension is read off the DNF, as the signature of a
back-substituted relative-interior point of each disjunct
(:func:`dimension`, :func:`basic_dimension`, :func:`basic_signature`);
cells are built only by :func:`cell_decompose`.  A second, independent
characterization by interior-carrying projections is kept as
:func:`dimension_via_projection`.
"""

from .atoms import (
    EQ,
    LE,
    LT,
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
from .elimination import (
    basic_dimension, basic_signature, exists, is_empty, project, project_basic, sample_point,
)
from .intervals import IntervalType, one_var_canonical
from .parser import parse_formula
from .topology import closure, is_polyhedral

__all__ = [
    "EQ", "LE", "LT",
    "And", "Atom", "BasicSet", "Bool", "Formula",
    "LinearAtom", "Not", "Or", "atom", "embed", "formula_to_dsl",
    "negate_atom", "normalize_dnf",
    "AffineBound", "GammaCell",
    "cell_decompose", "cell_from_json", "cell_to_json",
    "dimension", "dimension_via_projection", "has_interior",
    "basic_dimension", "basic_signature", "exists", "is_empty",
    "project", "project_basic", "sample_point",
    "IntervalType", "one_var_canonical",
    "parse_formula", "closure", "is_polyhedral",
]
