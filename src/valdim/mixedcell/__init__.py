"""One valued coordinate over finite Puiseux data, with group coordinates.

Provides exact Puiseux arithmetic, the piecewise-monomial decomposition
of the valued line, relative cell decomposition of mixed formulas, the
mixed dimension as a lower set of N^2, exact projection to the group
sort, and the affine bijections the dimension is invariant under.
Mixed formulas are the shared Boolean nodes of :mod:`valdim.boolean`
(``And``, ``Or``, ``Not``, ...) over ``MixedAtom`` leaves; their arity is
the number of group coordinates.
"""

from ..boolean import Not
from .engine import (
    AffineBijection,
    MixedCell,
    apply_bijection,
    mixed_cell_decompose,
    mixed_cell_to_json,
    mixed_dimension,
    piece_formulas,
    piece_to_json,
    project_to_gamma,
)
from .formula import MixedAtom, matom, polys
from .parser import parse_mixed_formula, parse_puiseux
from .pieces import (
    MonomialValuation,
    SwissPiece,
    monomial_decompose,
    piece_k_dimension,
)
from .puiseux import INFINITY, FactoredPoly, PuiseuxElement, valuation

#: Former name of ``Not``, kept for callers that still use it.
MNot = Not

__all__ = [
    "AffineBijection", "MixedCell", "apply_bijection", "mixed_cell_decompose", "mixed_cell_to_json",
    "mixed_dimension", "piece_formulas", "piece_to_json", "project_to_gamma",
    "MNot", "MixedAtom", "matom", "polys",
    "parse_mixed_formula", "parse_puiseux",
    "MonomialValuation", "SwissPiece", "monomial_decompose", "piece_k_dimension",
    "INFINITY", "FactoredPoly", "PuiseuxElement", "valuation",
]
