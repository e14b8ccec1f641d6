"""One valued coordinate over finite Puiseux data.

The valued line is split into finitely many pieces on which every
tracked polynomial valuation is monomial; over each piece a mixed
formula reduces to the group sort.  Dimensions come out as lower sets of
N^2 and behave themselves under bijections and projections.
"""

from valdim import semilinear as sl
from valdim.lowerset import dim_nat, shift_closure
from valdim.mixedcell import (
    AffineBijection,
    FactoredPoly,
    PuiseuxElement,
    apply_bijection,
    mixed_cell_decompose,
    mixed_dimension,
    monomial_decompose,
    parse_mixed_formula,
    project_to_gamma,
)

print(__doc__)

zero = PuiseuxElement()
t = PuiseuxElement.of((1, 1))
f = FactoredPoly(1, ((zero, 1), (t, 1)))
print("pieces making v(x*(x - t)) monomial in rho = v(x - center):")
for piece, (mv,) in monomial_decompose([f]):
    where = {
        "points": f"the point {piece.elements[0] if piece.kind == 'points' else ''}",
        "sphere": f"sphere at radius {piece.radius} avoiding {len(piece.avoid)} branch(es)",
        "annulus": f"annulus {piece.lo} < rho < {piece.hi}",
    }[piece.kind]
    print(f"  {where:44} v = {mv.const} + {mv.slope}*rho")

graph = parse_mixed_formula("g1 = v(x) & 0 < v(x) & v(x) < 1", 1)
print("\nthe graph of the valuation over an annulus:")
for cell in mixed_cell_decompose(graph):
    print("  cell with base", cell.piece.kind, "and dimension pair", cell.dim_pair())
print("mixed dimension:", mixed_dimension(graph).maxima)
print("projection to the group sort:", sl.formula_to_dsl(project_to_gamma(graph)))

hesitation = parse_mixed_formula(
    "(v(x - 1) = inf & 0 < g1 & g1 < 1 & 0 < g2 & g2 < 1)"
    " | (v(x) >= 0 & g1 = 0 & g2 = 0)",
    2,
)
d = mixed_dimension(hesitation)
print("\na point times a group square, next to a ball times a group point:")
print("  dimension", d.maxima, "-- both candidates kept; collapse", dim_nat(d))

print("\nbijections leave the dimension alone:")
for name, b in (
    ("g1 <-> g2", AffineBijection(((0, 1), (1, 0)), (0, 0), zero)),
    ("x -> x - t", AffineBijection(((1, 0), (0, 1)), (0, 0), t)),
):
    moved = apply_bijection(hesitation, b)
    print(f"  under {name:17}", mixed_dimension(moved).maxima)

proj = project_to_gamma(hesitation)
print("\nprojection dimension", sl.dimension(proj), "respects the shift bound",
      dim_nat(shift_closure(d)))
