"""Property tests for the relation vocabulary of both atom kinds.

Every comparison ``lhs REL rhs`` with REL one of the seven spellings is
checked against Python's own operators: linear atoms at rational points,
their complements, the complements of raw elimination rows, and mixed
atoms in Q extended by -inf and +inf, both on a root of the polynomial
and off it.  ``tests/test_mixedcell.py`` checks that ``matom`` rejects an
unknown relation against a finite and an infinite right side.
"""

import operator
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valdim import semilinear as sl
from valdim.mixedcell import INFINITY, FactoredPoly, PuiseuxElement, matom, valuation
from valdim.semilinear.elimination import negate_row

SPELLINGS = ("<", "<=", "=", "==", ">=", ">", "!=")
PY = {
    "<": operator.lt, "<=": operator.le, "=": operator.eq, "==": operator.eq,
    ">=": operator.ge, ">": operator.gt, "!=": operator.ne,
}

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def dot(coeffs, point):
    return sum(c * v for c, v in zip(coeffs, point))


@st.composite
def linear_cases(draw):
    """(coeffs, point) in [-3, 3]^n x Q^n for n <= 3, all-zero coeffs allowed."""
    n = draw(st.integers(0, 3))
    coeffs = tuple(draw(st.integers(-3, 3)) for _ in range(n))
    point = tuple(draw(rationals) for _ in range(n))
    return coeffs, point


class TestLinearAtoms:
    @settings(max_examples=200, deadline=None)
    @given(linear_cases(), st.sampled_from(SPELLINGS), rationals)
    def test_atom_holds_like_python(self, case, rel, q):
        coeffs, point = case
        assert sl.atom(coeffs, rel, q).holds(point) == PY[rel](dot(coeffs, point), q)

    @settings(max_examples=200, deadline=None)
    @given(linear_cases(), st.sampled_from(SPELLINGS), rationals)
    def test_negate_atom_holds_where_the_atom_fails(self, case, rel, q):
        coeffs, point = case
        for a in sl.atom(coeffs, rel, q).atoms():
            assert sl.negate_atom(a).holds(point) == (not a.holds(point))

    @settings(max_examples=200, deadline=None)
    @given(linear_cases(), st.sampled_from(sl.atoms.RELS), st.integers(-6, 6))
    def test_negate_row_covers_where_the_row_fails(self, case, rel, rhs):
        coeffs, point = case
        fails = not PY[rel](dot(coeffs, point), rhs)
        pieces = negate_row((coeffs, rel, rhs))
        assert any(PY[r](dot(c, point), q) for c, r, q in pieces) == fails

    @pytest.mark.parametrize("rel", ["<>", "=<", "", "lt"])
    def test_unknown_relation_raises(self, rel):
        with pytest.raises(ValueError):
            sl.atom((1, 0), rel, 1)
        with pytest.raises(ValueError):
            sl.atom((0, 0), rel, 1)


T = PuiseuxElement.of((1, 1))
ONE = PuiseuxElement.constant(1)
POLY = FactoredPoly(2, ((T, 1), (ONE, 2)))
#: Points of the valued line: the two roots of POLY, and points off them.
XS = (T, ONE, PuiseuxElement(), T + PuiseuxElement.of((2, 1)), PuiseuxElement.of((-1, 3)))


def extended_key(value):
    """Order key on Q extended by -inf and +inf: -inf < every rational < +inf."""
    if value == "-inf":
        return (-1, 0)
    if value is INFINITY:
        return (1, 0)
    return (0, value)


def reference_holds(weight, gcoeffs, rel, rhs, x, gamma):
    """weight * v(POLY(x)) + gcoeffs . gamma REL rhs, read in Q and +-inf."""
    lhs = dot(gcoeffs, gamma)
    if weight:
        vs = [(m, valuation(x - r)) for r, m in POLY.roots]
        if any(v is INFINITY for _, v in vs):
            lhs = INFINITY if weight > 0 else "-inf"
        else:
            lhs += weight * sum(m * v for m, v in vs)
    return PY[rel](extended_key(lhs), extended_key(rhs))


@st.composite
def mixed_cases(draw):
    k = draw(st.integers(0, 2))
    gcoeffs = tuple(draw(st.integers(-2, 2)) for _ in range(k))
    gamma = tuple(draw(rationals) for _ in range(k))
    return gcoeffs, gamma


class TestMixedAtoms:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-2, 2), mixed_cases(), st.sampled_from(SPELLINGS),
        st.one_of(rationals, st.just(INFINITY)), st.sampled_from(XS),
    )
    def test_matom_holds_in_the_extended_order(self, weight, case, rel, rhs, x):
        gcoeffs, gamma = case
        f = matom(weight, POLY if weight else None, gcoeffs, rel, rhs)
        assert f.holds(x, gamma) == reference_holds(weight, gcoeffs, rel, rhs, x, gamma)

    def test_reference_sees_both_infinities(self):
        # The roots make the valuation term +inf or -inf, so the table's
        # verdicts at infinity are exercised by the property above.
        assert reference_holds(1, (), "<", INFINITY, T, ()) is False
        assert reference_holds(-1, (), "<", F(0), ONE, ()) is True
        assert reference_holds(-1, (), "=", INFINITY, ONE, ()) is False
        assert reference_holds(0, (1,), "!=", INFINITY, T, (F(3),)) is True
