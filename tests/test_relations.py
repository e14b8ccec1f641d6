"""Property tests for the relation vocabulary of both atom kinds.

Every comparison ``lhs REL rhs`` with REL one of the seven spellings is
checked against Python's own operators: linear atoms at rational points,
their complements, the complements of raw elimination rows, and mixed
atoms of one or two valuation terms, both sides read in Q extended by
+inf, on the roots of the polynomials (one of them shared) and off
them.  ``tests/test_mixedcell.py`` checks that ``matom`` rejects an
unknown relation against a finite and an infinite right side.
"""

import math
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


def reference_text(coeffs, rel, q):
    """``c1*x1 + ... REL q`` as the DSL prints it: unit magnitudes bare, signs spaced."""
    text = ""
    for i, c in enumerate(coeffs):
        if c:
            term = f"x{i + 1}" if abs(c) == 1 else f"{abs(c)}*x{i + 1}"
            text += f" {'-' if c < 0 else '+'} {term}"
    text = text[3:] if text.startswith(" + ") else "-" + text[3:]
    return f"{text} {rel} {q}"


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
    def test_atoms_are_primitive_rows_read_over_the_coefficient_gcd(self, case, rel, q):
        coeffs, _ = case
        for a in sl.atom(coeffs, rel, q).atoms():
            row, arel, rhs = a
            assert all(isinstance(x, int) for x in (*row, rhs))
            assert math.gcd(*row, rhs) == 1
            if arel == sl.EQ:
                assert next(c for c in row if c) > 0
            g = math.gcd(*row)
            reduced, bound = tuple(c // g for c in row), F(rhs, g)
            assert a.key() == (reduced, arel, bound.numerator, bound.denominator)
            assert str(a) == reference_text(reduced, arel, bound)

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
#: Shares the root 1 with POLY.
POLY2 = FactoredPoly(F(1, 2), ((PuiseuxElement(), 1), (ONE, 1)))
#: Points of the valued line: the roots of POLY and POLY2, and points off them.
XS = (T, ONE, PuiseuxElement(), T + PuiseuxElement.of((2, 1)), PuiseuxElement.of((-1, 3)))


def extended_key(value):
    """Order key on Q extended by +inf: every rational < +inf."""
    return (1, 0) if value is INFINITY else (0, value)


def plus(a, b):
    """a + b in Q extended by +inf: +inf absorbs."""
    return INFINITY if INFINITY in (a, b) else a + b


def poly_value(poly, x):
    """v(poly(x)) in Q and +inf: the lead has valuation 0."""
    vs = [valuation(x - r) for r, _ in poly.roots]
    return INFINITY if INFINITY in vs else sum(m * v for (_, m), v in zip(poly.roots, vs))


def reference_holds(terms, gcoeffs, rel, rhs, x, gamma):
    """sum of w * v(P(x)) over ``terms``, plus gcoeffs . gamma, REL rhs.

    Read with both sides in Q and +inf: the group part and the
    positive-weight terms on the left, ``rhs`` and the negative-weight
    terms, negated, on the right.
    """
    left, right = dot(gcoeffs, gamma), rhs
    for poly, w in terms:
        v = poly_value(poly, x)
        v = v if v is INFINITY else abs(w) * v
        if w > 0:
            left = plus(left, v)
        else:
            right = plus(right, v)
    return PY[rel](extended_key(left), extended_key(right))


@st.composite
def mixed_cases(draw):
    k = draw(st.integers(0, 2))
    gcoeffs = tuple(draw(st.integers(-2, 2)) for _ in range(k))
    gamma = tuple(draw(rationals) for _ in range(k))
    return gcoeffs, gamma


class TestMixedAtoms:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-2, 2), st.integers(-2, 2), mixed_cases(), st.sampled_from(SPELLINGS),
        st.one_of(rationals, st.just(INFINITY)), st.sampled_from(XS),
    )
    def test_matom_holds_in_the_extended_order(self, weight, weight2, case, rel, rhs, x):
        gcoeffs, gamma = case
        terms = [(p, w) for p, w in ((POLY, weight), (POLY2, weight2)) if w]
        f = matom(terms, gcoeffs, rel, rhs)
        assert f.holds(x, gamma) == reference_holds(terms, gcoeffs, rel, rhs, x, gamma)

    def test_reference_sees_both_infinities(self):
        # The roots make a valuation term infinite on the left or on the
        # right, and at the shared root 1 on both sides at once, so the
        # verdicts at infinity are exercised by the property above.
        assert reference_holds([(POLY, 1)], (), "<", INFINITY, T, ()) is False
        assert reference_holds([(POLY, -1)], (), "<", F(0), ONE, ()) is True
        assert reference_holds([(POLY, -1)], (), "=", INFINITY, ONE, ()) is False
        assert reference_holds([], (1,), "!=", INFINITY, T, (F(3),)) is True
        assert reference_holds([(POLY, 1), (POLY2, -1)], (), "<", F(0), ONE, ()) is False
        assert reference_holds([(POLY, 1), (POLY2, -1)], (), "<=", F(0), ONE, ()) is True
        assert reference_holds([(POLY, 1), (POLY2, -1)], (), "=", F(0), ONE, ()) is True
