import random
from fractions import Fraction as F

import pytest

from valdim import semilinear as sl
from valdim import trop
from valdim.errors import ParseError, SemanticError


def grid(lo, hi, denom):
    return [F(i, denom) for i in range(lo * denom, hi * denom + 1)]


LINE = trop.trop_poly_from_text("0@(1,0) + 0@(0,1) + 0@(0,0)")


class TestHypersurface:
    def test_three_rays(self):
        c = trop.trop_hypersurface(LINE)
        assert len(c.faces) == 3
        assert trop.pure_dimension_check(c, 1)
        systems = {tuple(str(a) for a in f.system.atoms) for f in c.faces}
        assert ("-x1 <= 0", "-x2 <= 0", "x2 = 0") in systems  # ray X = Y = 0 <= X
        assert c.contains((F(0), F(0)))

    def test_grid_matches_duplicate_min_oracle(self):
        c = trop.trop_hypersurface(LINE)
        for x in grid(-2, 2, 4):
            for y in grid(-2, 2, 4):
                assert c.contains((x, y)) == trop.point_on_trop(LINE, (x, y))

    def test_shifted_vertex(self):
        p = trop.trop_poly_from_text("0@(1,0) + 0@(0,1) + 1@(0,0)")
        c = trop.trop_hypersurface(p)
        assert c.contains((F(1), F(1)))
        for x in grid(-2, 2, 4):
            for y in grid(-2, 2, 4):
                assert c.contains((x, y)) == trop.point_on_trop(p, (x, y))

    def test_single_monomial_empty(self):
        p = trop.TropPoly((((1, 0), F(0)),))
        c = trop.trop_hypersurface(p)
        assert c.faces == ()
        assert trop.pure_dimension_check(c, 1)  # vacuous

    def test_contained_faces_dropped(self):
        # four terms on a line of weights: vertices lie inside edges
        p = trop.trop_poly_from_text("0@(0,0) + 0@(1,0) + 0@(2,0) + 0@(0,1)")
        c = trop.trop_hypersurface(p)
        for f in c.faces:
            assert f.dim == 1

    def test_arity_cap(self):
        with pytest.raises(SemanticError):
            trop.TropPoly((((1, 0, 0, 0), F(0)),))

    def test_parser_errors(self):
        with pytest.raises(ParseError):
            trop.trop_poly_from_text("0@(1,0) + nah")
        with pytest.raises(ParseError):
            trop.trop_poly_from_text("1/0@(1,0)")

    def test_puiseux_coefficient_weights(self):
        p = trop.trop_poly_from_text("t@(0,0) + 0@(1,0) + 2*t^1/2@(0,1)")
        weights = {e: w for e, w in p.terms}
        assert weights[(0, 0)] == 1 and weights[(0, 1)] == F(1, 2)
        # same hypersurface as explicit weights
        q = trop.trop_poly_from_text("1@(0,0) + 0@(1,0) + 1/2@(0,1)")
        cp, cq = trop.trop_hypersurface(p), trop.trop_hypersurface(q)
        for x in grid(-2, 2, 4):
            for y in grid(-2, 2, 4):
                assert cp.contains((x, y)) == cq.contains((x, y))

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ParseError):
            trop.trop_poly_from_text("0*t@(1,0) + 0@(0,1)")


def family(seed, n, terms, hi=3, equal=False, collinear=False):
    """Seeded polynomials of one degenerate shape, ``terms`` terms at most."""
    rng = random.Random(seed)
    polys = []
    for _ in range(12):
        exps = {}
        while len(exps) < terms:
            e = rng.randint(0, hi)
            exp = tuple(e * d for d in (1, 2, 1)[:n]) if collinear else tuple(
                rng.randint(0, hi) for _ in range(n))
            exps[exp] = F(0) if equal else F(rng.randint(-4, 4), rng.choice([1, 2]))
        polys.append(trop.TropPoly(tuple(exps.items())))
    return polys


FAMILIES = {
    "one variable": dict(n=1, terms=4, hi=6),
    "equal weights": dict(n=2, terms=6, equal=True),
    "equal weights in space": dict(n=3, terms=6, hi=2, equal=True),
    "collinear exponents": dict(n=2, terms=5, hi=5, collinear=True),
    "collinear in space": dict(n=3, terms=4, hi=4, collinear=True),
    "one term": dict(n=2, terms=1),
    "ten terms": dict(n=2, terms=10),
    "ten terms in space": dict(n=3, terms=10),
}


class TestAgainstInclusionOracle:
    """The faces read off minimal labels are the faces the pairwise
    inclusion tests keep, in the same presentation and order."""

    @pytest.mark.parametrize("name", FAMILIES)
    def test_same_faces_as_inclusion_tests(self, name):
        from valdim import verify

        for seed in range(3):
            for p in family(seed, **FAMILIES[name]):
                faces = [f.system for f in trop.trop_hypersurface(p).faces]
                assert faces == verify.maximal_faces_by_inclusion(p), p

    @pytest.mark.parametrize("name", FAMILIES)
    def test_one_elimination_per_pair_at_most(self, monkeypatch, name):
        from valdim.semilinear import elimination

        calls = []
        real = elimination._eliminate
        monkeypatch.setattr(
            elimination, "_eliminate", lambda rows, order: calls.append(1) or real(rows, order)
        )
        for p in family(7, **FAMILIES[name]):
            calls.clear()
            trop.trop_hypersurface(p)
            t = len(p.terms)
            assert len(calls) <= t * (t - 1) // 2


class TestPointOnTrop:
    def test_origin_triple_tie(self):
        assert trop.point_on_trop(LINE, (F(0), F(0)))

    def test_unique_minimum(self):
        assert not trop.point_on_trop(LINE, (F(-1), F(-2)))

    def test_single_term_never(self):
        p = trop.TropPoly((((1, 0), F(0)),))
        assert not trop.point_on_trop(p, (F(0), F(0)))


class TestPureDimension:
    def test_mixed_dimensions_fail(self):
        point = sl.BasicSet(
            (sl.LinearAtom((1, 0), "=", F(0)), sl.LinearAtom((0, 1), "=", F(0))),
            2,
        )
        segment = sl.BasicSet(
            (
                sl.LinearAtom((0, 1), "=", F(0)),
                sl.LinearAtom((-1, 0), "<=", F(-1)),
                sl.LinearAtom((1, 0), "<=", F(2)),
            ),
            2,
        )
        c = trop.PolyhedralComplex(
            (trop.Polyhedron.of(point), trop.Polyhedron.of(segment))
        )
        assert not trop.pure_dimension_check(c, 1)


class TestMonomialImage:
    def test_product_map_on_quadrant(self):
        dom = sl.parse_formula("x1 >= 0 & x2 >= 0")
        img = trop.trop_image_monomial(dom, trop.MonomialMap(((1, 1),)))
        for e in grid(-2, 2, 2):
            assert img.holds((e,)) == (e >= 0)
        assert sl.dimension(img) == 1 <= sl.dimension(dom)

    def test_triangular_map(self):
        dom = sl.parse_formula("x1 = 0 & x2 >= 0")
        img = trop.trop_image_monomial(dom, trop.MonomialMap(((1, 0), (1, 1))))
        assert sl.dimension(img) == 1
        assert img.holds((F(0), F(3))) and not img.holds((F(1), F(0)))

    def test_identity_interval(self):
        dom = sl.parse_formula("0 < x1 & x1 < 1")
        img = trop.trop_image_monomial(dom, trop.MonomialMap(((1,),)))
        assert sl.dimension(img) == 1
        ok, _ = sl.is_polyhedral(sl.closure(img))
        assert ok

    def test_compact_image_closed(self):
        dom = sl.parse_formula("0 <= x1 & x1 <= 1 & -1 <= x2 & x2 <= 2")
        img = trop.trop_image_monomial(dom, trop.MonomialMap(((2, -1), (1, 1))))
        cl = sl.closure(img)
        diff = sl.Or.of(
            sl.And.of(cl, sl.Not.of(img)), sl.And.of(img, sl.Not.of(cl))
        )
        assert all(sl.is_empty(b) for b in sl.normalize_dnf(diff))

    def test_arity_mismatch(self):
        with pytest.raises(SemanticError):
            trop.trop_image_monomial(
                sl.parse_formula("x1 >= 0"), trop.MonomialMap(((1, 1),))
            )

    def test_dimension_never_grows(self):
        dom = sl.parse_formula("0 < x1 & x1 < 1 & x2 = x1 & x3 = 0")
        mp = trop.MonomialMap(((1, 1, 0), (0, 1, 1), (1, 0, 1)))
        img = trop.trop_image_monomial(dom, mp)
        assert sl.dimension(img) <= sl.dimension(dom)


class TestJson:
    def test_complex_schema(self):
        data = trop.complex_to_json(trop.trop_hypersurface(LINE))
        assert len(data["faces"]) == 3
        for face in data["faces"]:
            assert face["dim"] == 1
            for con in face["constraints"]:
                assert set(con) == {"coeffs", "rel", "rhs"}
