import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valdim import semilinear as sl
from valdim import verify
from valdim.errors import ParseError, SemanticError
from valdim.lowerset import dim_nat, lower_closure, principal
from valdim.mixedcell import (
    INFINITY,
    AffineBijection,
    FactoredPoly,
    MixedAtom,
    MonomialValuation,
    PuiseuxElement,
    SwissPiece,
    apply_bijection,
    matom,
    mixed_cell_decompose,
    mixed_dimension,
    monomial_decompose,
    parse_mixed_formula,
    parse_puiseux,
    piece_formulas,
    piece_k_dimension,
    polys,
    project_to_gamma,
    valuation,
)

T = PuiseuxElement.of((1, 1))
ZERO = PuiseuxElement()
ONE = PuiseuxElement.constant(1)


def via_fibers(f):
    return verify.mixed_dimension_via_fibers(mixed_cell_decompose(f))


def pe(*terms):
    return PuiseuxElement.of(*terms)


class TestPuiseux:
    def test_valuation_examples(self):
        assert valuation(pe((F(1, 2), 2), (1, 1))) == F(1, 2)
        assert valuation(ZERO) is INFINITY
        assert valuation(pe((-1, 1), (0, 1))) == -1

    def test_arithmetic_cancels(self):
        a = pe((0, 1), (1, 2))
        b = pe((1, 2), (2, -1))
        assert (a - b).terms == ((F(0), F(1)), (F(2), F(1)))
        assert (a - a).is_zero()

    def test_infinity_order(self):
        assert F(100) < INFINITY
        assert not (INFINITY < INFINITY)
        assert INFINITY <= INFINITY

    def test_factored_poly_guards(self):
        with pytest.raises(ValueError):
            FactoredPoly(0, ())
        with pytest.raises(ValueError):
            FactoredPoly(1, ((ZERO, 1), (ZERO, 2)))
        with pytest.raises(ValueError):
            FactoredPoly(1, ((ZERO, 0),))

    def test_valuation_at(self):
        f = FactoredPoly(1, ((ZERO, 1), (T, 1)))
        x = pe((F(1, 2), 1))
        assert f.valuation_at(x) == F(1, 2) + F(1, 2)
        assert f.valuation_at(T) is INFINITY

    def test_distance_examples(self):
        a = pe((0, 1), (1, 2))
        assert a.distance(a) is INFINITY
        assert a.distance(pe((0, 1), (1, 3))) == 1
        assert a.distance(pe((0, 1))) == 1
        assert ZERO.distance(a) == 0
        assert a.distance(pe((-1, 5), (0, 1), (1, 2))) == -1

    @pytest.mark.parametrize(
        "build",
        [
            lambda: pe((0.1, 1)),
            lambda: pe((1, 0.5)),
            lambda: pe((True, 1)),
            lambda: PuiseuxElement(((F(0), 1.5),)),
            lambda: PuiseuxElement.constant(0.5),
            lambda: PuiseuxElement.constant("1/2"),
            lambda: FactoredPoly(1.5, ()),
            lambda: FactoredPoly(1, ((ONE, 1.9),)),
            lambda: FactoredPoly(1, ((ONE, True),)),
            lambda: FactoredPoly(1, ((0.5, 1),)),
        ],
    )
    def test_constructors_reject_inexact_data(self, build):
        with pytest.raises(TypeError):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: matom(0, None, (1.7,), "<", 0),
            lambda: matom(0, None, (1,), "<", 0.5),
            lambda: matom(1, FactoredPoly(1, ((T, 1),)), (0,), "<=", 1.5),
            lambda: MixedAtom(0, None, (1.5,), "<", F(0)),
            lambda: MixedAtom(0, None, (1,), "<", 0.5),
        ],
    )
    def test_atom_constructors_reject_floats(self, build):
        with pytest.raises(TypeError):
            build()

    def test_atom_constructors_accept_exact_data(self):
        [a] = matom(0, None, (2,), ">", "1/2").atoms()
        assert (a.gcoeffs, a.rel, a.rhs) == ((-2,), "<", F(-1, 2))
        a = MixedAtom(0, None, (True, 3), "=", 2)
        assert (a.gcoeffs, a.rhs) == ((1, 3), F(2))

    def test_matom_reads_double_equals_against_infinity(self):
        p = FactoredPoly(1, ((T, 1),))
        assert matom(1, p, (0,), "==", INFINITY) == matom(1, p, (0,), "=", INFINITY)
        assert matom(1, p, (0,), "==", 2) == matom(1, p, (0,), "=", 2)

    @pytest.mark.parametrize("rhs", [INFINITY, 1])
    @pytest.mark.parametrize("weight", [0, 1])
    def test_matom_rejects_unknown_relations(self, weight, rhs):
        p = FactoredPoly(1, ((T, 1),)) if weight else None
        with pytest.raises(ValueError, match="bad relation"):
            matom(weight, p, (1,), "<>", rhs)

    def test_constructors_accept_ints_and_fractions(self):
        assert pe((1, 2), (F(1, 2), F(-1))).terms == ((F(1, 2), F(-1)), (F(1), F(2)))
        f = FactoredPoly(F(3, 2), ((F(1, 2), 2), (T, 1)))
        assert str(f) == "3/2*(x - 1/2)^2*(x - t)"

    @pytest.mark.parametrize(
        "f, text",
        [
            (FactoredPoly(1, ((T, 1),)), "(x - t)"),
            (FactoredPoly(1, ((-T, 1),)), "(x + t)"),
            (FactoredPoly(1, ((ONE + T, 1),)), "(x - 1 - t)"),
            (FactoredPoly(1, ((T - ONE, 1),)), "(x + 1 - t)"),
            (FactoredPoly(-1, ((T, 1),)), "-1*(x - t)"),
            (FactoredPoly(F(-1, 2), ((ZERO, 2),)), "-1/2*(x)^2"),
            (FactoredPoly(3, ()), "3"),
            (FactoredPoly(F(-3, 2), ()), "-3/2"),
            (FactoredPoly(1, ()), "1"),
        ],
    )
    def test_factored_poly_prints_each_root_term_with_its_sign(self, f, text):
        assert str(f) == text
        [a] = parse_mixed_formula(f"v({text}) < 1", 0).atoms()
        assert a.poly == f


EXPONENTS = [F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(2)]
COEFFICIENTS = [F(-2), F(-1), F(-1, 2), F(1, 3), F(1), F(3)]
term_dicts = st.dictionaries(
    st.sampled_from(EXPONENTS), st.sampled_from(COEFFICIENTS), max_size=5
)


@st.composite
def dict_pairs(draw):
    """Two term dicts sharing exponents, often with equal coefficients."""
    a = draw(term_dicts)
    b = {e: c for e, c in a.items() if draw(st.booleans())}
    b.update(draw(st.dictionaries(st.sampled_from(EXPONENTS), st.sampled_from(COEFFICIENTS),
                                  max_size=2)))
    return (b, a) if draw(st.booleans()) else (a, b)


def element(d):
    return PuiseuxElement.of(*d.items())


def ref_sum(a, b, sign):
    """The terms of a + sign * b, computed on dicts."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return tuple(sorted((e, c) for e, c in out.items() if c))


def ref_valuation(terms):
    return terms[0][0] if terms else INFINITY


def is_canonical(x):
    exps = [e for e, _ in x.terms]
    return exps == sorted(set(exps)) and all(
        type(e) is F and type(c) is F and c != 0 for e, c in x.terms
    )


class TestPuiseuxArithmetic:
    @settings(max_examples=300, deadline=None)
    @given(dict_pairs())
    def test_distance_is_valuation_of_difference(self, pair):
        a, b = pair
        assert element(a).distance(element(b)) == ref_valuation(ref_sum(a, b, -1))

    @settings(max_examples=300, deadline=None)
    @given(dict_pairs())
    def test_sum_difference_and_negation(self, pair):
        a, b = pair
        x, y = element(a), element(b)
        for got, want in (
            (x + y, ref_sum(a, b, 1)),
            (x - y, ref_sum(a, b, -1)),
            (-x, ref_sum({}, a, -1)),
        ):
            assert got.terms == want and is_canonical(got)
            assert got == PuiseuxElement(want) and hash(got) == hash(PuiseuxElement(want))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(term_dicts, st.integers(1, 3)), min_size=1, max_size=4),
           st.integers(0, 3), term_dicts, st.booleans())
    def test_valuation_at_matches_term_by_term(self, roots, pick, change, perturb):
        distinct = {}
        for d, m in roots:
            distinct.setdefault(tuple(sorted(d.items())), (d, m))
        roots = list(distinct.values())
        # x is a root, or a root with some terms replaced, so distances vary
        x = dict(roots[pick % len(roots)][0])
        if perturb:
            x.update(change)
        f = FactoredPoly(1, tuple((element(d), m) for d, m in roots))
        want = F(0)
        for d, m in roots:
            v = ref_valuation(ref_sum(x, d, -1))
            if v is INFINITY:
                want = INFINITY
                break
            want += m * v
        assert f.valuation_at(element(x)) == want

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(COEFFICIENTS),
           st.lists(st.tuples(term_dicts, st.integers(1, 3)), min_size=0, max_size=3))
    def test_printed_factored_poly_reads_back(self, lead, roots):
        distinct = {}
        for d, m in roots:
            distinct.setdefault(tuple(sorted(d.items())), (d, m))
        f = FactoredPoly(lead, tuple((element(d), m) for d, m in distinct.values()))
        [a] = parse_mixed_formula(f"v({f}) < 1", 0).atoms()
        assert a.poly == f

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(EXPONENTS), st.sampled_from(COEFFICIENTS)),
                    max_size=6))
    def test_of_sums_repeated_exponents(self, pairs):
        acc = {}
        for e, c in pairs:
            acc[e] = acc.get(e, 0) + c
        x = PuiseuxElement.of(*pairs)
        assert x.terms == ref_sum(acc, {}, 1) and is_canonical(x)

    @settings(max_examples=300, deadline=None)
    @given(term_dicts)
    def test_parse_round_trip(self, d):
        e = element(d)
        assert parse_puiseux(str(e)) == e


class TestMonomialDecompose:
    def sample_many(self, rng, pieces, count=100):
        pts = []
        for piece, _ in pieces:
            pts.append(piece.sample())
        while len(pts) < count:
            terms = [
                (F(rng.randint(-2, 6), rng.choice([1, 2])), F(rng.randint(-3, 3)))
                for _ in range(rng.randint(0, 3))
            ]
            pts.append(PuiseuxElement.of(*terms))
        return pts[:count]

    def check_oracle(self, polys, pieces, points):
        for x in points:
            hits = [(p, v) for p, v in pieces if p.contains(x)]
            assert len(hits) == 1, f"{x} lies in {len(hits)} pieces"
            piece, vals = hits[0]
            rho = piece.rho_of(x)
            for f, mv in zip(polys, vals):
                assert f.valuation_at(x) == mv.value(rho)

    def test_quadratic_with_roots_zero_and_t(self):
        f = FactoredPoly(1, ((ZERO, 1), (T, 1)))
        pieces = monomial_decompose([f])
        index = {
            (p.kind, p.lo, p.hi, p.radius): v[0] for p, v in pieces
        }
        # far annulus: slope 2
        outer = index[("annulus", None, F(1), None)]
        assert (outer.const, outer.slope) == (F(0), 2)
        # inner ball around 0 minus the point: slope 1, constant 1
        inner = index[("annulus", F(1), None, None)]
        assert (inner.const, inner.slope) == (F(1), 1)
        # generic sphere at the critical radius: value 2
        sphere = index[("sphere", None, None, F(1))]
        assert sphere.value(F(1)) == F(2)
        rng = random.Random(7)
        self.check_oracle([f], pieces, self.sample_many(rng, pieces))

    def test_single_linear(self):
        f = FactoredPoly(1, ((ZERO, 1),))
        pieces = monomial_decompose([f])
        kinds = sorted(p.kind for p, _ in pieces)
        assert kinds == ["annulus", "points"]
        annulus = next(v for p, v in pieces if p.kind == "annulus")
        assert (annulus[0].const, annulus[0].slope) == (F(0), 1)

    def test_translation_invariance(self):
        f = FactoredPoly(1, ((ZERO, 1), (T, 1)))
        g = FactoredPoly(1, ((ONE, 1), (ONE + T, 1)))
        pf = monomial_decompose([f])
        pg = monomial_decompose([g])
        rng = random.Random(11)
        points = self.sample_many(rng, pf)
        for x in points:
            assert g.valuation_at(x + ONE) == f.valuation_at(x)
        self.check_oracle([g], pg, [x + ONE for x in points])
        # inside the root cluster (radius >= 1) the translated pieces keep
        # their shape and valuations; outside, tracking 0 refines g's line
        def cluster_pieces(pieces, centers):
            rows = []
            for p, v in pieces:
                if p.kind == "sphere" and p.center in centers and p.radius >= 1:
                    rows.append(("sphere", str(p.radius), v))
                elif p.kind == "annulus" and p.center in centers and p.lo is not None and p.lo >= 1:
                    rows.append(("annulus", f"{p.lo}:{p.hi}", v))
            return sorted(rows)

        assert cluster_pieces(pf, {ZERO, T}) == cluster_pieces(pg, {ONE, ONE + T})

    def test_multiple_polys_share_pieces(self):
        f = FactoredPoly(1, ((ZERO, 2),))
        g = FactoredPoly(3, ((T, 1), (pe((2, 1)), 1)))
        pieces = monomial_decompose([f, g])
        rng = random.Random(13)
        self.check_oracle([f, g], pieces, self.sample_many(rng, pieces))


def reference_monomial_decompose(polys):
    """The line split as first written: by center keys, with per-piece lookups.

    Each center keeps a dict of its distances to the others; a piece is
    emitted from the least-key center of the cluster that reaches it, and
    each valuation walks the roots of each polynomial.  The pieces are
    sorted at the end by (center key, point < sphere < annulus, radii).
    """
    centers = {ZERO.key(): ZERO}
    for f in polys:
        for r, _ in f.roots:
            centers[r.key()] = r
    clist = sorted(centers.values(), key=PuiseuxElement.key)

    def valuations(c, dist_of, hi, sphere_at=None):
        out = []
        for f in polys:
            slope, const = 0, F(0)
            for r, m in f.roots:
                if r == c:
                    slope += m
                    continue
                d = dist_of[r.key()]
                if sphere_at is not None:
                    if d > sphere_at:
                        slope += m
                    else:
                        const += m * d
                elif hi is not None and d >= hi:
                    slope += m
                else:
                    const += m * d
            out.append(MonomialValuation(const, slope))
        return tuple(out)

    out = []
    for c in clist:
        dist_of = {o.key(): c.distance(o) for o in clist if o != c}
        radii = sorted(set(dist_of.values()))

        def least_of_cluster(threshold):
            cluster = [c] + [o for o in clist if o != c and dist_of[o.key()] >= threshold]
            return min(cluster, key=PuiseuxElement.key)

        edges = [None, *radii, None]
        for lo, hi in zip(edges, edges[1:]):
            if hi is None or least_of_cluster(hi) == c:
                out.append((SwissPiece("annulus", center=c, lo=lo, hi=hi),
                            valuations(c, dist_of, hi)))
        for r in radii:
            if least_of_cluster(r) == c:
                avoid = tuple(o for o in clist if o != c and dist_of[o.key()] == r)
                out.append((SwissPiece("sphere", center=c, radius=r, avoid=avoid),
                            valuations(c, dist_of, None, sphere_at=r)))
        out.append((SwissPiece("points", elements=(c,)), valuations(c, dist_of, None)))

    def sort_key(pv):
        p = pv[0]
        if p.kind == "points":
            return (p.elements[0].key(), 0, ())
        if p.kind == "sphere":
            return (p.center.key(), 1, (p.radius,))
        return (p.center.key(), 2, (p.lo is None, p.lo, p.hi is None, p.hi))

    return sorted(out, key=sort_key)


# Few exponents and coefficients, so roots share terms: many centers lie
# at equal distances from one another (spheres with several avoided
# branches), and roots with positive exponents only are t-adically close
# to 0.
root_dicts = st.dictionaries(
    st.sampled_from([F(0), F(1, 2), F(1), F(2)]), st.sampled_from([F(-1), F(1), F(2)]),
    max_size=3,
)


@st.composite
def shared_root_polys(draw):
    """One to three polynomials whose roots come from one small shared pool."""
    pool = draw(st.lists(root_dicts, min_size=1, max_size=6, unique_by=lambda d: tuple(sorted(d.items()))))
    out = []
    for _ in range(draw(st.integers(1, 3))):
        picked = draw(st.lists(st.sampled_from(range(len(pool))), max_size=4, unique=True))
        roots = tuple((element(pool[i]), draw(st.integers(1, 3))) for i in picked)
        out.append(FactoredPoly(draw(st.sampled_from([1, -2, F(1, 3)])), roots))
    return out


class TestMonomialDecomposeAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(shared_root_polys())
    def test_same_pieces_in_same_order(self, polys_):
        assert monomial_decompose(polys_) == reference_monomial_decompose(polys_)

    def test_equidistant_centers(self):
        # 0, t and 2t are pairwise at distance 1: the sphere of radius 1
        # around 0 avoids both others, and 0 owns every piece at radius <= 1.
        polys_ = [FactoredPoly(1, ((T, 1), (T + T, 2))), FactoredPoly(3, ((ZERO, 1),))]
        pieces = monomial_decompose(polys_)
        assert pieces == reference_monomial_decompose(polys_)
        [sphere] = [p for p, _ in pieces if p.kind == "sphere"]
        assert (sphere.center, sphere.radius, sphere.avoid) == (ZERO, F(1), (T, T + T))

    def test_no_polynomials(self):
        pieces = monomial_decompose([])
        assert pieces == reference_monomial_decompose([])
        assert [p.kind for p, _ in pieces] == ["points", "annulus"]


class TestPieceFormulas:
    def test_equal_polynomials_that_are_distinct_objects(self):
        # Two atoms on equal polynomials built separately: the engine
        # tracks one polynomial, and each atom reads its valuation.
        p1 = FactoredPoly(1, ((ZERO, 1), (T, 1)))
        p2 = FactoredPoly(1, ((ZERO, 1), (T, 1)))
        assert p1 == p2 and p1 is not p2
        f = matom(1, p1, (1,), "<", 2) & matom(-1, p2, (0,), "<", 0) | matom(
            1, p2, (0,), "=", INFINITY
        )
        assert polys(f) == [p1]
        shared = matom(1, p1, (1,), "<", 2) & matom(-1, p1, (0,), "<", 0) | matom(
            1, p1, (0,), "=", INFINITY
        )
        assert piece_formulas(f) == piece_formulas(shared)
        gammas = [(F(k, 2),) for k in range(-4, 7)]
        for piece, g in piece_formulas(f):
            x = piece.sample()
            for gamma in gammas:
                point = gamma if piece.kind == "points" else (piece.rho_of(x), *gamma)
                assert g.holds(point) == f.holds(x, gamma), (piece, gamma)


class TestPieceKDimension:
    def test_point_list(self):
        pieces = monomial_decompose([FactoredPoly(1, ((ZERO, 1), (T, 1)))])
        for p, _ in pieces:
            expected = 0 if p.kind == "points" else 1
            assert piece_k_dimension(p) == expected


class TestMixedParser:
    def test_valuation_atom(self):
        f = parse_mixed_formula("v((x)*(x - t)) + 2*g1 <= 3/2", 1)
        assert f.arity == 1

    def test_bare_linear_factor(self):
        f = parse_mixed_formula("v(x - 1 - t) >= 1", 0)
        [atom] = f.atoms()
        assert atom.poly.roots[0][0] == ONE + T

    def test_constant_polynomial(self):
        f = parse_mixed_formula("v(3) < 1 & v(-1/2) >= 0", 0)
        assert {a.poly for a in f.atoms()} == {FactoredPoly(3, ()), FactoredPoly(F(-1, 2), ())}
        assert f.holds(ZERO, ()) and f.holds(T, ())
        assert not parse_mixed_formula("v(3) > 0", 0).holds(T, ())

    def test_zero_test_inf(self):
        f = parse_mixed_formula("v(x) = inf", 1)
        assert f.holds(ZERO, (F(0),)) and not f.holds(T, (F(0),))

    def test_two_polys_rejected(self):
        with pytest.raises(SemanticError):
            parse_mixed_formula("v(x) < v(x - 1)", 0)

    def test_inf_must_stand_alone(self):
        with pytest.raises(ParseError):
            parse_mixed_formula("v(x) < inf + 1", 0)

    @pytest.mark.parametrize("text", ["v(x) < 1*inf", "v(x) < 2*inf", "v(x) < -inf"])
    def test_inf_takes_no_coefficient_or_sign(self, text):
        with pytest.raises(ParseError):
            parse_mixed_formula(text, 0)

    def test_weights_fold(self):
        f = parse_mixed_formula("2*v(x) - v(x) < 1", 0)
        [atom] = f.atoms()
        assert atom.weight == 1


class TestMixedCells:
    def test_graph_over_annulus(self):
        f = parse_mixed_formula("g1 = v(x) & 0 < v(x) & v(x) < 1", 1)
        cells = mixed_cell_decompose(f)
        assert len(cells) == 1
        c = cells[0]
        assert c.kdim == 1 and c.gamma_signature == (0,)
        assert c.dim_pair() == (1, 0)

    def test_product_cell(self):
        f = parse_mixed_formula("v(x) >= 0 & 0 < g1 & g1 < 1", 1)
        dims = {c.dim_pair() for c in mixed_cell_decompose(f)}
        assert max(dims) == (1, 1)
        assert mixed_dimension(f) == principal((1, 1))

    def test_point_base_full_fiber(self):
        f = parse_mixed_formula("v(x) = inf", 1)
        assert mixed_dimension(f) == principal((0, 1))

    def test_partition_on_samples(self):
        f = parse_mixed_formula(
            "(v(x - t) > 1 & g1 <= v(x)) | (g1 = 0 & v(x) < 0)", 1
        )
        cells = mixed_cell_decompose(f)
        rng = random.Random(3)
        xs = [ZERO, T, ONE, T + pe((2, 1)), pe((-1, 1)), pe((F(3, 2), 1))]
        while len(xs) < 40:
            terms = [
                (F(rng.randint(-2, 4), rng.choice([1, 2])), F(rng.randint(-2, 2)))
                for _ in range(rng.randint(0, 2))
            ]
            xs.append(PuiseuxElement.of(*terms))
        for x in xs:
            for g in ([F(0)], [F(1)], [F(-1, 2)], [F(2)]):
                inside = [c for c in cells if c.contains(x, tuple(g))]
                assert len(inside) == (1 if f.holds(x, tuple(g)) else 0)

    def test_cell_samples_members(self):
        f = parse_mixed_formula("g1 <= v(x) & v(x - t) = 1 & g1 > -2", 1)
        for c in mixed_cell_decompose(f):
            x, gamma = c.sample()
            assert c.contains(x, gamma)
            assert f.holds(x, gamma)


class TestMixedDimension:
    def test_hesitation_example(self):
        f = parse_mixed_formula(
            "(v(x - 1) = inf & 0 < g1 & g1 < 1 & 0 < g2 & g2 < 1)"
            " | (v(x) >= 0 & g1 = 0 & g2 = 0)",
            2,
        )
        d = mixed_dimension(f)
        assert d.maxima == ((0, 2), (1, 0))
        assert dim_nat(d) == 2
        assert via_fibers(f) == d

    def test_full_space(self):
        f = parse_mixed_formula("v(x) >= 0 & g1 = g1 & g2 = g2", 2)
        assert mixed_dimension(f) == principal((1, 2))

    def test_empty(self):
        f = parse_mixed_formula("v(x) < 0 & v(x) > 0", 1)
        assert mixed_dimension(f).is_empty()

    def test_fiber_route_agrees(self):
        f = parse_mixed_formula("g1 < v(x) & v(x) < 1 & g1 > -1", 1)
        assert mixed_dimension(f) == via_fibers(f)


class TestProjectToGamma:
    def test_graph_projects_to_interval(self):
        f = parse_mixed_formula("g1 = v(x) & 0 < v(x) & v(x) < 1", 1)
        p = project_to_gamma(f)
        for g in [F(-1), F(0), F(1, 2), F(1), F(2)]:
            assert p.holds((g,)) == (0 < g < 1)
        assert sl.dimension(p) == 1  # one more than the fiber dimension 0

    def test_equal_coordinates(self):
        f = parse_mixed_formula("g1 = v(x) & g2 = v(x)", 2)
        p = project_to_gamma(f)
        assert sl.dimension(p) == 1
        assert p.holds((F(5), F(5))) and not p.holds((F(1), F(2)))

    def test_pinned_radius(self):
        f = parse_mixed_formula("v(x) = 0 & g1 = v(x)", 1)
        p = project_to_gamma(f)
        assert sl.dimension(p) == 0
        assert p.holds((F(0),)) and not p.holds((F(1),))


SWAP = ((0, 1), (1, 0))
SHEAR = ((1, 1), (0, 1))
EYE2 = ((1, 0), (0, 1))


@st.composite
def unimodular(draw, n):
    """A product of integer row additions, row swaps and sign flips."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(["add", "swap", "flip"]))
        if op == "add" and i != j:
            k = draw(st.integers(-2, 2))
            m[i] = [a + k * b for a, b in zip(m[i], m[j])]
        elif op == "swap":
            m[i], m[j] = m[j], m[i]
        elif op == "flip":
            m[i] = [-a for a in m[i]]
    return tuple(tuple(row) for row in m)


class TestBijections:
    def setup_method(self):
        self.f = parse_mixed_formula("g1 = v(x) & g2 <= 2*v(x) & 0 < v(x)", 2)
        self.dim = mixed_dimension(self.f)

    def test_swap(self):
        g = apply_bijection(
            parse_mixed_formula("g1 = v(x)", 2), AffineBijection(SWAP, (0, 0), ZERO)
        )
        [atom] = g.atoms()
        assert atom.gcoeffs == (0, 1)

    def test_k_translation(self):
        g = apply_bijection(
            parse_mixed_formula("v(x) = 0", 0), AffineBijection((), (), T)
        )
        [atom] = g.atoms()
        assert atom.poly.roots[0][0] == -T  # v(x + t) = 0

    def test_gamma_translation(self):
        f = parse_mixed_formula("0 < g1 & g1 < 1", 1)
        g = apply_bijection(f, AffineBijection(((1,),), (F(1),), ZERO))
        assert g.holds(ZERO, (F(3, 2),)) and not g.holds(ZERO, (F(1, 2),))

    def test_invariance(self):
        for b in (
            AffineBijection(SWAP, (0, 0), ZERO),
            AffineBijection(EYE2, (F(1), F(-1, 2)), ZERO),
            AffineBijection(SHEAR, (0, 0), ZERO),
            AffineBijection(EYE2, (0, 0), T),
        ):
            assert mixed_dimension(apply_bijection(self.f, b)) == self.dim

    def test_non_unimodular_rejected(self):
        for matrix in (((2, 0), (0, 1)), ((1, 2), (2, 1))):  # determinants 2 and -3
            with pytest.raises(SemanticError):
                apply_bijection(self.f, AffineBijection(matrix, (0, 0), ZERO))

    @pytest.mark.parametrize(
        "matrix, offsets",
        [
            (((1, 1), (1, 1)), (0, 0)),  # singular
            (((0, 0), (0, 0)), (0, 0)),  # singular
            (((1, 0),), (0, 0)),  # not square
            (((1, 0), (0,)), (0, 0)),  # ragged
            (((1,),), (0,)),  # one coordinate of two
            (((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0)),  # three of two
            (EYE2, (0,)),  # offsets too short
        ],
    )
    def test_singular_or_misshaped_rejected(self, matrix, offsets):
        with pytest.raises(SemanticError):
            apply_bijection(self.f, AffineBijection(matrix, offsets, ZERO))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 3), st.integers(0, 2**32))
    def test_image_is_the_moved_set(self, data, n, seed):
        rng = random.Random(seed)
        polys = [verify.random_factored_poly(rng, 3) for _ in range(rng.randint(1, 2))]
        f = verify.random_mixed_formula(rng, n, polys)
        u = data.draw(unimodular(n))
        d = tuple(verify.random_rational(rng, -2, 2) for _ in range(n))
        shift = verify.random_puiseux(rng)
        g = apply_bijection(f, AffineBijection(u, d, shift))
        xs = [r for p in polys for r, _ in p.roots]
        xs += [verify.random_puiseux(rng, 3) for _ in range(4)]
        for x in xs:
            for _ in range(4):
                gamma = tuple(verify.random_rational(rng, -3, 3) for _ in range(n))
                moved = tuple(
                    sum(a * b for a, b in zip(row, gamma)) + o for row, o in zip(u, d)
                )
                assert f.holds(x, gamma) == g.holds(x - shift, moved)
        assert mixed_dimension(g) == mixed_dimension(f)


class TestMixedDimensionWithoutCells:
    @staticmethod
    def via_cells(f):
        return lower_closure({c.dim_pair() for c in mixed_cell_decompose(f)})

    @pytest.mark.parametrize(
        "text, n, maxima",
        [
            ("v(x) < 0 & v(x) > 0", 1, ()),
            ("v(x - 1) = inf & g1 <= 0 & g1 >= 0", 1, ((0, 0),)),
            ("v(x - 1) = inf & g1 < g2", 2, ((0, 2),)),
            ("v(x) = 1 & g1 <= v(x) & v(x) <= g1", 1, ((1, 0),)),
            ("g1 <= v(x) & g2 <= g1 & v(x) <= g2", 2, ((1, 0),)),
            ("0 < v(x) & v(x) < 1 & g1 < v(x) & g2 = g1", 2, ((1, 1),)),
            ("v(x) >= 0 & g1 = g1 & g2 = g2", 2, ((1, 2),)),
            ("!(v(x - 1) != inf)", 1, ((0, 1),)),
            ("!(v(x - 1) != inf)", 2, ((0, 2),)),
        ],
    )
    def test_edge_cases(self, text, n, maxima):
        f = parse_mixed_formula(text, n)
        d = mixed_dimension(f)
        assert d.maxima == maxima
        assert d == self.via_cells(f) == via_fibers(f)

    def test_agrees_with_cells_on_seeded_formulas(self):
        from valdim import verify

        rng = random.Random(11)
        for _ in range(30):
            n = rng.choice([1, 1, 2])
            polys = [verify.random_factored_poly(rng, rng.randint(1, 2))]
            f = verify.random_mixed_formula(rng, n, polys)
            d = mixed_dimension(f)
            assert d == self.via_cells(f) == via_fibers(f)

    def test_builds_no_cells(self, no_cells):
        f = parse_mixed_formula("(g1 = v(x) & 0 < v(x)) | (v(x - t) = inf & g1 < 0)", 1)
        assert mixed_dimension(f).maxima == ((0, 1), (1, 0))
        with pytest.raises(AssertionError):
            mixed_cell_decompose(f)


class TestDimensionLaws:
    def test_union_is_join(self):
        from valdim.lowerset import join
        from valdim.boolean import Or

        f = parse_mixed_formula("g1 = v(x) & 0 < v(x) & v(x) < 1", 1)
        g = parse_mixed_formula("v(x - t) = inf & g1 < 0", 1)
        u = Or.of(f, g)
        assert mixed_dimension(u) == join(mixed_dimension(f), mixed_dimension(g))

    def test_random_unions(self):
        from valdim import verify
        from valdim.lowerset import join
        from valdim.boolean import Or

        rng = random.Random(42)
        for _ in range(10):
            polys = [verify.random_factored_poly(rng, 3)]
            f = verify.random_mixed_formula(rng, 1, polys)
            g = verify.random_mixed_formula(rng, 1, polys)
            assert mixed_dimension(Or.of(f, g)) == join(
                mixed_dimension(f), mixed_dimension(g)
            )

    def test_group_block_product_adds(self):
        # appending an independent block of group coordinates adds its
        # dimension to the group component
        from valdim.lowerset import add, principal
        from valdim.boolean import And

        f = parse_mixed_formula("g1 = v(x) & 0 < v(x) & v(x) < 1", 3)
        block = parse_mixed_formula("0 < g2 & g2 < 1 & g3 = 0", 3)
        product = And.of(f, block)
        assert mixed_dimension(product) == add(
            mixed_dimension(parse_mixed_formula("g1 = v(x) & 0 < v(x) & v(x) < 1", 1)),
            principal((0, 1)),
        )


class TestProjectToGammaPointwise:
    """project_to_gamma must agree with an existential over concrete
    valued points.  Per piece the candidate radii are the translated
    atoms' breakpoints inside the window plus midpoints and one point
    toward each end; a member of the piece at each candidate radius
    decides the existential by direct evaluation of the mixed formula,
    independent of the elimination path."""

    def _exists_x(self, f, gamma):
        from valdim.mixedcell.engine import piece_formulas

        n = f.arity
        for piece, g in piece_formulas(f):
            if piece.kind in ("points", "sphere"):
                if f.holds(piece.sample(), gamma):
                    return True
                continue
            values = set()
            for atom in g.atoms():
                c = atom.coeffs[0]
                if c == 0:
                    continue
                rest = sum(atom.coeffs[1 + i] * gamma[i] for i in range(n))
                rho = (atom.rhs - rest) / c
                if (piece.lo is None or piece.lo < rho) and (
                    piece.hi is None or rho < piece.hi
                ):
                    values.add(rho)
            ordered = sorted(values)
            cands = list(ordered)
            cands.extend((a + b) / 2 for a, b in zip(ordered, ordered[1:]))
            if ordered:
                first, last = ordered[0], ordered[-1]
                cands.append(first - 1 if piece.lo is None else (piece.lo + first) / 2)
                cands.append(last + 1 if piece.hi is None else (last + piece.hi) / 2)
            else:
                cands.append(None)  # any interior point decides the window
            for rho in cands:
                if rho is not None and (
                    (piece.lo is not None and rho <= piece.lo)
                    or (piece.hi is not None and rho >= piece.hi)
                ):
                    continue
                x = piece.sample() if rho is None else piece.sample(rho=rho)
                if f.holds(x, gamma):
                    return True
        return False

    def test_agreement_on_gamma_grid(self):
        from valdim import semilinear as sl

        formulas = [
            parse_mixed_formula("g1 = v(x) & 0 < v(x) & v(x) < 1", 1),
            parse_mixed_formula("2*v(x - t) <= g1 & v(x) < 2", 1),
            parse_mixed_formula("(v(x) = inf & g1 < 0) | g1 = v(x - 1)", 1),
        ]
        grid = [F(i, 4) for i in range(-8, 9)]
        for f in formulas:
            p = project_to_gamma(f)
            for g in grid:
                assert p.holds((g,)) == self._exists_x(f, (g,)), (f, g)


class TestOpenCells:
    """A mixed cell is open in the product exactly when its dimension pair
    is (1, n): open pieces are clopen in the valued line, and the gamma
    fiber must be an open box.  Certified at sample points with exact
    perturbation sizes computed from the cell data."""

    def _epsilon(self, cell, x, gamma):
        eps = F(1)
        point = (cell.piece.rho_of(x), *gamma) if cell.piece.kind != "points" else gamma
        for k, (i, spec) in enumerate(zip(cell.fiber.signature, cell.fiber.bounds)):
            if i == 0:
                continue
            lo, hi = spec
            prefix = point[:k]
            if not isinstance(lo, str) and hasattr(lo, "value"):
                eps = min(eps, (point[k] - lo.value(prefix)) / 2)
            if not isinstance(hi, str) and hasattr(hi, "value"):
                eps = min(eps, (hi.value(prefix) - point[k]) / 2)
        return eps

    def test_openness_matches_dimension_pair(self):
        formulas = [
            ("v(x) >= 0 & 0 < g1 & g1 < 1", 1),
            ("g1 = v(x) & 0 < v(x) & v(x) < 1", 1),
            ("v(x) = inf & 0 < g1 & g1 < 1", 1),
            ("v(x - t) = 1 & -1 < g1 & g1 < 1", 1),
        ]
        for text, n in formulas:
            f = parse_mixed_formula(text, n)
            for cell in mixed_cell_decompose(f):
                x, gamma = cell.sample()
                should_be_open = cell.dim_pair() == (1, n)
                eps = self._epsilon(cell, x, gamma)
                stays = True
                for j in range(n):
                    for sign in (1, -1):
                        moved = tuple(
                            g + (sign * eps if k == j else 0)
                            for k, g in enumerate(gamma)
                        )
                        stays = stays and cell.contains(x, moved)
                # a deep valued perturbation never leaves a non-point piece
                deep = x + pe((F(50), F(1)))
                stays = stays and cell.contains(deep, gamma)
                assert stays == should_be_open


class TestProjectionBounds:
    def test_per_cell_bound(self):
        f = parse_mixed_formula(
            "(g1 < v(x) & v(x) < g1 + 1) | (v(x - t) > 2 & g1 = 0)", 1
        )
        for c in mixed_cell_decompose(f):
            d = sum(c.gamma_signature)
            limit = d + 1 if c.kdim == 1 else d
            pd = sl.dimension(c.gamma_projection())
            assert pd <= limit

    def test_shift_bound(self):
        from valdim.lowerset import shift_closure

        f = parse_mixed_formula("g1 = v(x) & g2 = v(x - t)", 2)
        pd = sl.dimension(project_to_gamma(f))
        assert pd <= dim_nat(shift_closure(mixed_dimension(f)))
