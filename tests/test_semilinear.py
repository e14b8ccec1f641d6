import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valdim import semilinear as sl
from valdim.errors import ParseError, SemanticError
from valdim.lowerset import NEG_INF
from valdim.semilinear.cells import arrangement


def grid(lo, hi, denom):
    return [F(i, denom) for i in range(lo * denom, hi * denom + 1)]


def dnf_atoms(f):
    return [[str(a) for a in b.atoms] for b in sl.normalize_dnf(f)]


def cell_dimension(f):
    """The dimension as the largest signature of a cell decomposition."""
    return max((c.dimension() for c in sl.cell_decompose(f)), default=NEG_INF)


class TestParser:
    def test_conjunction(self):
        f = sl.parse_formula("x1 < x2 & x2 <= 1")
        assert isinstance(f, sl.And) and len(f.parts) == 2
        assert f.arity == 2

    def test_negated_equality(self):
        f = sl.parse_formula("!(2*x1 - x2 = 0)")
        assert isinstance(f, sl.Not)
        assert f.holds((F(1), F(1))) and not f.holds((F(1), F(2)))

    def test_disjunction(self):
        f = sl.parse_formula("x1 < 1 | x1 > 3")
        assert isinstance(f, sl.Or)

    def test_rational_constants(self):
        f = sl.parse_formula("2*x1 <= 3/2")
        assert f.holds((F(3, 4),)) and not f.holds((F(7, 8),))

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            sl.parse_formula("x1 < ")
        assert err.value.position is not None

    def test_unknown_variable(self):
        with pytest.raises(SemanticError):
            sl.parse_formula("x1 < x5", arity=2)

    def test_non_integer_coefficient(self):
        with pytest.raises(ParseError):
            sl.parse_formula("1/2*x1 < 1")

    def test_exists_sugar(self):
        f = sl.parse_formula("exists x2 (x1 < x2 & x2 <= 1)")
        assert f.arity == 2
        assert f.holds((F(0), F(99))) and not f.holds((F(1), F(0)))


class TestExactAtoms:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: sl.atom((1.5,), "<", 1),
            lambda: sl.atom((1,), "<", 1.5),
            lambda: sl.atom((1, 0.0), "!=", 0),
            lambda: sl.LinearAtom((1.7,), "<", 0),
            lambda: sl.LinearAtom((1,), "<=", 0.5),
        ],
    )
    def test_floats_rejected(self, build):
        with pytest.raises(TypeError):
            build()

    def test_exact_data_accepted(self):
        [a] = sl.atom((2, True), ">=", "1/2").atoms()
        assert (a.coeffs, a.rel, a.rhs) == ((-2, -1), sl.LE, F(-1, 2))
        a = sl.LinearAtom((3,), sl.LT, F(3, 2))
        assert (a.coeffs, a.rhs) == ((1,), F(1, 2))


class TestNormalizeDnf:
    def test_single_atom(self):
        assert len(sl.normalize_dnf(sl.parse_formula("x1 < 1"))) == 1

    def test_two_disjuncts(self):
        assert len(sl.normalize_dnf(sl.parse_formula("x1 = 0 | x1 = 1"))) == 2

    def test_negation_covers_line(self):
        f = sl.parse_formula("!(x1 < 0 & x1 > 1)")
        union = sl.Or.of(*[b.to_formula() for b in sl.normalize_dnf(f)])
        for x in grid(-2, 2, 4):
            assert union.holds((x,)) == f.holds((x,)) == True  # noqa: E712

    def test_empty_disjuncts_pruned(self):
        f = sl.parse_formula("(x1 < 0 & x1 > 0) | x1 = 5")
        assert len(sl.normalize_dnf(f)) == 1


class TestEmptiness:
    def test_contradictory_pair(self):
        b = sl.normalize_dnf(sl.parse_formula("x1 < 0 & x1 >= 0"), 1)
        assert b == []

    def test_strict_cycle(self):
        system = sl.BasicSet(
            tuple(
                a.atom
                for a in [sl.atom((1, -1), "<", 0), sl.atom((-1, 1), "<", 0)]
            ),
            2,
        )
        assert sl.is_empty(system)

    def test_narrow_band_feasible_with_witness(self):
        b = sl.normalize_dnf(sl.parse_formula("x1 < x2 & x2 < x1 + 1"))[0]
        assert not sl.is_empty(b)
        w = sl.sample_point(b)
        assert w is not None and b.holds(w)


class TestProject:
    def test_transitivity(self):
        f = sl.parse_formula("x1 < x2 & x2 < 1")
        assert dnf_atoms(sl.project(f, [0])) == [["x1 < 1"]]

    def test_divisibility(self):
        f = sl.parse_formula("2*x2 = x1")
        p = sl.project(f, [0])
        assert sl.normalize_dnf(p)[0].atoms == ()

    def test_sandwich_equality(self):
        f = sl.parse_formula("x1 <= x2 & x2 <= x1 & x2 < 0")
        p = sl.project(f, [0])
        for x in grid(-2, 2, 4):
            assert p.holds((x,)) == (x < 0)

    def test_projection_of_empty(self):
        f = sl.parse_formula("x1 < 0 & x1 > 0")
        p = sl.project(f, [0])
        assert isinstance(p, sl.Bool) and not p.value

    def test_project_basic_empty_contract(self):
        # contradiction purely among kept coordinates must still yield None
        b = sl.BasicSet(
            (
                sl.LinearAtom((0, 1, 0), "<", F(0)),
                sl.LinearAtom((0, 1, 0), "=", F(0)),
            ),
            3,
        )
        assert sl.project_basic(b, [0, 1]) is None

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError):
            sl.parse_formula("x1 < 1/0")


class TestOneVarCanonical:
    def test_interval_and_point(self):
        t = sl.one_var_canonical(sl.parse_formula("(0 < x1 & x1 < 1) | x1 = 2"))
        assert (t.M, t.N) == (1, 1)
        assert t.boundary == (F(0), F(1), F(2))

    def test_half_line(self):
        t = sl.one_var_canonical(sl.parse_formula("x1 <= 0"))
        assert (t.M, t.N) == (1, 0)
        assert t.intervals == ((None, False, F(0), True),)

    def test_punctured_ray(self):
        t = sl.one_var_canonical(sl.parse_formula("x1 < 1 & !(x1 = 0)"))
        assert (t.M, t.N) == (2, 0)
        assert t.intervals == (
            (None, False, F(0), False),
            (F(0), False, F(1), False),
        )

    def test_merging_adjacent_pieces(self):
        t = sl.one_var_canonical(sl.parse_formula("x1 < 0 | x1 = 0 | (0 < x1 & x1 < 1)"))
        assert (t.M, t.N) == (1, 0)
        assert t.intervals == ((None, False, F(1), False),)

    def test_arity_guard(self):
        with pytest.raises(ValueError):
            sl.one_var_canonical(sl.parse_formula("x1 < x2"))

    @pytest.mark.parametrize(
        "text, intervals",
        [("true", ((None, False, None, False),)), ("0 < 1", ((None, False, None, False),)),
         ("false", ()), ("!(0 < 1)", ())],
    )
    def test_no_variable_is_a_cylinder(self, text, intervals):
        f = sl.parse_formula(text)
        assert f.arity == 0
        t = sl.one_var_canonical(f)
        assert (t.M, t.N) == (len(intervals), 0)
        assert t.intervals == intervals and t.points == () and t.boundary == ()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 5), st.booleans())
    def test_pieces_match_the_formula_and_are_maximal(self, seed, k, negate):
        from valdim import verify

        f = verify.random_formula(random.Random(seed), 1, k)
        if negate:
            f = sl.Not.of(f)
        t = sl.one_var_canonical(f)
        bps = sorted({F(a.rhs, a.coeffs[0]) for a in f.atoms()})
        probes = bps + [(a + b) / 2 for a, b in zip(bps, bps[1:])]
        probes += [bps[0] - 1, bps[-1] + 1] if bps else [F(0)]
        for x in probes:
            assert t.holds(x) == f.holds((x,)), x
        pieces = sorted(
            list(t.intervals) + [(p, True, p, True) for p in t.points],
            key=lambda r: (r[0] is not None, r[0]),
        )
        assert (t.M, t.N) == (len(t.intervals), len(t.points))
        for (_, _, hi, hc), (lo, lc, _, _) in zip(pieces, pieces[1:]):
            assert hi is not None and lo is not None and hi <= lo
            assert not (hi == lo and (hc or lc))


class TestCellDecompose:
    def test_open_interval(self):
        cells = sl.cell_decompose(sl.parse_formula("0 < x1 & x1 < 1"))
        assert [c.signature for c in cells] == [(1,)]

    def test_graph_cell(self):
        cells = sl.cell_decompose(sl.parse_formula("0 < x1 & x1 < 1 & x2 = x1"))
        assert [c.signature for c in cells] == [(1, 0)]
        cell = cells[0]
        for x in grid(0, 1, 8):
            for y in grid(0, 1, 8):
                member = 0 < x < 1 and y == x
                assert cell.contains((x, y)) == member

    def test_band_cell(self):
        f = sl.parse_formula("0 < x1 & x1 < 1 & x1 < x2 & x2 < x1 + 1")
        cells = sl.cell_decompose(f)
        assert [c.signature for c in cells] == [(1, 1)]
        for x in grid(0, 1, 8):
            for y in grid(0, 2, 8):
                assert cells[0].contains((x, y)) == f.holds((x, y))

    def test_cells_partition_on_grid(self):
        f = sl.parse_formula("x2 <= x1 | x1 = 0")
        cells = sl.cell_decompose(f)
        for x in grid(-1, 1, 4):
            for y in grid(-1, 1, 4):
                hits = sum(c.contains((x, y)) for c in cells)
                assert hits == (1 if f.holds((x, y)) else 0)

    def test_cell_consistency_and_sample(self):
        f = sl.parse_formula("x1 < x2 & x2 < x1 + 1 & 0 <= x1")
        for c in sl.cell_decompose(f):
            assert c.is_consistent()
            assert c.contains(c.sample())

    def test_inconsistent_band_below_the_top_coordinate(self):
        # x2 between x1 and 0 is empty wherever x1 >= 0, and x1 ranges over Q.
        line = (sl.MINUS_INF, sl.PLUS_INF)
        x1 = sl.AffineBound((1,), F(0))
        zero = sl.AffineBound((0,), F(0))
        broken = sl.GammaCell((1, 1, 1), (line, (x1, zero), line))
        assert not broken.is_consistent()
        x1_plus_1 = sl.AffineBound((1,), F(1))
        assert sl.GammaCell((1, 1, 1), (line, (x1, x1_plus_1), line)).is_consistent()


def dense_formula(rng, n, k):
    """Boolean combination of k atoms in n variables, every coefficient nonzero."""
    def part():
        coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)]
        rel = rng.choice(("<", "<=", "=", "!=", ">=", ">"))
        a = sl.atom(coeffs, rel, F(rng.randint(-6, 6), rng.choice((1, 2))))
        return sl.Not.of(a) if rng.random() < 0.25 else a

    f = part()
    for _ in range(k - 1):
        g = part()
        f = sl.And.of(f, g) if rng.random() < 0.5 else sl.Or.of(f, g)
        if rng.random() < 0.2:
            f = sl.Not.of(f)
    return f


class TestCellTruthFromLifting:
    """``cell_decompose`` against the arrangement filtered by sample points."""

    def test_formula_instances(self):
        from valdim import verify

        for _, f in verify.formula_instances(0, 200):
            assert sl.cell_decompose(f) == verify.filtered_arrangement(f), sl.formula_to_dsl(f)

    def test_dense_formulas(self):
        from valdim import verify

        rng = random.Random(11)
        cases = [dense_formula(rng, 2, rng.choice((5, 6))) for _ in range(16)]
        cases += [dense_formula(rng, 3, 3) for _ in range(16)]
        kept = 0
        for f in cases:
            cells = sl.cell_decompose(f)
            assert cells == verify.filtered_arrangement(f), sl.formula_to_dsl(f)
            kept += len(cells)
            atoms = sorted(f.atoms(), key=sl.LinearAtom.key)
            assert all(s == c.sample() for c, s in arrangement(atoms, f.arity))
        assert kept > 0

    def test_arity_zero(self):
        assert sl.cell_decompose(sl.Bool(True)) == [sl.GammaCell((), ())]
        assert sl.cell_decompose(sl.Bool(False)) == []

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_constant_formulas(self, n):
        (cell,) = sl.cell_decompose(sl.Bool(True, n))
        assert cell.signature == (1,) * n
        assert sl.cell_decompose(sl.Bool(False, n)) == []

    def test_negated_constant_keeps_arity(self):
        f = sl.Not.of(sl.atom((0, 0), ">", 1))
        assert f == sl.Bool(True, 2) and f.arity == 2
        assert [c.signature for c in sl.cell_decompose(f)] == [(1, 1)]
        assert sl.dimension(f) == 2
        assert sl.Not.of(sl.Bool(True, 3)).arity == 3

    @pytest.mark.parametrize(
        "text, signatures",
        [
            ("x1 < 1 | x1 = 2", [(1,), (0,)]),
            ("!(x1 <= 1) & x1 != 3", [(1,), (1,)]),
            ("x1 >= 0 & -x1 >= 0", [(0,)]),
        ],
    )
    def test_arity_one(self, text, signatures):
        f = sl.parse_formula(text, 1)
        cells = sl.cell_decompose(f)
        assert [c.signature for c in cells] == signatures
        for x in grid(-4, 4, 4):
            assert sum(c.contains((x,)) for c in cells) == f.holds((x,))

    @pytest.mark.parametrize(
        "text, signatures",
        [
            ("x2 <= x1 + 1 & 2*x2 >= 2*x1 + 2", [(1, 0)]),
            ("x2 < x1 + 1 & -x2 <= -x1 - 1", []),
            ("x2 < x1 + 1 | x2 = x1 + 1", [(1, 1), (1, 0)]),
            ("-3*x2 > -3*x1 - 3 & x2 != x1 + 1", [(1, 1)]),
        ],
    )
    def test_atoms_with_the_same_bound(self, text, signatures):
        f = sl.parse_formula(text, 2)
        cells = sl.cell_decompose(f)
        assert [c.signature for c in cells] == signatures
        for x in grid(-2, 2, 2):
            for y in grid(-2, 3, 2):
                assert sum(c.contains((x, y)) for c in cells) == f.holds((x, y))

    def test_coinciding_bounds_keep_the_least_key(self):
        # x2 = x1 and x2 = 2*x1 meet over x1 = 0, where one graph stands for both.
        f = sl.parse_formula("x2 = x1 | x2 = 2*x1", 2)
        over_zero = [c for c in sl.cell_decompose(f) if c.signature[0] == 0]
        assert [c.signature for c in over_zero] == [(0, 0)]
        assert over_zero[0].bounds[1] == sl.AffineBound((1,), F(0))

    @pytest.mark.parametrize(
        "rel, signatures",
        [
            ("<", [(1, 1)]),
            ("<=", [(1, 0), (1, 1)]),
            ("=", [(1, 0)]),
            ("!=", [(1, 1), (1, 1)]),
            (">=", [(1, 1), (1, 0)]),
            (">", [(1, 1)]),
        ],
    )
    def test_negative_last_coefficient(self, rel, signatures):
        from valdim import verify

        # After normalization the x2 coefficient stays -2 under <, <= and =;
        # > and >= flip it to +2, and != gives one atom of each sign.
        f = sl.parse_formula(f"x1 - 2*x2 {rel} 1", 2)
        cells = sl.cell_decompose(f)
        assert [c.signature for c in cells] == signatures
        assert cells == verify.filtered_arrangement(f)
        for x in grid(-2, 2, 2):
            for y in grid(-2, 2, 4):
                assert sum(c.contains((x, y)) for c in cells) == f.holds((x, y))


class TestDimension:
    def test_full_plane(self):
        f = sl.parse_formula("x1 = x1 | x1 < x2")
        assert sl.dimension(f) == 2 == sl.dimension_via_projection(f)

    def test_diagonal(self):
        f = sl.parse_formula("x2 = x1")
        assert sl.dimension(f) == 1 == sl.dimension_via_projection(f)

    def test_union_rule(self):
        f = sl.parse_formula("x2 = x1 | (0 < x1 & x1 < 1 & 0 < x2 & x2 < 1)")
        assert sl.dimension(f) == 2

    def test_empty(self):
        f = sl.parse_formula("x1 < 0 & x1 > 0")
        assert sl.dimension(f) == NEG_INF == sl.dimension_via_projection(f)

    def test_point(self):
        f = sl.parse_formula("x1 = 0 & x2 = 5")
        assert sl.dimension(f) == 0 == sl.dimension_via_projection(f)


class TestDimensionWithoutCells:
    @pytest.mark.parametrize(
        "text, n, expected",
        [
            ("x1 < 0 & x1 > 0", 2, NEG_INF),
            ("x1 = x2 & x2 = x3", 3, 1),
            ("x1 + x2 = 1 & x1 - x2 = 0 & x1 = 1/2", 2, 0),
            ("0 < x1 & x1 < x2 & x2 < 1", 2, 2),
            ("x1 <= 0 & x1 >= 0", 1, 0),
            ("x1 <= 0 & x1 >= 0", 2, 1),
            ("x1 + x2 <= 1 & x1 + x2 >= 1 & x2 - x3 <= 2 & x2 - x3 >= 2 & 0 <= x1", 3, 1),
            ("x1 + x2 <= 1 & x1 + x2 >= 0 & x2 - x3 <= 2", 3, 3),
            ("x1 <= x2 & x2 <= x3 & x3 <= x1", 3, 1),
            ("x1 <= x2 & x2 <= x3 & x3 < x1", 3, NEG_INF),
        ],
    )
    def test_edge_cases(self, text, n, expected):
        f = sl.parse_formula(text, n)
        assert sl.dimension(f) == expected == sl.dimension_via_projection(f) == cell_dimension(f)

    def test_true_and_false(self):
        assert sl.dimension(sl.Bool(True, 3)) == 3
        assert sl.dimension(sl.Bool(False, 3)) == NEG_INF
        assert sl.basic_dimension(sl.BasicSet((), 2)) == 2

    def test_basic_dimension_of_empty_system(self):
        (b,) = sl.normalize_dnf(sl.parse_formula("x1 <= x2 & x2 <= x1"))
        assert sl.basic_dimension(b) == 1
        strict = sl.BasicSet(tuple(sl.LinearAtom(a.coeffs, sl.LT, a.rhs) for a in b.atoms), 2)
        assert sl.basic_dimension(strict) == NEG_INF

    def test_rank(self):
        from valdim.semilinear.elimination import _rank

        assert _rank([]) == 0
        assert _rank([(0, 0, 0)]) == 0
        assert _rank([(2, 4, 6), (1, 2, 3), (0, 3, -1)]) == 2
        assert _rank([(0, 2, 1), (3, 0, 0), (0, 0, 5), (1, 1, 1)]) == 3

    def test_agrees_with_cells_on_seeded_instances(self):
        from valdim import verify

        cases = [f for _, f in verify.formula_instances(0, 200)]
        rng = random.Random(7)
        cases += [verify.random_formula(rng, 3, rng.randint(3, 4)) for _ in range(12)]
        for f in cases:
            d = sl.dimension(f)
            assert d == cell_dimension(f) == sl.dimension_via_projection(f), sl.formula_to_dsl(f)

    def test_builds_no_cells(self, no_cells):
        from valdim import trop

        f = sl.parse_formula("(x1 <= x2 & x2 <= x1 & 0 < x3) | x1 + x2 + x3 = 1")
        assert sl.dimension(f) == 2
        (b,) = sl.normalize_dnf(sl.parse_formula("x1 <= x2 & x2 <= x1 & x3 = 0"))
        assert trop.Polyhedron.of(b).dim == 1
        with pytest.raises(AssertionError):
            sl.cell_decompose(f)


class TestClosure:
    def test_relaxes_strict_faces(self):
        c = sl.closure(sl.parse_formula("0 < x1 & x1 <= 1"))
        assert dnf_atoms(c) == [["-x1 <= 0", "x1 <= 1"]]

    def test_empty_dropped_not_relaxed(self):
        c = sl.closure(sl.parse_formula("x1 < 0 & x1 >= 0"))
        assert isinstance(c, sl.Bool) and not c.value

    def test_half_plane(self):
        c = sl.closure(sl.parse_formula("x1 < x2"))
        assert dnf_atoms(c) == [["x1 - x2 <= 0"]]

    def test_idempotent_and_extensive(self):
        f = sl.parse_formula("(0 < x1 & x1 < 1) | x1 = 3")
        c = sl.closure(f)
        assert sl.normalize_dnf(sl.closure(c)) == sl.normalize_dnf(c)
        diff = sl.And.of(f, sl.Not.of(c))
        assert all(sl.is_empty(b) for b in sl.normalize_dnf(diff, 1))


class TestIsPolyhedral:
    def test_union_of_closed_halflines(self):
        ok, witness = sl.is_polyhedral(sl.parse_formula("x1 <= 0 | x1 >= 1"))
        assert ok and len(witness) == 2

    def test_open_halfline(self):
        ok, witness = sl.is_polyhedral(sl.parse_formula("x1 < 0"))
        assert not ok and witness is None

    def test_closure_is_always_polyhedral(self):
        f = sl.parse_formula("(x1 < x2 & x2 < 1) | 2*x1 > 3")
        ok, witness = sl.is_polyhedral(sl.closure(f))
        assert ok
        assert all(b.is_weak() for b in witness)

    def test_hidden_closedness(self):
        # strict presentation of a closed set
        ok, _ = sl.is_polyhedral(sl.parse_formula("x1 < 0 | x1 = 0 | x1 > 0"))
        assert ok


class TestProductAndFrontier:
    def test_product_dimension_adds(self):
        f = sl.parse_formula("0 < x1 & x1 < 1")          # dim 1
        g = sl.parse_formula("x1 = 0 & 0 < x2 & x2 < 1")  # dim 1 in the plane
        fp = sl.And.of(
            sl.atom((1, 0, 0), ">", 0),
            sl.atom((1, 0, 0), "<", 1),
            sl.atom((0, 1, 0), "=", 0),
            sl.atom((0, 0, 1), ">", 0),
            sl.atom((0, 0, 1), "<", 1),
        )
        assert sl.dimension(f) + sl.dimension(g) == sl.dimension(fp) == 2

    def test_frontier_drops_dimension(self):
        f = sl.parse_formula("0 < x1 & x1 < 1 & 0 < x2 & x2 < 1")
        frontier = sl.And.of(sl.closure(f), sl.Not.of(f))
        assert sl.dimension(frontier) == 1 < sl.dimension(f)


class TestJson:
    def test_cell_round_trip(self):
        f = sl.parse_formula("0 < x1 & x1 < 1 & x2 = x1")
        for c in sl.cell_decompose(f):
            assert sl.cell_from_json(sl.cell_to_json(c)) == c

    def test_cell_round_trip_on_seeded_formulas(self):
        from valdim import verify

        for seed in range(3):
            for _, f in verify.formula_instances(seed, 200):
                for c in sl.cell_decompose(f):
                    assert sl.cell_from_json(sl.cell_to_json(c)) == c


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=2)


def atoms_strategy(n):
    coeffs = st.tuples(*[st.integers(-3, 3)] * n).filter(any)
    rel = st.sampled_from(["<", "<=", "=", ">=", ">"])
    return st.builds(sl.atom, coeffs, rel, rationals)


def systems_strategy(n):
    return st.lists(atoms_strategy(n), min_size=1, max_size=4).map(
        lambda parts: sl.BasicSet(
            tuple(p.atom for p in parts if isinstance(p, sl.Atom)), n
        )
    )


@settings(max_examples=80, deadline=None)
@given(systems_strategy(2))
def test_emptiness_verdict_matches_witness(b):
    if sl.is_empty(b):
        assert sl.sample_point(b) is None
    else:
        w = sl.sample_point(b)
        assert w is not None and b.holds(w)


@settings(max_examples=60, deadline=None)
@given(systems_strategy(2))
def test_closure_contains_and_relaxes(b):
    f = b.to_formula()
    cl = sl.closure(f)
    inside_not_closed = sl.And.of(f, sl.Not.of(cl))
    assert all(sl.is_empty(d) for d in sl.normalize_dnf(inside_not_closed, 2))
    ok, _ = sl.is_polyhedral(cl)
    assert ok


@settings(max_examples=60, deadline=None)
@given(systems_strategy(3), st.permutations([0, 1, 2]))
def test_projection_sample_points_are_shadows(b, order):
    keep = sorted(order[:2])
    p = sl.project_basic(b, keep)
    if p is None:
        assert sl.is_empty(b)
        return
    w = sl.sample_point(b)
    assert w is not None
    assert p.holds(tuple(w[i] for i in keep))
