import hashlib
import itertools
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valdim import semilinear as sl
from valdim.errors import ParseError, SemanticError
from valdim.lowerset import NEG_INF
from valdim.semilinear import atoms, cells, elimination
from valdim.semilinear.cells import arrangement


def samples(atoms, n, f=None):
    """The strata of :func:`arrangement`, all unless ``f`` is given, with Fraction samples."""
    strata = arrangement(atoms, n, sl.Bool(True, n) if f is None else f)
    return [(cell, tuple(F(x, den) for x in nums)) for cell, nums, den in strata]


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
        # the rational right side is cleared into one primitive integer row;
        # the text reads the row over its coefficient gcd
        [a] = sl.atom((2, True), ">=", "1/2").atoms()
        assert (a.coeffs, a.rel, a.rhs) == ((-4, -2), sl.LE, -1)
        assert str(a) == "-2*x1 - x2 <= -1/2"
        a = sl.LinearAtom((3,), sl.LT, F(3, 2))
        assert (a.coeffs, a.rhs) == ((2,), 1)
        assert str(a) == "x1 < 1/2"

    def test_an_integer_right_side_stays_an_integer(self):
        assert type(atoms.exact(3)) is int and atoms.exact(-3) == -3
        assert atoms.exact("3/6") == F(1, 2) and type(atoms.exact(F(4))) is F
        with pytest.raises(TypeError):
            atoms.exact(3.0)


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

    def test_dnf_keeps_empty_disjuncts_once(self):
        f = sl.parse_formula("(x1 < 0 & x1 > 0) | x1 = 5 | (x1 > 0 & x1 < 0)")
        disjuncts = atoms.dnf(f)
        assert [sl.is_empty(b) for b in disjuncts] == [True, False]
        assert sl.normalize_dnf(f) == disjuncts[1:]


class TestEmptiness:
    def test_contradictory_pair(self):
        b = sl.normalize_dnf(sl.parse_formula("x1 < 0 & x1 >= 0"))
        assert b == []

    def test_strict_cycle(self):
        system = sl.BasicSet((sl.atom((1, -1), "<", 0), sl.atom((-1, 1), "<", 0)), 2)
        assert sl.is_empty(system)

    def test_narrow_band_feasible_with_witness(self):
        b = sl.normalize_dnf(sl.parse_formula("x1 < x2 & x2 < x1 + 1"))[0]
        assert not sl.is_empty(b)
        w = sl.sample_point(b)
        assert w is not None and b.holds(w)

    def test_sampling_reuses_the_emptiness_elimination(self, monkeypatch):
        f = sl.parse_formula("x1 < x2 & x2 <= x3 & x3 < 4 & 0 < x1", 3)
        b = sl.BasicSet(f.parts, 3)
        calls = []
        real = elimination._eliminate_var
        monkeypatch.setattr(
            elimination, "_eliminate_var", lambda rows, j: calls.append(j) or real(rows, j)
        )
        assert not sl.is_empty(b)
        assert b.holds(sl.sample_point(b)) and sorted(calls) == [0, 1, 2]

    @pytest.mark.parametrize(
        "rows, empty",
        [
            # parallel rows with clashing bounds
            ([((1, 2), "<=", 1), ((-1, -2), "<=", -3)], True),
            ([((1, 2), "<=", 3), ((-1, -2), "<=", -3)], False),
            # two different equalities on one functional
            ([((1, -1), "=", 1), ((1, -1), "=", 2)], True),
            ([((1, -1), "=", 1), ((2, -2), "=", 2)], False),
            # a strict and a weak bound meeting at one value
            ([((1, 1), "<", 1), ((-1, -1), "<=", -1)], True),
            ([((1, 1), "<=", 1), ((-1, -1), "<=", -1)], False),
            ([((0, 1), "=", 2), ((0, 1), "<", 2)], True),
        ],
    )
    def test_clashes_on_one_functional(self, rows, empty):
        b = sl.BasicSet(tuple(sl.LinearAtom(c, rel, q) for c, rel, q in rows), 2)
        assert sl.is_empty(b) is empty
        assert elimination.rows_infeasible(list(b.atoms), 2) is empty
        point = sl.sample_point(b)
        assert point is None if empty else b.holds(point)

    @pytest.mark.parametrize(
        "nums, den, member", [([1], 2, True), ([1], 1, False), ([3], 2, False), ([0], 7, False)]
    )
    def test_sample_point_checks_its_point(self, monkeypatch, nums, den, member):
        b = sl.normalize_dnf(sl.parse_formula("0 < x1 & x1 < 1"))[0]
        monkeypatch.setattr(elimination, "_back_substitute", lambda b: (nums, den, (1,)))
        if member:
            assert sl.sample_point(b) == (F(nums[0], den),)
        else:
            with pytest.raises(AssertionError):
                sl.sample_point(b)

    @pytest.mark.parametrize("seed", range(4))
    def test_descending_verdict_agrees_with_ascending(self, seed):
        from valdim import verify

        rng = random.Random(seed)
        for _ in range(150):
            n = rng.randint(1, 4)
            b = verify.random_basic_set(rng, n, rng.randint(1, 5), rng.random() < 0.3)
            ascending = elimination.rows_infeasible(list(b.atoms), n)
            assert sl.is_empty(b) is ascending
            stages = b._stages
            point = sl.sample_point(b)
            assert b._stages is stages and (point is None) is ascending


def with_implicit_equalities(rng, n):
    """A random weak system that also holds some ``c.x <= q`` and ``-c.x <= -q``."""
    rows = []
    for _ in range(rng.randint(1, 4)):
        coeffs = tuple(rng.randint(-2, 2) for _ in range(n))
        if any(coeffs):
            q = F(rng.randint(-3, 3), rng.choice([1, 2]))
            rows.append(sl.LinearAtom(coeffs, rng.choice(["<=", "<=", "<", "="]), q))
    for _ in range(rng.randint(1, 2)):
        coeffs = tuple(rng.randint(-2, 2) for _ in range(n))
        if any(coeffs):
            q = F(rng.randint(-3, 3), rng.choice([1, 2]))
            rows.append(sl.LinearAtom(coeffs, "<=", q))
            rows.append(sl.LinearAtom(tuple(-c for c in coeffs), "<=", -q))
    return sl.BasicSet(tuple(rows), n)


class TestSamplePointRelativeInterior:
    """``sample_point`` lies in the relative interior of its basic set.

    A weak atom is tight at a relative-interior point exactly when it is
    tight on the whole set, that is, when the set with that atom made
    strict is empty.  ``dimension``, ``mixed_dimension`` and the faces of
    ``trop_hypersurface`` all read their point this way.
    """

    @pytest.mark.parametrize("seed", range(4))
    def test_weak_atom_tight_exactly_when_implicit_equality(self, seed):
        from valdim import verify

        rng = random.Random(seed)
        systems = [b for _, f in verify.formula_instances(seed, 200) for b in atoms.dnf(f)]
        systems += [with_implicit_equalities(rng, rng.randint(1, 3)) for _ in range(300)]
        sets = weak = 0
        for b in systems:
            x = sl.sample_point(b)
            if x is None:
                continue
            sets += 1
            for a in b.atoms:
                if a.rel != sl.LE:
                    continue
                weak += 1
                strict = sl.BasicSet(tuple(sl.LinearAtom(a.coeffs, sl.LT, a.rhs) if c is a else c
                                           for c in b.atoms), b.arity)
                tight = sum(c * v for c, v in zip(a.coeffs, x)) == a.rhs
                assert tight is sl.is_empty(strict), (b, a, x)
        assert sets > 300 and weak > 300


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

    @staticmethod
    def two_pass_projection(f, keep):
        """The projection as two eliminations per disjunct: the emptiness pass of
        ``normalize_dnf``, then the dropped coordinates eliminated in ascending order."""
        n, d = f.arity, len(keep)
        drop = [j for j in range(n) if j not in keep]
        parts = []
        for b in sl.normalize_dnf(f):
            rows = elimination._eliminate(list(b.atoms), drop)[-1]
            projected = [sl.LinearAtom(tuple(c[j] for j in keep), rel, q) for c, rel, q in rows]
            parts.append(sl.BasicSet(tuple(projected), d).to_formula())
        return sl.Or.of(*parts) if parts else sl.Bool(False, d)

    @pytest.mark.parametrize("seed", range(3))
    def test_one_pass_equals_the_two_pass_route(self, seed):
        from valdim import verify

        for n, f in verify.formula_instances(seed, 500):
            for d in range(n + 1):
                for keep in itertools.combinations(range(n), d):
                    got, expected = sl.project(f, keep), self.two_pass_projection(f, keep)
                    assert got == expected and repr(got) == repr(expected)
                    assert sl.formula_to_dsl(got) == sl.formula_to_dsl(expected)

    def test_one_elimination_per_disjunct(self, monkeypatch):
        """One elimination per disjunct and keep on a fresh formula, none that
        the stages kept on a disjunct already answer, and only the dropped
        coordinates of a disjunct already found nonempty."""
        from valdim import verify

        decided = verify.formula_instances(0, 200)
        empty = [[sl.is_empty(b) for b in atoms.dnf(f)] for _, f in decided]
        assert sum(any(e) for e in empty) > 10  # the family does hold empty disjuncts

        calls = []
        real = elimination._eliminate
        monkeypatch.setattr(
            elimination, "_eliminate", lambda rows, order: calls.append(order) or real(rows, order)
        )

        def no_is_empty(b):
            raise AssertionError("project decides emptiness in its own elimination")

        monkeypatch.setattr(elimination, "is_empty", no_is_empty)

        def eliminations(f, keep):
            """The number of eliminations ``project`` runs, each one over
            every coordinate."""
            calls.clear()
            sl.project(f, keep)
            assert all(sorted(order) == list(range(f.arity)) for order in calls)
            return len(calls)

        # one fresh copy of the family for each keep of a case
        fresh = [verify.formula_instances(0, 200) for _ in range(8)]
        for i, (n, f) in enumerate(decided):
            disjuncts, nonempty = len(empty[i]), empty[i].count(False)
            keeps = [k for d in range(n + 1) for k in itertools.combinations(range(n), d)]
            for copy, keep in zip(fresh, keeps):
                g = copy[i][1]
                assert g == f and eliminations(g, keep) == disjuncts
                # the emptiness order reads the kept stages; a disjunct found
                # empty by the first call is not eliminated again
                emptiness_order = keep in (tuple(range(n)), tuple(range(n - 1)))
                assert eliminations(g, keep) == (0 if emptiness_order else nonempty)
                # every disjunct of f is decided: a nonempty one has only its
                # dropped coordinates eliminated, in ascending order
                calls.clear()
                sl.project(f, keep)
                drop = [j for j in range(n) if j not in keep]
                assert [list(order) for order in calls] == (
                    [] if emptiness_order else [drop] * nonempty
                )


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
        line = (None, None)
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
            assert all(s == c.sample() for c, s in samples(atoms, f.arity))
            # the strata kept for f carry their samples too
            assert [(c, c.sample()) for c in cells] == samples(atoms, f.arity, f)
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


def coinciding_formula(rng, n, k):
    """Boolean combination of k atoms in n variables, every coefficient nonzero.

    Some rows are planted so that bounds on x_n coincide: a multiple of an
    earlier row solves to the same bound everywhere, and a combination of
    two earlier rows gives a third bound through every point where theirs
    meet, so three bounds share one value on those base cells.
    """
    rows = []
    while len(rows) < k:
        roll = rng.random()
        if rows and roll < 0.2:
            coeffs, rhs = rng.choice(rows)
            m = rng.choice((-2, -1, 2, 3))
            rows.append((tuple(m * c for c in coeffs), m * rhs))
        elif len(rows) > 1 and roll < 0.5:
            (c1, q1), (c2, q2) = rng.sample(rows, 2)
            a, b = rng.choice((-1, 1, 2)), rng.choice((-2, -1, 1))
            coeffs = tuple(a * x + b * y for x, y in zip(c1, c2))
            if all(coeffs):
                rows.append((coeffs, a * q1 + b * q2))
        else:
            coeffs = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n))
            rows.append((coeffs, F(rng.randint(-6, 6), rng.choice((1, 2)))))
    parts = []
    for coeffs, rhs in rows:
        a = sl.atom(coeffs, rng.choice(("<", "<=", "=", "!=", ">=", ">")), rhs)
        parts.append(sl.Not.of(a) if rng.random() < 0.2 else a)
    f = parts[0]
    for g in parts[1:]:
        f = sl.And.of(f, g) if rng.random() < 0.5 else sl.Or.of(f, g)
    return f


class TestLiftingDigests:
    """The lifting pinned byte for byte on the benchmark's shapes.

    240 seeded formulas: 2 variables with 6 atoms, and 3 variables with 3
    and with 4 atoms, every atom on every variable, some with bounds that
    coincide on base cells (:func:`coinciding_formula`).  The digests were
    recorded before the top level of :func:`arrangement` stopped building
    the samples that :func:`sl.cell_decompose` does not read.
    """

    SHAPES = ((2, 6),) * 120 + ((3, 3),) * 80 + ((3, 4),) * 40

    @classmethod
    def formulas(cls):
        rng = random.Random(29)
        return [coinciding_formula(rng, n, k) for n, k in cls.SHAPES]

    def test_cells_match_the_filtered_arrangement(self):
        from valdim import verify

        h = hashlib.sha256()
        for f in self.formulas():
            cells = sl.cell_decompose(f)
            assert cells == verify.filtered_arrangement(f), sl.formula_to_dsl(f)
            h.update(json.dumps([sl.cell_to_json(c) for c in cells]).encode())
            h.update(b"\n")
        assert h.hexdigest()[:16] == "3ad92fac4a304af8"

    def test_samples_of_the_whole_arrangement(self):
        h = hashlib.sha256()
        for f in self.formulas():
            atoms_ = sorted(f.atoms(), key=sl.LinearAtom.key)
            strata = arrangement(atoms_, f.arity, sl.Bool(True, f.arity))
            h.update(repr([(nums, den) for _, nums, den in strata]).encode())
            h.update(b"\n")
        assert h.hexdigest()[:16] == "4fd9c2650a422f77"

    def test_the_formulas_plant_coinciding_bounds(self, monkeypatch):
        ties = []
        order = cells._order

        def counted(blist, rows, nums, den):
            values, reps, slots = order(blist, rows, nums, den)
            ties.append(len(values) < len(blist))
            return values, reps, slots

        monkeypatch.setattr(cells, "_order", counted)
        for f in self.formulas():
            sl.cell_decompose(f)
        assert sum(ties) > 500


class TestNoTopLevelSamples:
    """``cell_decompose`` builds samples only for strata a further level lifts over."""

    @pytest.fixture
    def counter(self, monkeypatch):
        calls = []
        sample = cells._stratum_sample

        def counted(values, p, one):
            calls.append(p)
            return sample(values, p, one)

        monkeypatch.setattr(cells, "_stratum_sample", counted)
        return calls

    def test_one_variable(self, counter):
        f = sl.parse_formula("x1 < 1 | x1 = 2 | (x1 > 3 & x1 != 5)", 1)
        assert len(sl.cell_decompose(f)) == 4
        assert counter == []

    def test_two_variables(self, counter):
        # bounds x1, 0 and 1 on x2 meet over x1 = 0 and x1 = 1: 5 base strata
        f = sl.parse_formula("x2 < x1 & x2 > 0 | x2 = 1", 2)
        sl.cell_decompose(f)
        assert len(counter) == 5

    @pytest.mark.parametrize("seed", range(10))
    def test_one_sample_per_base_stratum(self, seed, counter):
        f = coinciding_formula(random.Random(seed), 2, 6)
        atoms_ = sorted(f.atoms(), key=sl.LinearAtom.key)
        strata = arrangement(atoms_, 2, sl.Bool(True, 2))
        base = {(c.signature[:1], c.bounds[:1]) for c, _, _ in strata}
        counter.clear()
        sl.cell_decompose(f)
        assert len(counter) == len(base)


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
            ("x1 + x2 <= 1 & -x1 - x2 <= -1 & x3 < 2", 3, 2),
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
        from valdim.verify import _rank

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

    def test_reads_the_emptiness_elimination(self, monkeypatch):
        from valdim.mixedcell import mixed_dimension, parse_mixed_formula, piece_formulas

        calls = []
        real = elimination._eliminate_var
        monkeypatch.setattr(
            elimination, "_eliminate_var", lambda rows, j: calls.append(j) or real(rows, j)
        )
        (b,) = sl.normalize_dnf(sl.parse_formula("x1 + x2 <= 1 & -x1 - x2 <= -1 & x3 < 2"))
        calls.clear()
        assert sl.basic_dimension(b) == 2 and sl.basic_signature(b) == (1, 0, 1)
        assert b.holds(sl.sample_point(b)) and calls == []

        text = (
            "(v(x) = inf & 0 < g1 & g1 < 1 & 0 < g2 & g2 < 1)"
            " | (v(x) >= 0 & g1 <= 0 & g1 >= 0 & g2 = 0)"
        )
        f = parse_mixed_formula(text, 2)
        calls.clear()
        assert mixed_dimension(f).maxima == ((0, 2), (1, 0))
        steps = len(calls)
        fresh = parse_mixed_formula(text, 2)
        calls.clear()
        kinds = [p.kind for p, g in piece_formulas(fresh) if sl.normalize_dnf(g)]
        assert kinds == ["points", "annulus"]
        assert steps == len(calls) > 0
        # the disjuncts and their stages are kept on the piece formulas
        calls.clear()
        assert mixed_dimension(f).maxima == ((0, 2), (1, 0))
        for g in (f, fresh):
            assert [p.kind for p, h in piece_formulas(g) if sl.normalize_dnf(h)] == kinds
        assert calls == []

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_agrees_with_implicit_equalities(self, data):
        from valdim.verify import dimension_by_implicit_equalities

        n = data.draw(st.integers(1, 4))
        atoms = [p for p in data.draw(st.lists(atoms_strategy(n), max_size=4))
                 if isinstance(p, sl.Atom)]
        for c, q in data.draw(st.lists(st.tuples(coeffs_strategy(n), rationals), max_size=2)):
            atoms.append(sl.atom(c, "<=", q))
            atoms.append(sl.atom(tuple(-x for x in c), "<=", -q))
        b = sl.BasicSet(tuple(atoms), n)
        assert sl.basic_dimension(b) == dimension_by_implicit_equalities(b)

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
        assert all(sl.is_empty(b) for b in sl.normalize_dnf(diff))


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


class TestAffineBoundRow:
    def test_a_bound_equals_its_rescaling(self):
        b = sl.AffineBound((2,), 1, 4)
        assert b == sl.AffineBound((1,), F(1, 2), 2) == sl.AffineBound((6,), 3, 12)
        assert (b.coeffs, b.const, b.div) == ((2,), 1, 4)
        assert b.key() == ((1,), F(1, 2), 2)
        assert b.value((F(3),)) == F(7, 4)

    def test_json_reads_the_coefficient_gcd_form(self):
        b = sl.AffineBound((2, -4), 1, 6)
        assert cells.bound_to_json(b) == {"coeffs": [1, -2], "const": "1/2", "div": 3}
        assert cells.bound_from_json(cells.bound_to_json(b)) == b

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-6, 6), max_size=3),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        st.integers(1, 6),
        st.integers(1, 5),
    )
    def test_row_is_primitive_and_round_trips(self, coeffs, const, div, k):
        b = sl.AffineBound(tuple(coeffs), const, div)
        row = (*b.coeffs, b.const, b.div)
        assert all(isinstance(x, int) for x in row) and b.div > 0
        assert math.gcd(*row) == 1
        assert sl.AffineBound(tuple(k * c for c in coeffs), k * const, k * div) == b
        assert cells.bound_from_json(cells.bound_to_json(b)) == b
        point = tuple(F(i + 1, 2) for i in range(len(coeffs)))
        assert b.value(point) == (sum(c * v for c, v in zip(coeffs, point)) + const) / div


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


def coeffs_strategy(n):
    return st.tuples(*[st.integers(-3, 3)] * n).filter(any)


def atoms_strategy(n):
    rel = st.sampled_from(["<", "<=", "=", ">=", ">"])
    return st.builds(sl.atom, coeffs_strategy(n), rel, rationals)


def systems_strategy(n):
    return st.lists(atoms_strategy(n), min_size=1, max_size=4).map(
        lambda parts: sl.BasicSet(
            tuple(p for p in parts if isinstance(p, sl.Atom)), n
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
    assert all(sl.is_empty(d) for d in sl.normalize_dnf(inside_not_closed))
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


def fraction_value(b, point):
    """Bound ``b`` at ``point`` in Fraction arithmetic written here, apart from the library's."""
    return sum((F(c) * v for c, v in zip(b.coeffs, point)), F(b.const)) / b.div


def fraction_between(lo, hi):
    if lo is None:
        return F(0) if hi is None else hi - 1
    if hi is None:
        return lo + 1
    return (lo + hi) / 2


def fraction_sample(cell):
    point = []
    for i, spec in zip(cell.signature, cell.bounds):
        if i == 0:
            point.append(fraction_value(spec, point))
        else:
            lo, hi = (None if e is None else fraction_value(e, point) for e in spec)
            point.append(fraction_between(lo, hi))
    return tuple(point)


def fraction_contains(cell, point):
    for k, (i, spec) in enumerate(zip(cell.signature, cell.bounds)):
        x, prefix = point[k], point[:k]
        if i == 0:
            if x != fraction_value(spec, prefix):
                return False
            continue
        lo, hi = spec
        if lo is not None and not fraction_value(lo, prefix) < x:
            return False
        if hi is not None and not x < fraction_value(hi, prefix):
            return False
    return True


def random_bound(rng, j):
    coeffs = tuple(rng.randint(-4, 4) for _ in range(j))
    return sl.AffineBound(coeffs, F(rng.randint(-9, 9), rng.randint(1, 6)), rng.randint(1, 6))


class TestIntegerKernel:
    """The integer lifting of ``cells`` against Fraction arithmetic written in the test.

    Bounds have divisors 1 to 6 and points denominators above 1, so no
    common denominator is 1 by accident; ties between distinct bounds are
    planted at the sample point.
    """

    @staticmethod
    def seeded_bounds(seed):
        """A point over a common denominator, and bounds key-sorted as the lifting sorts them."""
        rng = random.Random(seed)
        j = rng.randint(0, 3)
        point = tuple(F(rng.randint(-12, 12), rng.randint(2, 6)) for _ in range(j))
        # a carried denominator is common, not necessarily least
        den = math.lcm(1, *(v.denominator for v in point)) * rng.randint(1, 3)
        nums = tuple(int(v * den) for v in point)
        bounds = set()
        for _ in range(rng.randint(1, 8)):
            b = random_bound(rng, j)
            bounds.add(b)
            if rng.random() < 0.5:
                # another bound through the same value at the point
                c = random_bound(rng, j)
                shift = fraction_value(b, point) - fraction_value(c, point)
                bounds.add(sl.AffineBound(c.coeffs, c.const + c.div * shift, c.div))
        return point, nums, den, sorted(bounds, key=sl.AffineBound.key)

    @pytest.mark.parametrize("seed", range(60))
    def test_order_ranks_match_a_fraction_sort(self, seed):
        point, nums, den, blist = self.seeded_bounds(seed)
        scale, rows = cells._scaled_rows(blist)
        values, reps, slots = cells._order(blist, rows, nums, den)
        fvals = [fraction_value(b, point) for b in blist]
        distinct = sorted(set(fvals))
        assert [F(v, scale * den) for v in values] == distinct
        assert reps == [
            min((b for b, v in zip(blist, fvals) if v == d), key=sl.AffineBound.key)
            for d in distinct
        ]
        assert slots == [2 * distinct.index(v) + 1 for v in fvals]
        for p in range(2 * len(values) + 1):
            k = p // 2
            want = distinct[k] if p % 2 else fraction_between(
                distinct[k - 1] if k else None, distinct[k] if k < len(distinct) else None
            )
            assert F(cells._stratum_sample(values, p, scale * den), 2 * scale * den) == want

    def test_the_seeds_plant_ties_and_mixed_divisors(self):
        ties = mixed = 0
        for seed in range(60):
            point, _, den, blist = self.seeded_bounds(seed)
            ties += len({fraction_value(b, point) for b in blist}) < len(blist)
            mixed += len({b.div for b in blist}) > 1 and den > 1
        assert ties > 20 and mixed > 20

    @staticmethod
    def seeded_atoms(seed):
        rng = random.Random(seed)
        n = rng.choice((1, 2, 2, 3))
        atoms = set()
        while len(atoms) < rng.randint(1, 4 if n < 3 else 3):
            coeffs = tuple(rng.randint(-3, 3) for _ in range(n))
            if any(coeffs):
                rhs = F(rng.randint(-6, 6), rng.randint(1, 6))
                atoms.add(sl.LinearAtom(coeffs, rng.choice(("<", "<=", "=")), rhs))
        return sorted(atoms, key=sl.LinearAtom.key), n

    @pytest.mark.parametrize("seed", range(40))
    def test_carried_samples_are_the_cell_samples(self, seed):
        atoms, n = self.seeded_atoms(seed)
        for cell, nums, den in arrangement(atoms, n, sl.Bool(True, n)):
            assert den > 0 and all(type(x) is int for x in nums)
            s = tuple(F(x, den) for x in nums)
            assert s == cell.sample() == fraction_sample(cell)

    @pytest.mark.parametrize("seed", range(40))
    def test_a_cell_reads_itself_without_the_lifting_kernel(self, seed, monkeypatch):
        atoms, n = self.seeded_atoms(seed)
        strata = [cell for cell, _, _ in arrangement(atoms, n, sl.Bool(True, n))]

        def refuse(*args):
            raise AssertionError("a cell read called the lifting kernel")

        for name in ("_scaled_rows", "_order", "_stratum_sample"):
            monkeypatch.setattr(cells, name, refuse)
        points = [fraction_sample(c) for c in strata]
        for cell in strata:
            assert cell.sample() == fraction_sample(cell)
            for p in points:
                assert cell.contains(p) == fraction_contains(cell, p)

    @pytest.mark.parametrize("seed", range(40))
    def test_contains_agrees_on_and_around_each_cell(self, seed):
        atoms, n = self.seeded_atoms(seed)
        rng = random.Random(seed)
        verdicts = set()
        for cell, s in samples(atoms, n):
            points = [s]
            for k, (i, spec) in enumerate(zip(cell.signature, cell.bounds)):
                ends = [spec] if i == 0 else [e for e in spec if e is not None]
                for e in ends:
                    at = fraction_value(e, s[:k])
                    eps = F(1, rng.choice((7, 60, 997)))
                    for x in (at, at - eps, at + eps):
                        points.append(s[:k] + (x,) + s[k + 1:])
            # whole numbers reach contains as ints
            points.append(tuple(math.floor(v) for v in s))
            for p in points:
                want = fraction_contains(cell, p)
                assert cell.contains(p) == want, (cell, p)
                verdicts.add(want)
        assert verdicts == {True, False}


def dense_rows(seed, count, n=5):
    """``count`` random ``<=`` rows over ``n`` variables: coefficients in [-3, 3]
    (an all-zero row is drawn again) and right sides in [0, 6]."""
    rng = random.Random(seed)
    rows = []
    while len(rows) < count:
        coeffs = tuple(rng.randint(-3, 3) for _ in range(n))
        if any(coeffs):
            rows.append(sl.LinearAtom(coeffs, "<=", rng.randint(0, 6)))
    return rows


class TestLastStepInOnePass:
    """The last elimination step, on rows over one variable, decided without pairing."""

    @staticmethod
    def pairwise(rows, j):
        """The verdict of pairing every bound with every other one, in Fractions."""
        lows, highs, pins = [], [], []
        for coeffs, rel, rhs in rows:
            c, v = coeffs[j], F(rhs) / coeffs[j]
            if rel == "=":
                pins.append(v)
            elif c > 0:
                highs.append((v, rel == "<"))
            else:
                lows.append((v, rel == "<"))
        lows += [(v, False) for v in pins]
        highs += [(v, False) for v in pins]
        return all(lo < hi or (lo == hi and not (s or t)) for lo, s in lows for hi, t in highs)

    @staticmethod
    def seeded_rows(seed):
        """0-6 distinct rows over variable j of n, with rational bounds."""
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        j = rng.randrange(n)
        rows = set()
        for _ in range(rng.randint(0, 6)):
            coeffs = [0] * n
            coeffs[j] = rng.choice((-3, -2, -1, 1, 2, 3))
            rel = rng.choice(("<", "<=", "=", "<=", "<"))
            rows.add(sl.LinearAtom(coeffs, rel, F(rng.randint(-4, 4), rng.randint(1, 3))))
        return sorted(rows, key=sl.LinearAtom.key), j

    @pytest.mark.parametrize("seed", range(200))
    def test_matches_a_pairwise_check(self, seed):
        rows, j = self.seeded_rows(seed)
        got = elimination._decide_var(rows, j)
        assert got in ([], None)
        assert (got == []) == self.pairwise(rows, j)
        assert (got == []) == (elimination._eliminate(rows, [j]) is not None)

    def test_seeds_reach_every_verdict(self):
        verdicts = set()
        for seed in range(200):
            rows, j = self.seeded_rows(seed)
            verdicts.add((elimination._decide_var(rows, j) == [], any(r.rel == "=" for r in rows)))
        assert verdicts == {(True, True), (True, False), (False, True), (False, False)}

    @pytest.mark.parametrize(
        "text, empty",
        [
            ("0 <= x1 & x1 <= 0", False),
            ("0 < x1 & x1 <= 0", True),
            ("0 <= x1 & x1 < 0", True),
            ("x1 = 1/2 & 2*x1 = 1 & x1 < 1", False),
            ("x1 = 1/2 & x1 = 1/3", True),
            ("x1 = 1 & x1 < 1", True),
            ("x1 = 1 & x1 <= 1 & x1 >= 1", False),
            ("x1 > 3 & x1 < 7/2 & x1 > 10/3", False),
            ("x1 < 5", False),
        ],
    )
    def test_one_variable_systems(self, text, empty):
        (b,) = atoms.dnf(sl.parse_formula(text, 1))
        assert sl.is_empty(b) == empty

    def test_dense_system_answers_in_time(self):
        """Stages of 10 -> 21 -> 80 -> 1,061 -> 140,730 rows: the last step once
        paired the 140,730 rows and found no answer in 45 s."""
        import signal

        b = sl.BasicSet(tuple(dense_rows(2, 10)), 5)
        assert len(b.atoms) == 10

        def timeout(signum, frame):
            raise AssertionError("the dense system took longer than 60 s")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(60)
        try:
            assert not sl.is_empty(b)
            point = sl.sample_point(b)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert b.holds(point)
        assert [len(stage) for stage in elimination._stages(b)] == [10, 21, 80, 1061, 140730, 0]


class TestKeptDnf:
    """The disjuncts are built once per formula, and no answer depends on
    which questions the formula was asked before."""

    @staticmethod
    def questions(f):
        """Every question of the linear engine, with the DSL text of each formula answer."""
        n = f.arity
        keeps = [k for d in range(n + 1) for k in itertools.combinations(range(n), d)]
        with_text = [(lambda k=k: sl.project(f, k)) for k in keeps] + [lambda: sl.closure(f)]
        return [
            lambda: sl.dimension(f),
            lambda: sl.cell_decompose(f),
            *with_text,
            *[(lambda q=q: sl.formula_to_dsl(q())) for q in with_text],
            lambda: sl.is_polyhedral(f),
            lambda: sl.formula_to_dsl(f),
            lambda: atoms.dnf(f),
            lambda: sl.normalize_dnf(f),
        ]

    @pytest.mark.parametrize("seed", range(2))
    def test_answers_do_not_depend_on_call_history(self, seed):
        from valdim import verify

        fresh = verify.formula_instances(seed, 120)
        asked = verify.formula_instances(seed, 120)
        for _, g in reversed(asked):
            for q in reversed(self.questions(g)):
                q()
        for (_, f), (_, g) in zip(fresh, asked):
            assert f == g and f is not g
            want = [q() for q in self.questions(f)]
            got = [q() for q in self.questions(g)]
            assert want == got and repr(want) == repr(got)

    def test_kept_tuple_takes_no_part_in_equality_hash_or_repr(self):
        text = "(x1 < x2 | x2 < 0) & !(x1 = 1)"
        f, fresh = sl.parse_formula(text, 2), sl.parse_formula(text, 2)
        before = repr(f)
        disjuncts = atoms.dnf(f)
        assert len(disjuncts) > 1
        assert all(a is b for a, b in zip(atoms.dnf(f), disjuncts))
        assert f == fresh and hash(f) == hash(fresh) and repr(f) == before == repr(fresh)

    def test_callers_get_a_fresh_list(self):
        f = sl.parse_formula("(x1 < 0 | x1 > 1) & (x2 < 0 | x2 = 1) & x1 + x2 < 3", 2)
        for read in (atoms.dnf, sl.normalize_dnf):
            first = read(f)
            expected = list(first)
            assert read(f) is not first
            first.reverse()
            first.append(first[0])
            del first[0]
            assert read(f) == expected
        assert sl.formula_to_dsl(f) == sl.formula_to_dsl(sl.parse_formula(
            "(x1 < 0 | x1 > 1) & (x2 < 0 | x2 = 1) & x1 + x2 < 3", 2))

    def test_each_node_keeps_its_own(self):
        f = sl.parse_formula("x1 < 0 | x1 > 1", 1)
        assert [str(b.atoms[0]) for b in atoms.dnf(f)] == ["-x1 < -1", "x1 < 0"]
        assert [str(b.atoms[0]) for b in atoms.dnf(f.parts[0])] == ["x1 < 0"]
        assert len(atoms.dnf(sl.Not.of(f))) == 1
