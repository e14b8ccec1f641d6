"""The Boolean core both DSLs share: nodes, grammar and ``map_atoms``."""

import random
import re
from fractions import Fraction as F
from itertools import combinations

import pytest

from valdim import boolean, verify
from valdim import mixedcell as mc
from valdim import semilinear as sl
from valdim.errors import ParseError, SemanticError
from valdim.semilinear.atoms import _dnf_lists as dnf_lists

NODES = (boolean.Bool, boolean.Atom, boolean.And, boolean.Or, boolean.Not)
X = mc.FactoredPoly(1, ((mc.PuiseuxElement(), 1),))
X_MINUS_T = mc.FactoredPoly(1, ((mc.PuiseuxElement(((1, 1),)), 1),))


def node_types(f):
    yield type(f)
    for p in getattr(f, "parts", ()):
        yield from node_types(p)
    if isinstance(f, boolean.Not):
        yield from node_types(f.part)


def same_set(f, g):
    """Each difference of the two sets is empty."""
    return not sl.normalize_dnf(sl.And.of(f, sl.Not.of(g))) and not sl.normalize_dnf(
        sl.And.of(g, sl.Not.of(f))
    )


class TestSharedNodes:
    def test_packages_export_the_shared_classes(self):
        assert (sl.Bool, sl.Atom, sl.And, sl.Or, sl.Not) == NODES
        assert mc.MNot is boolean.Not

    @pytest.mark.parametrize(
        "parse, text",
        [
            (sl.parse_formula, "x1 < 1 & (x2 > 0 | !(x1 = x2)) & exists x3 (x3 < x1)"),
            (mc.parse_mixed_formula, "v(x - t) >= 1 & (g1 > 0 | !(v(x) = inf))"),
        ],
    )
    def test_parsers_return_shared_nodes(self, parse, text):
        f = parse(text)
        assert isinstance(f, boolean.And)
        assert set(node_types(f)) <= set(NODES)
        assert {boolean.Atom, boolean.Or, boolean.Not} <= set(node_types(f))

    def test_mixed_arity_is_the_group_arity(self):
        f = mc.parse_mixed_formula("v(x) > 0 | g1 < g2")
        assert f.arity == 2
        assert all(a.arity == 2 for a in f.atoms())


class TestGrammar:
    @pytest.mark.parametrize(
        "shape",
        ["(A", "A &", "| A", "A )", "!"]
        + ["1/2*V1 < 1", "2*3 < V1", "V1 + < 1", "V1 < 1/0", "V0 < 1", "V9 < 1"],
    )
    def test_both_dsls_report_the_same_error(self, shape):
        """``A`` is an atom and ``V`` the variable prefix of each DSL; the
        texts are parsed at arity 2, and the messages compared with the
        variable names written ``V<index>``."""
        errors = []
        for parse, prefix in ((sl.parse_formula, "x"), (mc.parse_mixed_formula, "g")):
            text = shape.replace("A", "V1 < 1").replace("V", prefix)
            with pytest.raises((ParseError, SemanticError)) as info:
                parse(text, 2)
            message = re.sub(rf"\b{prefix}(\d)", r"V\1", str(info.value))
            errors.append((type(info.value), message, getattr(info.value, "position", None)))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize(
        "parse, text, n, expected",
        [
            (sl.parse_formula, "x1 + x1 - 3*x2 < x2 + 1", None, sl.atom((2, -4), "<", 1)),
            (sl.parse_formula, "2 + x1 <= 1/2 - x2", 2, sl.atom((1, 1), "<=", F(-3, 2))),
            (sl.parse_formula, "1/2 - 2 < 3*x1 - x1", None, sl.atom((-2,), "<", F(3, 2))),
            (sl.parse_formula, "-x2 + 2 == 3", 3, sl.atom((0, -1, 0), "=", 1)),
            (sl.parse_formula, "- 3*x2 > -x1", None, sl.atom((1, -3), ">", 0)),
            (sl.parse_formula, "x1 - x1 + 1 < 2", 1, sl.Bool(True, 1)),
            (mc.parse_mixed_formula, "g1 + g1 - v(x) < 2 - g2", None,
             mc.matom(-1, X, (2, 1), "<", 2)),
            (mc.parse_mixed_formula, "v(x - t) + 1 >= 2*v(x - t) - 1/2 + g1", None,
             mc.matom(-1, X_MINUS_T, (-1,), ">=", F(-3, 2))),
            (mc.parse_mixed_formula, "-g1 == 3", 2, mc.matom(0, None, (-1, 0), "=", 3)),
            (mc.parse_mixed_formula, "-2*v(x) + 3 != 1 + g1 - g1", 1,
             mc.matom(-2, X, (0,), "!=", -2)),
            (mc.parse_mixed_formula, "inf == v(x)", None, mc.matom(1, X, (), "=", mc.INFINITY)),
            (mc.parse_mixed_formula, "v(x) - v(x) + 2 < 1", None, mc.matom(0, None, (), "<", -1)),
        ],
    )
    def test_parses_equal_atoms_built_by_hand(self, parse, text, n, expected):
        assert parse(text, n) == expected

    @pytest.mark.parametrize(
        "parse, arity",
        [(sl.parse_formula, 2), (mc.parse_mixed_formula, 2)],
    )
    def test_true_and_false_are_constants(self, parse, arity):
        assert parse("true", arity) == boolean.Bool(True, arity)
        assert parse("false", arity) == boolean.Bool(False, arity)
        assert parse("!(true & false)", arity) == boolean.Bool(True, arity)
        assert parse("true") == boolean.Bool(True, 0)

    def test_dsl_round_trip_defines_the_same_set(self):
        for n, f in verify.formula_instances(0, 200):
            assert same_set(sl.parse_formula(sl.formula_to_dsl(f), n), f)
            for k in range(n):
                for keep in combinations(range(n), k):
                    p = sl.project(f, list(keep))
                    back = sl.parse_formula(sl.formula_to_dsl(p), k)
                    assert back.arity == k and same_set(back, p)


class TestMapAtoms:
    def test_identity_returns_an_equal_formula(self):
        for _, f in verify.formula_instances(0, 100):
            assert boolean.map_atoms(f, boolean.Atom, f.arity) == f
        rng = random.Random(3)
        polys = [verify.random_factored_poly(rng, 2)]
        for _ in range(20):
            g = verify.random_mixed_formula(rng, 2, polys)
            assert boolean.map_atoms(g, boolean.Atom, g.arity) == g

    def test_bool_leaves_take_the_new_arity(self):
        assert boolean.map_atoms(sl.Bool(True, 1), boolean.Atom, 3) == sl.Bool(True, 3)
        assert boolean.map_atoms(sl.Not(sl.Bool(False)), boolean.Atom, 2) == sl.Bool(True, 2)
        a = sl.atom((1, 0), "<", 1)
        assert boolean.map_atoms(sl.Or((sl.Bool(False), a)), boolean.Atom, 2) == a

    def test_embed_moves_variables(self):
        f = sl.parse_formula("x1 < x2", 2)
        g = sl.embed(f, (2, 0), 3)
        assert g == sl.parse_formula("x3 < x1", 3)
        assert sl.exists(sl.parse_formula("x1 < x2 & x2 < x3"), 1) == sl.parse_formula(
            "x1 - x3 < 0", 3
        )


class Var:
    """An atom that reads one position of a tuple of bools."""

    arity = 0

    def __init__(self, i):
        self.i = i

    def holds(self, bits):
        return bits[self.i]


VARS = 3
ASSIGNMENTS = [tuple(bool(p >> i & 1) for i in range(VARS)) for p in range(2**VARS)]


def random_tree(rng, depth):
    """A tree built with the node constructors, not ``of``: constants may sit
    anywhere, under ``Not`` too, and ``And``/``Or`` may have one part."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.3:
            return boolean.Bool(rng.random() < 0.5)
        return boolean.Atom(Var(rng.randrange(VARS)))
    kind = rng.choice((boolean.And, boolean.Or, boolean.Not))
    if kind is boolean.Not:
        return boolean.Not(random_tree(rng, depth - 1))
    return kind(tuple(random_tree(rng, depth - 1) for _ in range(rng.randint(1, 3))))


def reference(f, bits):
    if isinstance(f, boolean.Bool):
        return f.value
    if isinstance(f, boolean.Atom):
        return bits[f.atom.i]
    if isinstance(f, boolean.Not):
        return not reference(f.part, bits)
    if isinstance(f, boolean.And):
        return all(reference(p, bits) for p in f.parts)
    return any(reference(p, bits) for p in f.parts)


TREES = [random_tree(random.Random(seed), 5) for seed in range(300)]


class TestEvaluate:
    def test_bools_match_the_reference(self):
        for f in TREES:
            for bits in ASSIGNMENTS:
                expected = reference(f, bits)
                assert boolean.evaluate(f, lambda a: bits[a.i]) is expected
                assert f.holds(bits) is expected

    def test_masks_stack_the_bool_evaluations(self):
        top = (1 << len(ASSIGNMENTS)) - 1
        masks = [sum(1 << p for p, bits in enumerate(ASSIGNMENTS) if bits[i]) for i in range(VARS)]
        for f in TREES + [boolean.Not(boolean.Bool(True)), boolean.Or((boolean.Bool(False),))]:
            expected = sum(reference(f, bits) << p for p, bits in enumerate(ASSIGNMENTS))
            assert boolean.evaluate(f, lambda a: masks[a.i], top) == expected

    def test_junctions_stop_at_their_absorbing_value(self):
        seen = []

        def value(a):
            seen.append(a.i)
            return a.i == 1

        x0, x1, x2 = (boolean.Atom(Var(i)) for i in range(3))
        assert boolean.evaluate(boolean.And((x0, x1, x2)), value) is False
        assert seen == [0]
        seen.clear()
        assert boolean.evaluate(boolean.Or((x0, x1, x2)), value) is True
        assert seen == [0, 1]


def reference_nnf(f, positive=True):
    """Negation normal form through the ``of`` constructors."""
    if isinstance(f, sl.Bool):
        return sl.Bool(f.value if positive else not f.value, f.arity)
    if isinstance(f, sl.Atom):
        return f if positive else sl.negate_atom(f.atom)
    if isinstance(f, sl.Not):
        return reference_nnf(f.part, not positive)
    parts = [reference_nnf(p, positive) for p in f.parts]
    conj = isinstance(f, sl.And) == positive
    return sl.And.of(*parts) if conj else sl.Or.of(*parts)


def reference_distribute(f):
    """The disjunct atom tuples of an NNF tree, distributed in order."""
    if isinstance(f, sl.Bool):
        return [()] if f.value else []
    if isinstance(f, sl.Atom):
        return [(f.atom,)]
    if isinstance(f, sl.Or):
        return [d for p in f.parts for d in reference_distribute(p)]
    disjuncts = [()]
    for p in f.parts:
        disjuncts = [d + b for d in disjuncts for b in reference_distribute(p)]
    return disjuncts


class TestDnf:
    def test_one_pass_equals_nnf_then_distribute(self):
        for _, f in verify.formula_instances(0, 200):
            for g in (f, sl.Not.of(f)):
                assert dnf_lists(g) == reference_distribute(reference_nnf(g))

    def test_negated_equality_splits_in_two(self):
        a = sl.atom((1, -1), "=", 0)
        assert dnf_lists(sl.Not.of(a)) == reference_distribute(sl.negate_atom(a.atom))
        assert len(dnf_lists(sl.Not.of(a))) == 2


class TestJunctions:
    def test_and_and_or_are_told_apart(self):
        a, b = sl.atom((1, 0), "<", 1), sl.atom((0, 1), "<", 1)
        conj, disj = sl.And.of(a, b), sl.Or.of(a, b)
        assert conj.parts == disj.parts and conj != disj
        assert repr(conj).startswith("And(") and repr(disj).startswith("Or(")
        assert conj == sl.And.of(a, b) and hash(conj) == hash(sl.And.of(a, b))

    def test_of_flattens_folds_and_keeps_arity(self):
        a, b, c = (sl.atom(cs, "<", 1) for cs in ((1, 0), (0, 1), (1, 1)))
        for node, unit in ((sl.And, True), (sl.Or, False)):
            assert node.of(node.of(a, b), c).parts == (a, b, c)
            assert node.of(a, sl.Bool(unit, 2)) == a
            assert node.of(a, sl.Bool(not unit)) == sl.Bool(not unit, 2)
            assert node.of(sl.Bool(unit, 2), sl.Bool(unit)) == sl.Bool(unit, 2)
            assert node.of() == sl.Bool(unit, 0)
            assert node.of(a, b).arity == 2
        mixed = sl.And.of(sl.Or.of(a, b), c)
        assert isinstance(mixed, sl.And) and isinstance(mixed.parts[0], sl.Or)
