"""The Boolean core both DSLs share: nodes, grammar and ``map_atoms``."""

import random
from itertools import combinations

import pytest

from valdim import boolean, verify
from valdim import mixedcell as mc
from valdim import semilinear as sl
from valdim.errors import ParseError

NODES = (boolean.Bool, boolean.Atom, boolean.And, boolean.Or, boolean.Not)


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
    @pytest.mark.parametrize("shape", ["(A", "A &", "| A", "A )", "!"])
    def test_both_dsls_report_the_same_error(self, shape):
        errors = []
        for parse, atom in ((sl.parse_formula, "x1 < 1"), (mc.parse_mixed_formula, "g1 < 1")):
            with pytest.raises(ParseError) as info:
                parse(shape.replace("A", atom))
            errors.append((str(info.value), info.value.position))
        assert errors[0] == errors[1]

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
