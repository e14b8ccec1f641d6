"""The Boolean core both DSLs share: nodes, grammar and ``map_atoms``."""

import hashlib
import random
import re
from fractions import Fraction as F
from itertools import combinations

import pytest

import test_cli
import test_fuzz
from valdim import boolean, trop, verify
from valdim import mixedcell as mc
from valdim import semilinear as sl
from valdim.errors import ParseError, SemanticError
from valdim.semilinear import atoms
from valdim.semilinear.atoms import _dnf_lists as dnf_lists

NODES = (boolean.Bool, boolean.Atom, boolean.And, boolean.Or, boolean.Not)
X = mc.FactoredPoly(1, ((mc.PuiseuxElement(), 1),))
X_MINUS_T = mc.FactoredPoly(1, ((mc.PuiseuxElement(((1, 1),)), 1),))


def nodes(f):
    """Every node of ``f``, leaves included."""
    yield f
    for p in getattr(f, "parts", ()):
        yield from nodes(p)
    if isinstance(f, boolean.Not):
        yield from nodes(f.part)


def node_types(f):
    """The node classes of ``f``, each atom leaf counted as ``boolean.Atom``."""
    return {boolean.Atom if isinstance(n, boolean.Atom) else type(n) for n in nodes(f)}


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

    def test_a_leaf_is_its_atom(self):
        formulas = [f for _, f in verify.formula_instances(0, 100)]
        rng = random.Random(3)
        polys = [verify.random_factored_poly(rng, 2)]
        formulas += [verify.random_mixed_formula(rng, 2, polys) for _ in range(20)]
        for f in formulas:
            inner = (boolean.Junction, boolean.Not, boolean.Bool)
            leaves = [n for n in nodes(f) if not isinstance(n, inner)]
            assert leaves and all(isinstance(a, (sl.LinearAtom, mc.MixedAtom)) for a in leaves)
            assert set(leaves) == f.atoms()
            assert {id(a) for a in f.atoms()} <= {id(a) for a in leaves}

    def test_a_one_atom_formula_keeps_its_disjuncts(self):
        """A one-atom formula is the atom, and the DNF kept on it needs an
        instance ``__dict__``: ``Formula`` and ``Atom`` have no ``__slots__``."""
        f = sl.parse_formula("x1 < 1")
        assert isinstance(f, sl.LinearAtom)
        first, second = atoms.dnf(f), atoms.dnf(f)
        assert len(first) == 1 and all(b is c for b, c in zip(first, second))

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
        "text, message, position",
        [
            ("x1 < 1 $", "unexpected character '$'", 7),
            ("x1 < 1.5", "unexpected character '.'", 6),
            ("g1 < \u00e9", "unexpected character '\u00e9'", 5),
            ("x1 <", "unexpected end of input", 4),
            ("x1 < 1 & ", "unexpected end of input", 9),
            ("   ", "unexpected end of input", 3),
            ("", "unexpected end of input", 0),
            ("x1 \u2264 2", "unexpected character '\u2264'", 3),
            ("x1 <  2 @ ", "unexpected character '@'", 8),
            # INT is ASCII digits: other Unicode decimal digits are refused
            ("x1 < \u0661", "unexpected character '\u0661'", 5),
            ("v(x - t^\u0662) + g1 < 0", "unexpected character '\u0662'", 8),
            ("x1 < 1\uff10", "unexpected character '\uff10'", 6),
        ],
    )
    def test_tokenizer_errors_keep_their_message_and_position(self, text, message, position):
        with pytest.raises(ParseError) as info:
            sl.parse_formula(text)
        assert str(info.value) == f"{message} (at position {position})"
        assert info.value.position == position

    @pytest.mark.parametrize("text", ["x1 < 1   ", "  x1 <\t1\n", "x1<1"])
    def test_whitespace_reads_as_before(self, text):
        assert sl.parse_formula(text) == sl.atom((1,), "<", 1)

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
             mc.matom([(X, -1)], (2, 1), "<", 2)),
            (mc.parse_mixed_formula, "v(x - t) + 1 >= 2*v(x - t) - 1/2 + g1", None,
             mc.matom([(X_MINUS_T, -1)], (-1,), ">=", F(-3, 2))),
            (mc.parse_mixed_formula, "-g1 == 3", 2, mc.matom((), (-1, 0), "=", 3)),
            (mc.parse_mixed_formula, "-2*v(x) + 3 != 1 + g1 - g1", 1,
             mc.matom([(X, -2)], (0,), "!=", -2)),
            (mc.parse_mixed_formula, "inf == v(x)", None, mc.matom([(X, 1)], (), "=", mc.INFINITY)),
            (mc.parse_mixed_formula, "v(x) - v(x) + 2 < 1", None, mc.matom((), (), "<", -1)),
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

    @pytest.mark.parametrize(
        "parse, text, n, arity",
        [
            (sl.parse_formula, "x000002 < 1", None, 2),
            (mc.parse_mixed_formula, "g000003 < 1", None, 3),
            (sl.parse_formula, "x0003 < 1", 4, 4),
            # the largest index only inside 'exists', or only in the last comparison
            (sl.parse_formula, "exists x3 (x3 < x1)", None, 3),
            (sl.parse_formula, "x1 < 1 & x2 < 1 | x5 > 0", None, 5),
            (mc.parse_mixed_formula, "g1 < 1 & v(x) > g4", None, 4),
            (mc.parse_mixed_formula, "v(x - 1) = inf | g2 < 0", None, 2),
            (mc.parse_mixed_formula, "v(x) > 0", None, 0),
            # constants, with and without a declared arity
            (sl.parse_formula, "true", None, 0),
            (sl.parse_formula, "false", 3, 3),
            (mc.parse_mixed_formula, "!(true & false)", None, 0),
            (mc.parse_mixed_formula, "false | true", 1, 1),
            # nested 'exists', and 'exists' over a constant body
            (sl.parse_formula, "exists x1 (exists x4 (x4 < x1) & x2 < 0)", None, 4),
            (sl.parse_formula, "exists x2 (true)", None, 2),
            (sl.parse_formula, "exists x2 (false)", 3, 3),
            (sl.parse_formula, "exists x3 (0 < 1) & x1 > 0", None, 3),
        ],
    )
    def test_arity_is_read_off_the_variables(self, parse, text, n, arity):
        f = parse(text, n)
        assert f.arity == arity
        assert f == parse(text, arity)
        assert all(a.arity == arity for a in f.atoms())

    @pytest.mark.parametrize(
        "parse, text, message, position",
        [
            (sl.parse_formula, "x0 < 1", "variable indices start at x1, got 'x0'", 0),
            (sl.parse_formula, "x1 < x00000", "variable indices start at x1, got 'x00000'", 5),
            (sl.parse_formula, "exists x0 (x1 < 0)", "variable indices start at x1, got 'x0'", 7),
            (mc.parse_mixed_formula, "v(x) < g0", "variable indices start at g1, got 'g0'", 7),
            (sl.parse_formula, "x1 < x10001",
             f"variable index 'x10001' is above the limit of {boolean.MAX_VARIABLES}", 5),
            (sl.parse_formula, "x1 < 1 & x1234567 > 0",
             f"variable index 'x1234567' is above the limit of {boolean.MAX_VARIABLES}", 9),
            (mc.parse_mixed_formula, "g2 < g0010001",
             f"variable index 'g0010001' is above the limit of {boolean.MAX_VARIABLES}", 5),
        ],
    )
    def test_index_errors_keep_their_message_and_position(self, parse, text, message, position):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == f"{message} (at position {position})"

    def test_dsl_round_trip_defines_the_same_set(self):
        for n, f in verify.formula_instances(0, 200):
            assert same_set(sl.parse_formula(sl.formula_to_dsl(f), n), f)
            for k in range(n):
                for keep in combinations(range(n), k):
                    p = sl.project(f, list(keep))
                    back = sl.parse_formula(sl.formula_to_dsl(p), k)
                    assert back.arity == k and same_set(back, p)


#: Characters a token may start with; whitespace separates tokens, and any
#: other character is refused wherever it stands.
TOKEN_CHARS = set("0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_<>=!()&|*/^+-")


class TestBadCharacters:
    @pytest.mark.parametrize("block", range(0, 0x3000, 0x400))
    def test_each_code_point_below_u3000(self, block):
        for cp in range(block, block + 0x400):
            self.check(chr(cp))

    def test_a_seeded_sample_above_u3000(self):
        rng = random.Random("bad characters")
        for _ in range(3000):
            self.check(chr(rng.randrange(0x3000, 0x110000)))

    @staticmethod
    def check(ch):
        """``x1 < 1 ch`` fails at ``ch`` exactly when ``ch`` is neither a blank nor
        a token character."""
        try:
            sl.parse_formula(f"x1 < 1 {ch}")
        except ParseError as e:
            refused = e.message == f"unexpected character {ch!r}"
            assert not refused or e.position == 7, (ch, str(e))
        else:
            refused = False
        assert refused == (not ch.isspace() and ch not in TOKEN_CHARS), repr(ch)


def parse_digest_texts():
    """The texts of :class:`TestParseDigests`: DSL renderings of seeded
    formulas and their projections, the fuzz corpus, the mixed digest
    formulas, seeded Puiseux literals and seeded tropical polynomials, each
    also under three seeded edits."""
    texts = []
    for n, f in verify.formula_instances(0, 300):
        texts.append(sl.formula_to_dsl(f))
        texts.append(sl.formula_to_dsl(sl.project(f, list(range(n - 1)))))
    texts += test_fuzz.GAMMA_TEXTS + test_fuzz.MIXED_TEXTS + test_fuzz.TROP_TEXTS
    texts += [text for _, text, _ in test_cli.TestMixedOutputDigests.CASES]
    rng = random.Random("puiseux literals")
    texts += [str(verify.random_puiseux(rng, 4)) for _ in range(100)]
    for _ in range(50):
        poly = verify.random_trop_poly(rng, rng.choice([2, 3]))
        texts.append("+".join(f"{w}@{e}" for e, w in poly.terms).replace(" ", ""))
    rng = random.Random("parse digests")
    families = test_fuzz.FAMILIES.values()
    alphabet = sorted({c for cmds in families for *_, chars in cmds for c in chars})
    return texts + [test_fuzz.edit(rng, t, alphabet) for t in texts for _ in range(3)]


def outcome(read, text):
    """``repr`` of what ``read`` makes of ``text``, or the class, message and
    position of its error."""
    try:
        return repr(read(text))
    except ValueError as e:
        return repr((type(e).__name__, str(e), getattr(e, "position", None)))


class TestParseDigests:
    """What each DSL reader returns or raises on a fixed corpus, fixed byte for byte.

    One sha256 per reader covers the ``repr`` of every result and the
    class, message and position of every error, so a change to the
    tokenizer or the grammar cannot alter either unseen.
    """

    READERS = {
        "parse_formula": sl.parse_formula,
        "parse_mixed_formula": mc.parse_mixed_formula,
        "parse_puiseux": mc.parse_puiseux,
        "trop_poly_from_text": trop.trop_poly_from_text,
    }
    DIGESTS = {
        "parse_formula": "e9c1a4f274718453",
        "parse_mixed_formula": "8df9eb1812b6abe3",
        "parse_puiseux": "2371a792110f9a52",
        "trop_poly_from_text": "64a376fb6451d044",
    }

    @pytest.fixture(scope="class")
    def texts(self):
        return parse_digest_texts()

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_outcomes_unchanged(self, texts, reader):
        h = hashlib.sha256()
        for text in texts:
            h.update(outcome(self.READERS[reader], text).encode() + b"\n")
        assert h.hexdigest()[:16] == self.DIGESTS[reader]


class TestMapAtoms:
    def test_identity_returns_an_equal_formula(self):
        for _, f in verify.formula_instances(0, 100):
            assert boolean.map_atoms(f, lambda a: a, f.arity) == f
        rng = random.Random(3)
        polys = [verify.random_factored_poly(rng, 2)]
        for _ in range(20):
            g = verify.random_mixed_formula(rng, 2, polys)
            assert boolean.map_atoms(g, lambda a: a, g.arity) == g

    def test_bool_leaves_take_the_new_arity(self):
        assert boolean.map_atoms(sl.Bool(True, 1), lambda a: a, 3) == sl.Bool(True, 3)
        assert boolean.map_atoms(sl.Not(sl.Bool(False)), lambda a: a, 2) == sl.Bool(True, 2)
        a = sl.atom((1, 0), "<", 1)
        assert boolean.map_atoms(sl.Or((sl.Bool(False), a)), lambda a: a, 2) == a

    def test_embed_moves_variables(self):
        f = sl.parse_formula("x1 < x2", 2)
        g = sl.embed(f, (2, 0), 3)
        assert g == sl.parse_formula("x3 < x1", 3)
        assert sl.exists(sl.parse_formula("x1 < x2 & x2 < x3"), 1) == sl.parse_formula(
            "x1 - x3 < 0", 3
        )


class Var(boolean.Atom):
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
        return Var(rng.randrange(VARS))
    kind = rng.choice((boolean.And, boolean.Or, boolean.Not))
    if kind is boolean.Not:
        return boolean.Not(random_tree(rng, depth - 1))
    return kind(tuple(random_tree(rng, depth - 1) for _ in range(rng.randint(1, 3))))


def reference(f, bits):
    if isinstance(f, boolean.Bool):
        return f.value
    if isinstance(f, boolean.Atom):
        return bits[f.i]
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

        x0, x1, x2 = (Var(i) for i in range(3))
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
        return f if positive else sl.negate_atom(f)
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
        return [(f,)]
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
        assert dnf_lists(sl.Not.of(a)) == reference_distribute(sl.negate_atom(a))
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
