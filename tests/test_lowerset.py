import random
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valdim import lowerset
from valdim.lowerset import (
    NEG_INF,
    _antichain,
    LowerSet,
    add,
    dim_nat,
    join,
    lower_closure,
    principal,
    render_diagram,
    shift_closure,
    shift_closure3,
)

D1 = [(0, 0), (0, 3), (0, 4), (1, 4), (2, 0), (2, 1), (2, 2), (4, 0), (4, 1)]


def brute_points(maxima):
    out = set()
    for m in maxima:
        out.update(product(*(range(c + 1) for c in m)))
    return out


def brute_maximal(pts):
    """The points of ``pts`` no other point lies above, by comparing every pair."""
    return {
        p for p in pts
        if not any(q != p and all(a <= b for a, b in zip(p, q)) for q in pts)
    }


class TestPrincipal:
    def test_rectangle(self):
        p = principal((3, 5))
        assert p.maxima == ((3, 5),)
        assert p.points() == {(x, y) for x in range(4) for y in range(6)}

    def test_origin(self):
        assert principal((0, 0)).points() == {(0, 0)}

    def test_enumeration(self):
        assert principal((1, 2)).points() == {
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)
        }


class TestLowerClosure:
    def test_antichain_of_d1(self):
        assert lower_closure(D1).maxima == ((1, 4), (2, 2), (4, 1))

    def test_empty(self):
        assert lower_closure([]).is_empty()

    def test_already_antichain(self):
        assert lower_closure([(2, 0), (1, 1)]).maxima == ((1, 1), (2, 0))

    def test_membership(self):
        d2 = lower_closure(D1)
        assert (3, 1) in d2 and (3, 2) not in d2


class TestAntichain:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("width", [2, 3])
    def test_matches_the_brute_force_maximal_filter(self, seed, width):
        rng = random.Random(seed)
        for _ in range(40):
            top = rng.choice([2, 5, 20])
            pts = [tuple(rng.randint(0, top) for _ in range(width))
                   for _ in range(rng.randint(0, 60))]
            assert _antichain(pts) == tuple(sorted(brute_maximal(pts)))

    @pytest.mark.parametrize("seed", range(4))
    def test_long_width_3_staircases(self, seed):
        rng = random.Random(seed)
        for _ in range(5):
            top = rng.choice([6, 15, 40])
            pts = [tuple(rng.randint(0, top) for _ in range(3)) for _ in range(300)]
            # points near one plane keep many maxima in the staircase
            pts += [(a, b, top - a - b) for a in range(top + 1) for b in range(top + 1 - a)
                    if rng.random() < 0.5]
            assert _antichain(pts) == tuple(sorted(brute_maximal(pts)))


class TestJoinAdd:
    def test_join_incomparable(self):
        u = join(principal((1, 0)), principal((0, 2)))
        assert u.maxima == ((0, 2), (1, 0))

    def test_join_identity(self):
        a = lower_closure(D1)
        assert join(a, LowerSet(())) == a

    def test_join_absorption(self):
        assert join(principal((1, 1)), principal((2, 2))) == principal((2, 2))

    def test_add_principals(self):
        assert add(principal((1, 0)), principal((0, 2))) == principal((1, 2))

    def test_add_identity(self):
        a = lower_closure(D1)
        assert add(a, principal((0, 0))) == a

    def test_add_matches_pointwise_sums(self):
        a = join(principal((1, 0)), principal((0, 1)))
        s = add(a, a)
        sums = {
            (p[0] + q[0], p[1] + q[1]) for p in a.points() for q in a.points()
        }
        assert s.points() == brute_points(lower_closure(sums).maxima)
        assert s.maxima == ((0, 2), (1, 1), (2, 0))


def shift_oracle(a: LowerSet) -> set:
    """max over k of a + (-k, k), enumerated pointwise."""
    out = set()
    for (x, y) in a.points():
        for k in range(x + 1):
            out.add((x - k, y + k))
    return out


class TestShiftClosure:
    def test_no_valued_dimension(self):
        assert shift_closure(principal((0, 7))) == principal((0, 7))

    def test_two_steps(self):
        s = shift_closure(principal((2, 0)))
        assert s.maxima == ((0, 2), (1, 1), (2, 0))
        assert s.points() == shift_oracle(principal((2, 0)))

    def test_matches_enumeration_oracle(self):
        d4 = join(principal((1, 4)), principal((5, 1)))
        assert shift_closure(d4).points() == shift_oracle(d4)

    def test_closure_operator_laws(self):
        a = lower_closure(D1)
        s = shift_closure(a)
        assert shift_closure(s) == s
        assert a <= s
        assert dim_nat(s) == dim_nat(a)


class TestShiftClosure3:
    def test_single_valued_dimension(self):
        s = shift_closure3(principal((1, 0, 0)))
        assert s.maxima == ((0, 0, 1), (0, 1, 0), (1, 0, 0))

    def test_group_and_residue_fixed(self):
        assert shift_closure3(principal((0, 1, 1))) == principal((0, 1, 1))

    def test_two_valued_dimensions(self):
        s = shift_closure3(principal((2, 0, 0)))
        expected = lower_closure(
            [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
        )
        assert s == expected

    def test_fixpoint_oracle(self):
        a = lower_closure([(2, 1, 0), (1, 0, 2)])
        pts = set(a.points())
        moves = ((-1, 0, 0), (-1, 1, 0), (-1, 0, 1), (0, -1, 0), (0, 0, -1))
        frontier = set(pts)
        while frontier:
            nxt = set()
            for p in frontier:
                for m in moves:
                    q = tuple(c + d for c, d in zip(p, m))
                    if all(c >= 0 for c in q) and q not in pts:
                        pts.add(q)
                        nxt.add(q)
            frontier = nxt
        assert shift_closure3(a).points() == pts


def shift_fixpoint(a):
    """The shift closure by single moves to a fixpoint, from the maxima."""
    w = a.width
    moves = [(-1,) + tuple(int(i == j) for i in range(w - 1)) for j in range(w - 1)]
    gens, frontier = set(a.maxima), set(a.maxima)
    while frontier:
        frontier = {
            q for p in frontier for m in moves
            for q in [tuple(c + d for c, d in zip(p, m))] if q[0] >= 0
        } - gens
        gens |= frontier
    return lower_closure(gens)


class TestShiftBound:
    """One generator rule for both widths, refused past ``MAX_POINTS`` generators."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_single_move_fixpoint(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            w = rng.choice((2, 3))
            a = lower_closure(
                [tuple(rng.randint(0, 9) for _ in range(w)) for _ in range(rng.randint(1, 5))]
            )
            assert shift_closure(a) == shift_fixpoint(a)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_product_route(self, seed):
        """The generators filtered from all of ``range(p_1 + 1) ** (w - 1)``
        give the same maxima, in the same order."""
        rng = random.Random(f"product route {seed}")
        for _ in range(25):
            w = rng.choice((2, 3))
            a = lower_closure(
                [tuple(rng.randint(0, 12) for _ in range(w)) for _ in range(rng.randint(1, 6))]
            )
            gens = [
                (d1 - sum(k), *(r + c for r, c in zip(rest, k)))
                for d1, *rest in a.maxima
                for k in product(range(d1 + 1), repeat=w - 1)
                if sum(k) <= d1
            ]
            assert shift_closure(a).maxima == lower_closure(gens).maxima

    def test_refused_past_the_limit(self, monkeypatch):
        monkeypatch.setattr(lowerset, "MAX_POINTS", 10)
        # p generates C(p_1 + w - 1, w - 1) points, summed over the maxima
        assert len(shift_closure(principal((9, 0))).maxima) == 10
        assert len(shift_closure(principal((3, 0, 0))).maxima) == 10
        two = shift_closure(lower_closure([(4, 0), (0, 9)]))
        assert two == lower_closure([(0, 9), (1, 3), (2, 2), (3, 1), (4, 0)])
        for a in (principal((10, 0)), principal((4, 0, 0)), lower_closure([(5, 0), (4, 1)])):
            with pytest.raises(ValueError, match="more than 10 points"):
                shift_closure(a)

    def test_a_large_n3_shift_is_quick(self):
        start = time.monotonic()
        s = shift_closure3(principal((140, 0, 0)))
        assert len(s.maxima) == 141 * 142 // 2
        assert time.monotonic() - start < 1.0
        with pytest.raises(ValueError, match="points is not built"):
            shift_closure3(principal((10**50, 0, 0)))


class TestDimNat:
    def test_d2(self):
        assert dim_nat(lower_closure(D1)) == 5

    def test_d4(self):
        assert dim_nat(join(principal((1, 4)), principal((5, 1)))) == 6

    def test_empty_sentinel(self):
        assert dim_nat(LowerSet(())) == NEG_INF


def membership_drawing(a):
    """The diagram drawn cell by cell with ``in``: the reference for the fast rows."""
    xmax = max(p[0] for p in a.maxima)
    ymax = max(p[1] for p in a.maxima)
    ywidth = len(str(ymax))
    xwidth = max(len(str(x)) for x in range(xmax + 1))
    lines = []
    for y in range(ymax, -1, -1):
        cells = [("•" if (x, y) in a else ".").rjust(xwidth) for x in range(xmax + 1)]
        lines.append(f"{str(y).rjust(ywidth)} | " + " ".join(cells))
    lines.append(" " * ywidth + " +" + "-" * ((xwidth + 1) * (xmax + 1) + 1))
    lines.append(" " * (ywidth + 3) + " ".join(str(x).rjust(xwidth) for x in range(xmax + 1)))
    return "\n".join(lines)


class TestRender:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_membership_drawing(self, seed):
        rng = random.Random(seed)
        for _ in range(30):
            top = rng.choice([1, 3, 12, 120])
            a = lower_closure((rng.randint(0, top), rng.randint(0, top))
                              for _ in range(rng.randint(1, 12)))
            assert render_diagram(a) == membership_drawing(a)

    def test_square(self):
        out = render_diagram(principal((1, 1)))
        rows = out.splitlines()
        assert rows[0] == "1 | • •"
        assert rows[1] == "0 | • •"
        assert rows[-1].split() == ["0", "1"]

    def test_empty(self):
        assert render_diagram(LowerSet(())) == "(empty)"

    def test_d2_bullet_pattern(self):
        out = render_diagram(lower_closure(D1))
        grid = [line.split("| ")[1].split() for line in out.splitlines()[:5]]
        heights = [sum(1 for row in grid if row[x] == "•") for x in range(5)]
        assert heights == [5, 5, 3, 2, 2]


class TestJsonAndValidation:
    def test_round_trip(self):
        a = lower_closure(D1)
        assert LowerSet.from_json(a.to_json()) == a

    def test_value_semantics(self):
        """Equal, hashed and shown by ``maxima`` alone, and immutable."""
        a = LowerSet(((2, 1), (1, 2), (0, 0)))
        assert repr(a) == "LowerSet(maxima=((1, 2), (2, 1)))"
        assert a == LowerSet([(1, 2), (2, 1)]) and hash(a) == hash((((1, 2), (2, 1)),))
        assert a != principal((1, 2)) and a.__eq__(a.maxima) is NotImplemented
        assert len({a, lower_closure([(1, 1), (1, 2), (2, 1)])}) == 1
        with pytest.raises(AttributeError):
            a.maxima = ()

    def test_sorted_encoding(self):
        a = lower_closure([(4, 1), (1, 4), (2, 2)])
        assert a.to_json() == '{"maxima": [[1, 4], [2, 2], [4, 1]]}'

    def test_negative_coordinate_rejected(self):
        with pytest.raises(ValueError):
            LowerSet(((-1, 0),))

    def test_empty_operand_takes_the_other_width(self):
        empty, a3 = LowerSet(()), principal((1, 2, 3))
        assert join(empty, a3) == a3 and join(a3, empty) == a3
        assert add(empty, a3) == empty and add(a3, empty) == empty
        assert add(empty, principal((1, 1))) == empty

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            join(principal((1, 0)), principal((1, 0, 0)))
        with pytest.raises(ValueError, match="add requires"):
            add(principal((1, 0)), principal((1, 0, 0)))
        with pytest.raises(ValueError, match="N\\^2, got"):
            lower_closure([(1, 0), (1, 0, 0)])
        with pytest.raises(ValueError, match="comparison requires"):
            principal((1, 2, 5)) <= principal((1, 2))
        assert LowerSet() <= principal((1, 2, 5)) and not principal((1, 2)) <= LowerSet()

    @pytest.mark.parametrize("point", [(), (1,), (1, 2, 3, 4)])
    def test_only_widths_two_and_three(self, point):
        with pytest.raises(ValueError, match="N\\^2 or N\\^3"):
            principal(point)
        with pytest.raises(ValueError, match="N\\^2 or N\\^3"):
            point in principal((1, 1))

    def test_width_read_off_the_maxima(self):
        assert principal((1, 2)).width == 2 and principal((1, 2, 3)).width == 3
        assert LowerSet().width is None and LowerSet() == lower_closure([])

    def test_shift_closure_takes_either_width(self):
        a3 = principal((2, 0, 1))
        assert shift_closure(a3) == shift_closure3(a3)
        with pytest.raises(ValueError):
            shift_closure3(principal((2, 0)))
        with pytest.raises(ValueError):
            render_diagram(a3)


points2 = st.tuples(st.integers(0, 6), st.integers(0, 6))
sets2 = st.lists(points2, max_size=5).map(lower_closure)


@settings(max_examples=60, deadline=None)
@given(sets2)
def test_canonical_antichain(a):
    for p in a.maxima:
        for q in a.maxima:
            if p != q:
                assert not all(x <= y for x, y in zip(p, q))


@settings(max_examples=60, deadline=None)
@given(sets2, sets2)
def test_join_is_least_upper_bound(a, b):
    u = join(a, b)
    assert a <= u and b <= u
    assert u.points() == a.points() | b.points()
    assert dim_nat(u) == max(dim_nat(a), dim_nat(b))


@settings(max_examples=60, deadline=None)
@given(sets2, sets2, sets2)
def test_add_monotone_and_collapse(a, b, c):
    if a.is_empty() or b.is_empty() or c.is_empty():
        return
    assert add(a, b) <= add(join(a, c), b)
    assert dim_nat(add(a, b)) == dim_nat(a) + dim_nat(b)


@settings(max_examples=60, deadline=None)
@given(sets2, sets2)
def test_shift_closure_operator(a, b):
    sa = shift_closure(a)
    assert a <= sa
    assert shift_closure(sa) == sa
    if a <= b:
        assert sa <= shift_closure(b)
