from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valdim.lowerset import (
    NEG_INF,
    LowerSet2,
    LowerSet3,
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


class TestJoinAdd:
    def test_join_incomparable(self):
        u = join(principal((1, 0)), principal((0, 2)))
        assert u.maxima == ((0, 2), (1, 0))

    def test_join_identity(self):
        a = lower_closure(D1)
        assert join(a, LowerSet2(())) == a

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


def shift_oracle(a: LowerSet2) -> set:
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


class TestDimNat:
    def test_d2(self):
        assert dim_nat(lower_closure(D1)) == 5

    def test_d4(self):
        assert dim_nat(join(principal((1, 4)), principal((5, 1)))) == 6

    def test_empty_sentinel(self):
        assert dim_nat(LowerSet2(())) == NEG_INF


class TestRender:
    def test_square(self):
        out = render_diagram(principal((1, 1)))
        rows = out.splitlines()
        assert rows[0] == "1 | • •"
        assert rows[1] == "0 | • •"
        assert rows[-1].split() == ["0", "1"]

    def test_empty(self):
        assert render_diagram(LowerSet2(())) == "(empty)"

    def test_d2_bullet_pattern(self):
        out = render_diagram(lower_closure(D1))
        grid = [line.split("| ")[1].split() for line in out.splitlines()[:5]]
        heights = [sum(1 for row in grid if row[x] == "•") for x in range(5)]
        assert heights == [5, 5, 3, 2, 2]


class TestJsonAndValidation:
    def test_round_trip(self):
        a = lower_closure(D1)
        assert LowerSet2.from_json(a.to_json()) == a

    def test_sorted_encoding(self):
        a = lower_closure([(4, 1), (1, 4), (2, 2)])
        assert a.to_json() == '{"maxima": [[1, 4], [2, 2], [4, 1]]}'

    def test_negative_coordinate_rejected(self):
        with pytest.raises(ValueError):
            LowerSet2(((-1, 0),))

    def test_empty_operand_takes_the_other_width(self):
        empty2, a3 = LowerSet2(()), principal((1, 2, 3))
        assert join(empty2, a3) == a3 and join(a3, empty2) == a3
        assert add(empty2, a3) == LowerSet3(()) and add(a3, empty2) == LowerSet3(())
        assert add(LowerSet3(()), principal((1, 1))) == LowerSet2(())

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            join(principal((1, 0)), principal((1, 0, 0)))


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
