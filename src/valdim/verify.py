"""Randomized verification suites with deterministic seeds.

Each suite generates random instances from an explicit seed, checks the
engine against independent oracles (grid evaluation, brute-force
existentials over complete candidate sets, direct Puiseux evaluation,
duplicate-minimum scans), and returns a result record.  The command-line
``verify`` subcommands and the acceptance tests share these functions, so
pass/fail counts are reproducible byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, groupby
from math import gcd

from . import semilinear as sl
from . import trop
from .boolean import evaluate
from .lowerset import (
    NEG_INF,
    LowerSet,
    dim_nat,
    join,
    lower_closure,
    principal,
    shift_closure,
)
from .mixedcell import (
    AffineBijection,
    FactoredPoly,
    MixedAtom,
    MixedCell,
    PuiseuxElement,
    apply_bijection,
    matom,
    mixed_cell_decompose,
    mixed_dimension,
    monomial_decompose,
    project_to_gamma,
)
from .mixedcell.puiseux import INFINITY
from .semilinear import cells as sl_cells


@dataclass
class SuiteResult:
    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, condition: bool, message: str):
        if not condition:
            self.failures.append(message)

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        extra = "" if self.ok else f" ({len(self.failures)} failures; first: {self.failures[0]})"
        return f"{status} {self.name}: {self.cases} cases{extra}"


# --- figure values ---------------------------------------------------------

# The figure table is written with the group coordinate first: a pair
# (g, v) counts g value-group and v valued-field dimensions.  The library
# orders pairs (valued, group), following the sort order K^m x Gamma^n, so
# ``suite_figures`` converts every entry with ``_valued_first`` before use.
# PAPER.md holds only the abstract, so the group-first order is a reading,
# not a quotation: it is the only order in which D4 and D5 agree under the
# move (valued, group) -> (valued - 1, group + 1) of ``shift_closure``.
D1_POINTS = ((0, 0), (0, 3), (0, 4), (1, 4), (2, 0), (2, 1), (2, 2), (4, 0), (4, 1))
D2_MAXIMA = ((1, 4), (2, 2), (4, 1))
D4 = join(principal((1, 4)), principal((5, 1)))
D5_MAXIMA = ((1, 4), (2, 3), (3, 2), (5, 1), (6, 0))


def _valued_first(points) -> tuple[tuple[int, int], ...]:
    """Swap group-first figure pairs into the library's (valued, group) order."""
    return tuple((v, g) for g, v in points)


def suite_figures() -> SuiteResult:
    """Reference lower-set values: closures of D1 and D4 and their collapses.

    The frozen table is stored group-first (see the comment above
    ``D1_POINTS``); it is converted to (valued, group) order here, once,
    and compared as lower sets, since the swapped maxima sort differently.
    One check reads the frozen D5 row alone: a closure under the move
    (a, b) -> (a-1, b+1) must contain the move of each of its maxima, so
    a table transcribed in the wrong order fails that check by name.
    """
    r = SuiteResult("figures")
    r.cases = 5
    d2 = LowerSet(_valued_first(D2_MAXIMA))
    d4 = LowerSet(_valued_first(D4.maxima))
    d5 = LowerSet(_valued_first(D5_MAXIMA))
    closed = lower_closure(_valued_first(D1_POINTS))
    r.check(closed == d2, f"lower_closure(D1) gave {closed.maxima}, expected {d2.maxima}")
    r.check(
        all((a - 1, b + 1) in d5 for a, b in d5.maxima if a >= 1),
        f"frozen D5 {d5.maxima} (valued, group) is not closed under "
        "(a,b) -> (a-1,b+1); is the figure table read group-first?",
    )
    shifted = shift_closure(d4)
    r.check(
        shifted == d5,
        f"shift_closure(D4) gave {shifted.maxima}, expected {d5.maxima}",
    )
    r.check(dim_nat(closed) == 5, f"dim_nat(D2) gave {dim_nat(closed)}")
    r.check(dim_nat(d4) == 6, f"dim_nat(D4) gave {dim_nat(d4)}")
    return r


# --- random generators -----------------------------------------------------


def random_rational(rng: random.Random, lo: int = -4, hi: int = 4, denom: int = 2):
    return Fraction(rng.randint(lo * denom, hi * denom), rng.choice([1, denom]))


def random_atom(rng: random.Random, n: int) -> sl.Formula:
    while True:
        coeffs = tuple(rng.randint(-3, 3) for _ in range(n))
        if any(coeffs):
            break
    rel = rng.choice(["<", "<=", "=", ">=", ">", "!="])
    return sl.atom(coeffs, rel, random_rational(rng))


def random_formula(rng: random.Random, n: int, n_atoms: int) -> sl.Formula:
    parts = [random_atom(rng, n) for _ in range(n_atoms)]
    f = parts[0]
    for p in parts[1:]:
        combiner = rng.random()
        if combiner < 0.45:
            f = sl.And.of(f, p)
        elif combiner < 0.9:
            f = sl.Or.of(f, p)
        else:
            f = sl.And.of(f, sl.Not.of(p))
    if rng.random() < 0.15:
        f = sl.Not.of(f)
    return f


def formula_instances(seed: int, cases: int) -> list[tuple[int, sl.Formula]]:
    """The shared instance family for the elimination and cell suites.

    Arities up to 3, integer coefficients in [-3, 3], rational constants
    with denominator at most 2.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(cases):
        n = rng.choice([1, 2, 2, 3])
        out.append((n, random_formula(rng, n, rng.randint(2, 3))))
    return out


def random_basic_set(rng: random.Random, n: int, n_atoms: int, force_empty=False):
    atoms = []
    for _ in range(n_atoms):
        a = random_atom(rng, n)
        if isinstance(a, sl.Atom):
            atoms.append(a)
    if force_empty and atoms:
        a = atoms[0]
        flipped = sl.atom(tuple(-c for c in a.coeffs), "<", -a.rhs)
        if isinstance(flipped, sl.Atom):
            atoms.append(flipped)
        if a.rel == "=":
            atoms.append(sl.LinearAtom(a.coeffs, "<", a.rhs))
    return sl.BasicSet(tuple(atoms), n)


# --- brute-force existential oracle ----------------------------------------


def _grid(lo: int, hi: int, denom: int):
    return [Fraction(i, denom) for i in range(lo * denom, hi * denom + 1)]


def _with_mid_and_outer(values: set) -> list[Fraction]:
    ordered = sorted(values)
    cands = list(ordered)
    cands.extend((a + b) / 2 for a, b in zip(ordered, ordered[1:]))
    if ordered:
        cands.extend((ordered[0] - 1, ordered[-1] + 1))
    else:
        cands.append(Fraction(0))
    return cands


def _holds_scaled(f: sl.Formula, nums, den: int) -> bool:
    """Truth of ``f`` at the point ``(nums[0]/den, ...)``, with ``den > 0``.

    Every atom comparison is an integer comparison on the numerators, so
    exactness holds without building a Fraction per coordinate.
    """

    def value(a: sl.LinearAtom) -> bool:
        lhs = 0
        for c, v in zip(a.coeffs, nums):
            lhs += c * v
        right = a.rhs * den
        if a.rel == sl.LT:
            return lhs < right
        if a.rel == sl.LE:
            return lhs <= right
        return lhs == right

    return evaluate(f, value)


def _scale(point) -> tuple[tuple[int, ...], int]:
    den = 1
    for v in point:
        den = den * v.denominator // gcd(den, v.denominator)
    return tuple(v.numerator * (den // v.denominator) for v in point), den


def brute_exists_1(f: sl.Formula, point: list, var: int, atoms=None) -> bool:
    """Complete one-variable existential: test every arrangement candidate.

    Any satisfying value lies in a union of intervals whose endpoints are
    atom breakpoints, so breakpoints, gap midpoints and one point beyond
    each extreme decide the question.  Arithmetic runs on integer-scaled
    coordinates.
    """
    if atoms is None:
        atoms = list(f.atoms())
    n = len(point)
    den = 1
    for i in range(n):
        if i != var and point[i] is not None:
            den = den * point[i].denominator // gcd(den, point[i].denominator)
    nums = [
        0 if (i == var or point[i] is None)
        else point[i].numerator * (den // point[i].denominator)
        for i in range(n)
    ]
    values = set()
    for a in atoms:
        c = a.coeffs[var]
        if c == 0:
            continue
        rest = 0
        for i in range(n):
            if i != var:
                rest += a.coeffs[i] * nums[i]
        values.add(Fraction(a.rhs * den - rest, den * c))
    for cand in _with_mid_and_outer(values):
        cd = cand.denominator
        g = den * cd // gcd(den, cd)
        scale = g // den
        full = [v * scale for v in nums]
        full[var] = cand.numerator * (g // cd)
        if _holds_scaled(f, full, g):
            return True
    return False


def brute_exists_2(f: sl.Formula, point: list, v1: int, v2: int, atoms=None) -> bool:
    """Two-variable existential via arrangement-vertex candidates for v1.

    The projection of the satisfied region onto the v1 axis is a union of
    intervals with endpoints among pairwise line intersections and
    vertical lines, so those values plus midpoints and outer points give
    a complete candidate set; each candidate reduces to the one-variable
    case.
    """
    if atoms is None:
        atoms = list(f.atoms())
    fixed = [
        (i, point[i])
        for i in range(len(point))
        if i not in (v1, v2) and point[i] is not None
    ]
    rests = [
        a.rhs - sum(a.coeffs[i] * v for i, v in fixed)
        for a in atoms
    ]
    values = set()
    for a, ra in zip(atoms, rests):
        if a.coeffs[v1] != 0 and a.coeffs[v2] == 0:
            values.add(Fraction(ra, a.coeffs[v1]))
    for (ia, a), (ib, b) in combinations(enumerate(atoms), 2):
        d = a.coeffs[v1] * b.coeffs[v2] - b.coeffs[v1] * a.coeffs[v2]
        if d == 0:
            continue
        values.add(Fraction(rests[ia] * b.coeffs[v2] - rests[ib] * a.coeffs[v2], d))
    for c in _with_mid_and_outer(values):
        point[v1] = c
        if brute_exists_1(f, point, v2, atoms):
            point[v1] = None
            return True
    point[v1] = None
    return False


def suite_elimination(seed: int = 0, cases: int = 500) -> SuiteResult:
    """Projection vs brute-force existential over the kept-coordinate grid."""
    rng = random.Random(seed + 1)  # auxiliary draws only; instances share seed
    r = SuiteResult("elimination")
    grid = _grid(-4, 4, 8)
    for case, (n, f) in enumerate(formula_instances(seed, cases)):
        r.cases += 1
        if n == 1:
            keep = []
        elif n == 2:
            keep = [rng.randrange(2)]
        else:
            keep = sorted(rng.sample(range(3), 2 if rng.random() < 0.7 else 1))
        proj = sl.project(f, keep)
        elim = [i for i in range(n) if i not in keep]
        atoms = list(f.atoms())
        if not keep:
            expected = brute_exists_1(f, [None], 0, atoms)
            if _holds_scaled(proj, (), 1) != expected:
                r.failures.append(f"case {case}: emptiness mismatch")
        elif len(keep) == 1:
            point: list = [None] * n
            for x in grid:
                point[keep[0]] = x
                if len(elim) == 1:
                    expected = brute_exists_1(f, point, elim[0], atoms)
                else:
                    expected = brute_exists_2(f, point, elim[0], elim[1], atoms)
                if _holds_scaled(proj, (x.numerator,), x.denominator) != expected:
                    r.failures.append(f"case {case}: mismatch at {x}")
                    break
        else:
            bad = False
            point = [None] * n
            for x in grid:
                if bad:
                    break
                point[keep[0]] = x
                for y in grid:
                    point[keep[1]] = y
                    expected = brute_exists_1(f, point, elim[0], atoms)
                    nums, den = _scale((x, y))
                    if _holds_scaled(proj, nums, den) != expected:
                        r.failures.append(f"case {case}: mismatch at {(x, y)}")
                        bad = True
                        break
    return r


# --- cell decomposition suite ----------------------------------------------


def _difference_rows(disjuncts: list[list], cell_rows: list, arity: int) -> list[list]:
    """Set difference of a disjunct list and one conjunction, in row space.

    Splitting B \\ (a_1 & ... & a_m) along which constraint fails first
    keeps the pieces disjoint and the piece count linear in m; empty
    pieces are pruned by full elimination.
    """
    from valdim.semilinear.elimination import negate_row, rows_infeasible

    out = []
    for b in disjuncts:
        if rows_infeasible(b + cell_rows, arity):
            out.append(b)  # disjoint from the cell: unchanged
            continue
        prefix = list(b)
        for row in cell_rows:
            for neg in negate_row(row):
                cand = prefix + [neg]
                if not rows_infeasible(cand, arity):
                    out.append(cand)
            prefix.append(row)
    return out


def check_partition(f: sl.Formula, cells: list[sl.GammaCell]) -> list[str]:
    """Symbolic disjointness and exact coverage for one decomposition."""
    from valdim.semilinear.elimination import rows_infeasible

    failures = []
    n = f.arity
    systems = [list(c.to_basicset().atoms) for c in cells]
    for i, j in combinations(range(len(systems)), 2):
        if not rows_infeasible(list(set(systems[i] + systems[j])), n):
            failures.append(f"cells {i} and {j} overlap")
            break
    remaining = [list(b.atoms) for b in sl.normalize_dnf(f)]
    for rows in systems:
        remaining = _difference_rows(remaining, rows, n)
    if remaining:
        failures.append("cells do not cover the set")
    not_f_rows = [list(d.atoms) for d in sl.normalize_dnf(sl.Not.of(f))]
    for i, rows in enumerate(systems):
        for d in not_f_rows:
            if not rows_infeasible(rows + d, n):
                failures.append(f"cell {i} leaves the set")
                break
    return failures


def filtered_arrangement(f: sl.Formula) -> list[sl.GammaCell]:
    """The cells of ``f`` by the filtering route.

    Builds the whole arrangement of the atoms of ``f`` and keeps the cells
    where ``f`` holds at :meth:`GammaCell.sample`.  The samples are
    recomputed from each cell's bounds, not taken from the lifting, so the
    route is independent of how :func:`sl.cell_decompose` decides truth.
    """
    atoms = sorted(f.atoms(), key=sl.LinearAtom.key)
    strata = sl_cells.arrangement(atoms, f.arity, sl.Bool(True, f.arity))
    return [c for c, _, _ in strata if f.holds(c.sample())]


def _rank(matrix: list[tuple[int, ...]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination.

    After each pivot step every entry below the pivot rows is a minor of
    the input, so the division by the previous pivot is exact and the
    integers never leave Z.
    """
    m = [list(r) for r in matrix]
    rank, prev = 0, 1
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        p = top[col]
        for i in range(rank + 1, len(m)):
            a = m[i][col]
            m[i] = [(p * x - a * y) // prev for x, y in zip(m[i], top)]
        prev = p
        rank += 1
    return rank


def dimension_by_implicit_equalities(b: sl.BasicSet) -> int | float:
    """Dimension of one convex system: n minus the rank of its implicit equalities.

    A weak row is an implicit equality when the system with that row made
    strict is empty.  A nonempty convex set has a point where every other
    weak row and every strict row holds strictly (the average of one
    witness per row), so a neighbourhood of that point in the affine
    space cut out by the explicit and implicit equalities lies in the
    set.  Found implicit equalities are turned into equalities, which the
    elimination substitutes away cheaply in the remaining tests.  Returns
    ``NEG_INF`` for an empty system.  An oracle for
    :func:`sl.basic_dimension`, which reads the signature of one
    back-substituted point instead.
    """
    from valdim.semilinear.elimination import rows_infeasible

    n = b.arity
    system = list(b.atoms)
    if rows_infeasible(system, n):
        return NEG_INF
    weak = [i for i, row in enumerate(system) if row[1] == sl.LE]
    all_strict = [(c, sl.LT if rel == sl.LE else rel, q) for c, rel, q in system]
    if weak and rows_infeasible(all_strict, n):
        for i in weak:
            coeffs, _, rhs = system[i]
            trial = system[:i] + [(coeffs, sl.LT, rhs)] + system[i + 1 :]
            if rows_infeasible(trial, n):
                system[i] = (coeffs, sl.EQ, rhs)
    return n - _rank([c for c, rel, _ in system if rel == sl.EQ])


def suite_cells(seed: int = 0, cases: int = 500) -> SuiteResult:
    """Partition checks plus agreement of two cell and four dimension routes.

    ``sl.cell_decompose`` must return the cells of
    :func:`filtered_arrangement`, in the same order.  ``sl.dimension``
    (the signature of one back-substituted point per DNF disjunct) is
    compared with the largest signature of those cells, with the
    projection route and with :func:`dimension_by_implicit_equalities`
    over the DNF.  Runs on the same instance family as the elimination
    suite.
    """
    r = SuiteResult("cells")
    for case, (n, f) in enumerate(formula_instances(seed, cases)):
        r.cases += 1
        cells = sl.cell_decompose(f)
        if cells != filtered_arrangement(f):
            r.failures.append(f"case {case}: cells differ from the filtered arrangement")
            continue
        for c in cells:
            if not c.is_consistent():
                r.failures.append(f"case {case}: inconsistent cell")
        bad = check_partition(f, cells)
        if bad:
            r.failures.append(f"case {case}: {bad[0]}")
            continue
        dim = sl.dimension(f)
        via_cells = max((c.dimension() for c in cells), default=NEG_INF)
        via_proj = sl.dimension_via_projection(f)
        via_eqs = max(
            (dimension_by_implicit_equalities(b) for b in sl.normalize_dnf(f)), default=NEG_INF
        )
        if not dim == via_cells == via_proj == via_eqs:
            r.failures.append(
                f"case {case}: dimension {dim}, cell route {via_cells},"
                f" projection route {via_proj}, implicit-equality route {via_eqs}"
            )
    return r


# --- dimension axiom suite ---------------------------------------------------


def suite_dim_axioms(seed: int = 0, cases: int = 200) -> SuiteResult:
    """Union, product, projection and frontier laws for the dimension."""
    rng = random.Random(seed)
    r = SuiteResult("dimension-axioms")
    for case in range(cases):
        r.cases += 1
        n = rng.choice([1, 2, 2, 3])
        f = random_formula(rng, n, rng.randint(2, 3))
        g = random_formula(rng, n, rng.randint(1, 2))
        df, dg = sl.dimension(f), sl.dimension(g)
        du = sl.dimension(sl.Or.of(f, g))
        if du != max(df, dg):
            r.failures.append(f"case {case}: union law {du} != max({df},{dg})")
            continue
        m = rng.choice([1, 2])
        h = random_formula(rng, m, rng.randint(1, 2))
        dh = sl.dimension(h)
        prod = sl.And.of(sl.embed(f, range(n), n + m), sl.embed(h, range(n, n + m), n + m))
        dp = sl.dimension(prod)
        expected = NEG_INF if (df == NEG_INF or dh == NEG_INF) else df + dh
        if dp != expected:
            r.failures.append(f"case {case}: product law {dp} != {expected}")
            continue
        keep = sorted(rng.sample(range(n), rng.randint(1, n)))
        dproj = sl.dimension(sl.project(f, keep))
        if not (dproj <= df):
            r.failures.append(f"case {case}: projection grew {dproj} > {df}")
            continue
        if df != NEG_INF:
            cl = sl.closure(f)
            frontier = sl.And.of(cl, sl.Not.of(f))
            dfr = sl.dimension(frontier)
            if dfr != NEG_INF and not (dfr < df):
                r.failures.append(f"case {case}: frontier {dfr} not below {df}")
    return r


# --- closure suite ------------------------------------------------------------


def suite_closure(seed: int = 0, cases: int = 200) -> SuiteResult:
    """The closure of a nonempty system is its relaxation; empty stays empty."""
    rng = random.Random(seed)
    r = SuiteResult("closure")
    for case in range(cases):
        r.cases += 1
        n = rng.choice([1, 2, 3])
        force_empty = rng.random() < 0.3
        b = random_basic_set(rng, n, rng.randint(2, 4), force_empty)
        f = b.to_formula()
        cl = sl.closure(f)
        if sl.is_empty(b):
            if not isinstance(cl, sl.Bool) or cl.value:
                r.failures.append(f"case {case}: closure of empty not empty")
            continue
        relaxed = b.relaxed()
        cl_dnf = sl.normalize_dnf(cl)
        if len(cl_dnf) != 1 or cl_dnf[0].atoms != relaxed.atoms:
            r.failures.append(f"case {case}: closure is not the relaxed system")
            continue
        inner = sl.sample_point(b)
        if inner is None or not relaxed.holds(inner):
            r.failures.append(f"case {case}: relaxation lost an interior point")
            continue
        boundary_points = [sl.sample_point(relaxed)]
        for a in relaxed.atoms:
            pinned = sl.BasicSet(
                relaxed.atoms + (sl.LinearAtom(a.coeffs, "=", a.rhs),), n
            )
            p = sl.sample_point(pinned) if not sl.is_empty(pinned) else None
            if p is not None:
                boundary_points.append(p)
        for p in boundary_points:
            if p is None:
                continue
            for k in (2, 4, 8):
                u = Fraction(1, k)
                mid = tuple(u * qi + (1 - u) * pi for qi, pi in zip(inner, p))
                if not b.holds(mid):
                    r.failures.append(
                        f"case {case}: segment toward closure point leaves the set"
                    )
                    break
        cl2 = sl.closure(cl)
        if sl.normalize_dnf(cl2) != cl_dnf:
            r.failures.append(f"case {case}: closure not idempotent")
            continue
        ok_poly, _ = sl.is_polyhedral(cl)
        if not ok_poly:
            r.failures.append(f"case {case}: closure not polyhedral")
    return r


# --- mixed engine suite -------------------------------------------------------


def random_puiseux(rng: random.Random, max_terms: int = 2) -> PuiseuxElement:
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        e = Fraction(rng.randint(-2, 4), rng.choice([1, 2]))
        c = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        if c:
            terms.append((e, c))
    return PuiseuxElement.of(*terms)


def random_factored_poly(rng: random.Random, max_roots: int) -> FactoredPoly:
    lead = Fraction(rng.choice([1, 2, 3, -1]))
    roots: dict[tuple, tuple[PuiseuxElement, int]] = {}
    budget = rng.randint(1, max_roots)
    while budget > 0:
        root = random_puiseux(rng)
        mult = rng.randint(1, min(2, budget))
        key = root.key()
        if key in roots:
            budget -= 1
            continue
        roots[key] = (root, mult)
        budget -= mult
    return FactoredPoly(lead, tuple(roots.values()))


def random_mixed_formula(
    rng: random.Random, n: int, polys: list[FactoredPoly]
) -> sl.Formula:
    distinct = list({p.key(): p for p in polys}.values())
    parts = []
    for _ in range(rng.randint(2, 4)):
        kind = rng.random()
        rel = rng.choice(["<", "<=", "=", ">=", ">"])
        gcoeffs = tuple(rng.randint(-2, 2) for _ in range(n))
        terms = [(rng.choice(polys), rng.choice([1, 1, 2, -1]))] if polys else []
        if len(distinct) > 1 and rng.random() < 0.3:
            # 2-3 terms of either sign on distinct polynomials
            picked = rng.sample(distinct, rng.randint(2, min(3, len(distinct))))
            terms = [(p, rng.choice([1, 2, -1, -2])) for p in picked]
        if kind < 0.6 and terms:
            parts.append(matom(terms, gcoeffs, rel, random_rational(rng, -3, 3)))
        elif kind < 0.7 and terms:
            parts.append(matom(terms, (0,) * n, "=", INFINITY))
        else:
            if not any(gcoeffs):
                gcoeffs = (1,) + (0,) * (n - 1)
            parts.append(matom((), gcoeffs, rel, random_rational(rng, -3, 3)))
    f = parts[0]
    for p in parts[1:]:
        roll = rng.random()
        if roll < 0.5:
            f = sl.And.of(f, p)
        elif roll < 0.9:
            f = sl.Or.of(f, p)
        else:
            f = sl.And.of(f, sl.Not.of(p))
    return f


def _sample_points_for(
    rng: random.Random,
    pieces,
    count: int,
) -> list[PuiseuxElement]:
    points = []
    for piece, _ in pieces:
        points.append(piece.sample())
        if piece.kind == "annulus":
            lo, hi = piece.lo, piece.hi
            extra = (
                Fraction(0) if lo is None and hi is None
                else (hi - 2 if lo is None else (lo + 2 if hi is None else (lo * 3 + hi) / 4))
            )
            if (lo is None or lo < extra) and (hi is None or extra < hi):
                points.append(piece.sample(rho=extra))
    while len(points) < count:
        points.append(random_puiseux(rng, max_terms=3))
    return points[:count]


def mixed_atom_holds(a: MixedAtom, x: PuiseuxElement, gamma) -> bool:
    """Independent route for ``MixedAtom.holds``: each side summed in Fractions on its own.

    The left side is the group part plus the positive-weight terms, the
    right side ``rhs`` minus the negative-weight terms.  A side is None,
    +inf, once it has an infinite term or is INFINITY; +inf lies above
    every rational and equals itself.
    """
    left = sum((c * Fraction(g) for c, g in zip(a.gcoeffs, gamma)), Fraction(0))
    right = None if a.rhs is INFINITY else Fraction(a.rhs)
    for poly, w in a.terms:
        v = poly.valuation_at(x)
        if w > 0 and left is not None:
            left = None if v is INFINITY else left + w * v
        elif w < 0 and right is not None:
            right = None if v is INFINITY else right - w * v
    if left is None:
        return right is None and a.rel != sl.LT
    if right is None:
        return a.rel != sl.EQ
    return {sl.LT: left < right, sl.LE: left <= right, sl.EQ: left == right}[a.rel]


def mixed_dimension_via_fibers(cells: list[MixedCell]) -> LowerSet:
    """Independent route: dimensions of the fiber-dimension loci.

    ``cells`` is a mixed cell decomposition with the cells of each piece
    next to each other, as :func:`mixed_cell_decompose` returns them.  For
    each i, the locus of valued-line points whose gamma-fiber has
    dimension i contributes (its own dimension, i); the mixed dimension
    is the lower set generated by these pairs.  The loci are computed by
    slicing each piece's radius line at the endpoints of its cells'
    rho-windows.
    """
    contributions: set[tuple[int, int]] = set()
    for piece, group in groupby(cells, key=lambda c: c.piece):
        fibers = [c.fiber for c in group]
        if piece.kind == "points":
            contributions.add((0, max(sum(c.signature) for c in fibers)))
            continue
        windows: list[tuple[Fraction | None, Fraction | None, bool, int]] = []
        cuts: set[Fraction] = set()
        for c in fibers:
            spec = c.bounds[0]
            gsig = sum(c.signature[1:])
            if c.signature[0] == 0:
                at = spec.value(())
                windows.append((at, at, True, gsig))
                cuts.add(at)
            else:
                lo, hi = spec
                lo_v = lo.value(()) if isinstance(lo, sl.AffineBound) else None
                hi_v = hi.value(()) if isinstance(hi, sl.AffineBound) else None
                windows.append((lo_v, hi_v, False, gsig))
                cuts.update(v for v in (lo_v, hi_v) if v is not None)
        for s in _with_mid_and_outer(cuts):
            fib = -1
            for lo_v, hi_v, is_point, gsig in windows:
                if is_point:
                    inside = s == lo_v
                else:
                    inside = (lo_v is None or lo_v < s) and (hi_v is None or s < hi_v)
                if inside:
                    fib = max(fib, gsig)
            if fib >= 0:
                contributions.add((1, fib))
    return lower_closure(contributions)


def suite_mixed(seed: int = 0, cases: int = 100, samples_per_case: int = 100) -> SuiteResult:
    """Monomial decomposition, partitions, dimension laws, projection bounds."""
    rng = random.Random(seed)
    r = SuiteResult("mixed")
    for case in range(cases):
        r.cases += 1
        n = rng.choice([1, 1, 2])
        polys = [random_factored_poly(rng, rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
        pieces = monomial_decompose(polys)
        xs = _sample_points_for(rng, pieces, samples_per_case)
        bad = None
        for x in xs:
            hits = [(p, vals) for p, vals in pieces if p.contains(x)]
            if len(hits) != 1:
                bad = f"case {case}: point in {len(hits)} pieces"
                break
            piece, vals = hits[0]
            rho = piece.rho_of(x)
            for poly, mv in zip(polys, vals):
                if poly.valuation_at(x) != mv.value(rho):
                    bad = f"case {case}: valuation mismatch on {piece.kind}"
                    break
            if bad:
                break
        if bad:
            r.failures.append(bad)
            continue
        f = random_mixed_formula(rng, n, polys)
        cells = mixed_cell_decompose(f)
        gammas = [tuple(random_rational(rng, -2, 2) for _ in range(n)) for _ in range(6)]
        for x in xs[:12]:
            for gamma in gammas:
                inside = [c for c in cells if c.contains(x, gamma)]
                truth = f.holds(x, gamma)
                if truth != evaluate(f, lambda a: mixed_atom_holds(a, x, gamma)):
                    bad = f"case {case}: membership disagrees with the Fraction route"
                    break
                if truth != (len(inside) == 1) or len(inside) > 1:
                    bad = f"case {case}: cell partition broken at sampled point"
                    break
            if bad:
                break
        if bad:
            r.failures.append(bad)
            continue
        dim = mixed_dimension(f)
        if dim != lower_closure({c.dim_pair() for c in cells}):
            r.failures.append(f"case {case}: cell route disagrees")
            continue
        if dim != mixed_dimension_via_fibers(cells):
            r.failures.append(f"case {case}: fiber route disagrees")
            continue
        eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        zero, origin = (0,) * n, PuiseuxElement()
        bijections = [
            AffineBijection(eye, tuple(random_rational(rng, -2, 2) for _ in range(n)), origin),
            AffineBijection(eye, zero, random_puiseux(rng)),
        ]
        if n == 2:
            bijections.append(AffineBijection(((0, 1), (1, 0)), zero, origin))
            bijections.append(AffineBijection(((1, 1), (0, 1)), zero, origin))
        else:
            bijections.append(AffineBijection(((-1,),), zero, origin))
        for b in bijections:
            if mixed_dimension(apply_bijection(f, b)) != dim:
                r.failures.append(f"case {case}: dimension moved under {b}")
                bad = "x"
                break
        if bad:
            continue
        for c in cells:
            proj_dim = sl.dimension(c.gamma_projection())
            d = sum(c.gamma_signature)
            limit = d + 1 if c.kdim == 1 else d
            if proj_dim != NEG_INF and proj_dim > limit:
                r.failures.append(f"case {case}: cell projection dim {proj_dim} > {limit}")
                bad = "x"
                break
        if bad:
            continue
        pg_dim = sl.dimension(project_to_gamma(f))
        bound = dim_nat(shift_closure(dim))
        if pg_dim != NEG_INF and not (pg_dim <= bound):
            r.failures.append(f"case {case}: projection dim {pg_dim} > bound {bound}")
    return r


# --- tropical suite ----------------------------------------------------------


def random_trop_poly(rng: random.Random, n: int = 2) -> trop.TropPoly:
    terms = {}
    for _ in range(rng.randint(3, 6)):
        exp = tuple(rng.randint(0, 3) for _ in range(n))
        terms[exp] = random_rational(rng, -2, 2)
    while len(terms) < 3:
        exp = tuple(rng.randint(0, 3) for _ in range(n))
        terms[exp] = random_rational(rng, -2, 2)
    return trop.TropPoly(tuple(terms.items()))


def random_box(rng: random.Random, n: int, compact: bool) -> sl.Formula:
    parts = []
    for i in range(n):
        lo = random_rational(rng, -3, 1)
        hi = lo + abs(random_rational(rng, 0, 3)) + 1
        unit = [0] * n
        unit[i] = 1
        if compact:
            parts.append(sl.atom(tuple(unit), ">=", lo))
            parts.append(sl.atom(tuple(unit), "<=", hi))
        else:
            if rng.random() < 0.8:
                parts.append(sl.atom(tuple(unit), rng.choice([">", ">="]), lo))
            if rng.random() < 0.8:
                parts.append(sl.atom(tuple(unit), rng.choice(["<", "<="]), hi))
    return sl.And.of(sl.Bool(True, n), *parts)


def _subset_by_pieces(a: sl.BasicSet, b: sl.BasicSet) -> bool:
    """a subset of b: no piece ``a & not row``, for a row of b, has a point."""
    from valdim.semilinear.elimination import negate_row, rows_infeasible

    return all(
        rows_infeasible([*a.atoms, neg], a.arity)
        for row in b.atoms
        for neg in negate_row(row)
    )


def maximal_faces_by_inclusion(p: trop.TropPoly) -> list[sl.BasicSet]:
    """The maximal tie polyhedra of ``p``, by pairwise inclusion tests.

    The second route to :func:`trop.trop_hypersurface`: the nonempty tie
    polyhedra in pair order, less every one strictly inside another and
    every one that is the same set as one kept before.  Each test is a
    full elimination of raw rows; no sample point is read.
    """
    from valdim.semilinear.elimination import rows_infeasible

    candidates: list[sl.BasicSet] = []
    seen = set()
    for i, j in combinations(range(len(p.terms)), 2):
        b = trop._pair_face(p, i, j)
        if b.atoms in seen or rows_infeasible(list(b.atoms), b.arity):
            continue
        seen.add(b.atoms)
        candidates.append(b)
    keep: list[sl.BasicSet] = []
    for b in candidates:
        if any(b is not other and _subset_by_pieces(b, other) and not _subset_by_pieces(other, b)
               for other in candidates):
            continue
        if any(_subset_by_pieces(b, k) and _subset_by_pieces(k, b) for k in keep):
            continue  # the same set under a different presentation
        keep.append(b)
    return keep


def suite_trop(seed: int = 0, cases: int = 50) -> SuiteResult:
    """Hypersurface faces against the inclusion oracle and the duplicate-minimum
    grid, purity, image polyhedrality and bounds."""
    rng = random.Random(seed)
    r = SuiteResult("tropical")
    grid = _grid(-3, 3, 4)
    for case in range(cases):
        r.cases += 1
        p = random_trop_poly(rng)
        c = trop.trop_hypersurface(p)
        if [f.system for f in c.faces] != maximal_faces_by_inclusion(p):
            r.failures.append(f"case {case}: faces differ from the inclusion oracle")
            continue
        bad = None
        for x in grid:
            for y in grid:
                if c.contains((x, y)) != trop.point_on_trop(p, (x, y)):
                    bad = f"case {case}: oracle mismatch at {(x, y)}"
                    break
            if bad:
                break
        if bad:
            r.failures.append(bad)
            continue
        if not trop.pure_dimension_check(c, 1):
            r.failures.append(
                f"case {case}: faces of dimension {[f.dim for f in c.faces]}"
            )
            continue
        for face in c.faces:
            for a in face.system.atoms:
                if not (isinstance(a.rhs, int) and all(isinstance(x, int) for x in a.coeffs)):
                    r.failures.append(f"case {case}: non-rational face data")
    for case in range(cases):
        r.cases += 1
        n = rng.choice([1, 2, 2, 3])
        k = rng.randint(1, 3)
        mp = trop.MonomialMap(
            tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(k))
        )
        compact = rng.random() < 0.5
        dom = random_box(rng, n, compact)
        img = trop.trop_image_monomial(dom, mp)
        ok_poly, _ = sl.is_polyhedral(sl.closure(img))
        if not ok_poly:
            r.failures.append(f"case {case}: closed image not polyhedral")
            continue
        d_img, d_dom = sl.dimension(img), sl.dimension(dom)
        if d_img != NEG_INF and d_dom != NEG_INF and not (d_img <= d_dom):
            r.failures.append(f"case {case}: image dim {d_img} > domain dim {d_dom}")
            continue
        if compact:
            cl = sl.closure(img)
            diff = sl.Or.of(
                sl.And.of(cl, sl.Not.of(img)), sl.And.of(img, sl.Not.of(cl))
            )
            if any(not sl.is_empty(b) for b in sl.normalize_dnf(diff)):
                r.failures.append(f"case {case}: compact image not closed")
    return r


# --- lower-set axioms ----------------------------------------------------------


def random_lowerset(rng: random.Random, width: int = 2) -> LowerSet:
    pts = [
        tuple(rng.randint(0, 5) for _ in range(width))
        for _ in range(rng.randint(0, 4))
    ]
    return lower_closure(pts)


def suite_lowerset(seed: int = 0, cases: int = 300) -> SuiteResult:
    """Closure-operator laws and the collapse identities for lower sets."""
    from .lowerset import add

    rng = random.Random(seed)
    r = SuiteResult("lower-sets")
    for case in range(cases):
        r.cases += 1
        a = random_lowerset(rng)
        b = random_lowerset(rng)
        u = join(a, b)
        r.check(
            dim_nat(u) == max(dim_nat(a), dim_nat(b)),
            f"case {case}: join collapse law",
        )
        if not a.is_empty() and not b.is_empty():
            s = add(a, b)
            r.check(
                dim_nat(s) == dim_nat(a) + dim_nat(b),
                f"case {case}: sum collapse law",
            )
        sc = shift_closure(a)
        r.check(shift_closure(sc) == sc, f"case {case}: shift closure idempotent")
        r.check(a <= sc, f"case {case}: shift closure extensive")
        r.check(
            shift_closure(a) <= shift_closure(u), f"case {case}: shift closure monotone"
        )
        r.check(dim_nat(sc) == dim_nat(a), f"case {case}: shift preserves collapse")
        r.check(
            lower_closure(a.points() | b.points()) == u, f"case {case}: join is the union"
        )
    return r
