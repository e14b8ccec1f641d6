"""Reference answers computed without the code under test.

Exact rational arithmetic throughout.  The pieces:

- DNF of the generator's formula trees, and a parser for the linear DSL
  the program prints, both yielding conjunctions of rows
  ``(coeffs, rel, rhs)`` with rel in ``<``, ``<=``, ``=``;
- emptiness by Fourier-Motzkin elimination with parallel-row pruning and
  a fewest-pairs variable order (a different route from the program's);
- dimension of a conjunction as n minus the rank of its implicit
  equalities, maximised over the disjuncts;
- direct Puiseux valuations and evaluation of mixed formulas, and the
  mixed dimension and group projection from the closest-center
  description of the valued line;
- lower sets of N^2 by maximal antichains.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from operator import mul

INF = float("inf")  # valuation of zero, and the top of the extended order

_NEGATE = {"<": ">=", "<=": ">", "=": "!=", ">": "<=", ">=": "<", "!=": "="}


def compare(lhs, rel: str, rhs) -> bool:
    if rel == "<":
        return lhs < rhs
    if rel == "<=":
        return lhs <= rhs
    if rel == "=":
        return lhs == rhs
    if rel == ">=":
        return lhs >= rhs
    if rel == ">":
        return lhs > rhs
    return lhs != rhs


# --- rows and disjunctive normal form ----------------------------------------


def atom_rows(coeffs, rel: str, rhs) -> list[list[tuple]]:
    """Disjunction (list of conjunctions) for one atom, rel in < <= = >= > !=."""
    c = tuple(Fraction(x) for x in coeffs)
    q = Fraction(rhs)
    neg = tuple(-x for x in c)
    if rel in ("<", "<=", "="):
        return [[(c, rel, q)]]
    if rel == ">":
        return [[(neg, "<", -q)]]
    if rel == ">=":
        return [[(neg, "<=", -q)]]
    return [[(c, "<", q)], [(neg, "<", -q)]]


def dnf(tree, positive: bool = True) -> list[list[tuple]]:
    """Conjunctions whose union is the set of a linear formula tree.

    Leaves are ("atom", coeffs, rel, rhs) or ("const", bool).
    """
    kind = tree[0]
    if kind == "atom":
        _, coeffs, rel, rhs = tree
        return atom_rows(coeffs, rel if positive else _NEGATE[rel], rhs)
    if kind == "const":
        return [[]] if tree[1] == positive else []
    if kind == "not":
        return dnf(tree[1], not positive)
    parts = [dnf(p, positive) for p in tree[1]]
    if (kind == "and") == positive:
        out = [[]]
        for branch in parts:
            out = [a + b for a in out for b in branch]
        return out
    return [c for branch in parts for c in branch]


def holds(tree, point) -> bool:
    kind = tree[0]
    if kind == "atom":
        _, coeffs, rel, rhs = tree
        return compare(sum(c * v for c, v in zip(coeffs, point)), rel, rhs)
    if kind == "const":
        return tree[1]
    if kind == "not":
        return not holds(tree[1], point)
    if kind == "and":
        return all(holds(p, point) for p in tree[1])
    return any(holds(p, point) for p in tree[1])


def rows_hold(rows, point) -> bool:
    return all(compare(sum(c * v for c, v in zip(a, point)), rel, b) for a, rel, b in rows)


def scaled_union(conjs, scale: int) -> list:
    """Conjunctions as integer tests on points multiplied by ``scale``."""
    return [[(a, rel, b * scale) for a, rel, b in _ints(c)] for c in conjs]


def union_holds(scaled, point) -> bool:
    """Membership of an integer point in a union from :func:`scaled_union`."""
    return any(all(compare(sum(map(mul, a, point)), rel, b) for a, rel, b in c)
               for c in scaled)


# --- Fourier-Motzkin emptiness --------------------------------------------------


def _ints(rows) -> list[tuple]:
    """Scale each row to integer coefficients and an integer right side."""
    out = []
    for a, rel, b in rows:
        den = Fraction(b).denominator
        for x in a:
            den = den * x.denominator // gcd(den, x.denominator)
        out.append((tuple(int(x * den) for x in a), rel, int(b * den)))
    return out


def _prune(rows):
    """Primitive integer rows, the tightest per direction; False if infeasible.

    Detects failing constant rows and conflicting parallel equalities.
    """
    best: dict = {}
    eqs: dict = {}
    for a, rel, b in rows:
        g = gcd(*a)
        if g == 0:
            if not compare(0, rel, b):
                return False
            continue
        if rel == "=" and next(x for x in a if x) < 0:
            a, b = tuple(-x for x in a), -b
        h = gcd(g, b)
        a, b, g = tuple(x // h for x in a), b // h, g // h
        key = tuple(x // g for x in a)
        if rel == "=":
            cur = eqs.get(key)
            if cur is not None and cur[1] * g != b * cur[2]:
                return False
            eqs[key] = ((a, rel, b), b, g)
            continue
        cur = best.get(key)
        if cur is None or b * cur[2] < cur[1] * g or (b * cur[2] == cur[1] * g and rel == "<"):
            best[key] = ((a, rel, b), b, g)
    return [v[0] for v in eqs.values()] + [v[0] for v in best.values()]


def _step(rows, j: int):
    """Eliminate coordinate ``j`` from pruned integer rows; False if infeasible.

    An equality that mentions x_j is substituted; otherwise every pair of
    rows with opposite signs on x_j is combined (strict if either is).
    """
    eq = next((r for r in rows if r[1] == "=" and r[0][j]), None)
    if eq is not None:
        ea, _, eb = eq
        s, m = (1 if ea[j] > 0 else -1), abs(ea[j])
        out = [(tuple(x * m - y * a[j] * s for x, y in zip(a, ea)), rel, b * m - eb * a[j] * s)
               for a, rel, b in (r for r in rows if r is not eq)]
    else:
        out = [r for r in rows if r[0][j] == 0]
        for pa, prel, pb in (r for r in rows if r[0][j] > 0):
            for na, nrel, nb in (r for r in rows if r[0][j] < 0):
                p, q = pa[j], -na[j]
                rel = "<" if "<" in (prel, nrel) else "<="
                out.append((tuple(x * q + y * p for x, y in zip(pa, na)), rel, pb * q + nb * p))
    return _prune([(a[:j] + a[j + 1:], rel, b) for a, rel, b in out])


def feasible(rows) -> bool:
    """Whether some rational point satisfies every row.

    Equalities are used first; otherwise the variable with the fewest
    pairs to combine goes next.
    """
    rows = _prune(_ints(rows))
    while rows:
        n = len(rows[0][0])
        eq = next((r for r in rows if r[1] == "="), None)
        if eq is not None:
            j = min((k for k in range(n) if eq[0][k]), key=lambda k: abs(eq[0][k]))
        else:
            j = min(range(n), key=lambda k: sum(1 for a, _, _ in rows if a[k] > 0)
                    * sum(1 for a, _, _ in rows if a[k] < 0))
        rows = _step(rows, j)
    return rows is not False


def eliminate(rows, j: int) -> list | None:
    """Project a conjunction along coordinate ``j``.

    None when a contradiction shows up at once; otherwise the projected
    rows, which are infeasible exactly when the input is.
    """
    rows = _prune(_ints(rows))
    out = False if rows is False else _step(rows, j)
    return None if out is False else out


# --- dimension ------------------------------------------------------------------


def rank(vectors) -> int:
    rows = [list(map(Fraction, v)) for v in vectors]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col] / rows[r][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def implicit_equalities(rows) -> list[tuple]:
    """Normals of the rows that hold with equality on the whole (nonempty) set."""
    out = []
    for idx, (a, rel, b) in enumerate(rows):
        if rel == "=":
            out.append(a)
        elif rel == "<=":
            strict = rows[:idx] + [(a, "<", b)] + rows[idx + 1:]
            if not feasible(strict):
                out.append(a)
    return out


def conj_dimension(rows, n: int) -> int:
    """Dimension of one conjunction; -1 when it is empty."""
    if not feasible(rows):
        return -1
    eqs = [a for a in implicit_equalities(rows) if any(a)]
    return n - (rank(eqs) if eqs else 0)


def dimension(conjs, n: int) -> int:
    """Dimension of a union of conjunctions; -1 for the empty set."""
    return max((conj_dimension(c, n) for c in conjs), default=-1)


# --- the program's linear DSL ---------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(<=|>=|!=|<|>|=)|(\d+)|([A-Za-z_]\w*)|([()&|!*/+-]))")


def parse_linear(text: str, n: int):
    """Parse linear DSL text (variables ``x1..xn``) into a formula tree."""
    toks = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot tokenize {text[pos:]!r}")
        toks.append(next(g for g in m.groups() if g is not None))
        pos = m.end()
    toks.append(None)
    i = 0

    def peek():
        return toks[i]

    def take():
        nonlocal i
        i += 1
        return toks[i - 1]

    def disj():
        parts = [conj()]
        while peek() == "|":
            take()
            parts.append(conj())
        return parts[0] if len(parts) == 1 else ("or", parts)

    def conj():
        parts = [unary()]
        while peek() == "&":
            take()
            parts.append(unary())
        return parts[0] if len(parts) == 1 else ("and", parts)

    def unary():
        t = peek()
        if t == "!":
            take()
            return ("not", unary())
        if t in ("true", "false"):
            take()
            return ("const", t == "true")
        if t == "(":
            take()
            inner = disj()
            if take() != ")":
                raise ValueError("expected ')'")
            return inner
        lhs, lc = linexpr()
        rel = take()
        rhs, rc = linexpr()
        return ("atom", tuple(x - y for x, y in zip(lhs, rhs)), rel, rc - lc)

    def linexpr():
        coeffs = [Fraction(0)] * n
        const = Fraction(0)
        sign = 1
        if peek() == "-":
            take()
            sign = -1
        while True:
            t = take()
            if t.isdigit():
                value = Fraction(int(t))
                if peek() == "/":
                    take()
                    value /= int(take())
                if peek() == "*":
                    take()
                    coeffs[int(take()[1:]) - 1] += sign * value
                else:
                    const += sign * value
            else:
                coeffs[int(t[1:]) - 1] += sign
            if peek() == "+":
                take()
                sign = 1
            elif peek() == "-":
                take()
                sign = -1
            else:
                return coeffs, const

    tree = disj()
    if peek() is not None:
        raise ValueError(f"trailing input {peek()!r}")
    return tree


def grid(values, n: int) -> list[tuple]:
    pts = [()]
    for _ in range(n):
        pts = [p + (v,) for p in pts for v in values]
    return pts


# --- cells (documented JSON schema) ----------------------------------------------


def _bound_value(b, prefix):
    acc = Fraction(b["const"]) + sum(c * v for c, v in zip(b["coeffs"], prefix))
    return acc / b["div"]


def cell_sample(cell: dict) -> tuple:
    """A point of a group-sort cell, built coordinate by coordinate."""
    values: list[Fraction] = []
    for sig, spec in zip(cell["signature"], cell["bounds"]):
        if sig == 0:
            values.append(_bound_value(spec, values))
            continue
        lo, hi = spec
        lo_v = None if lo == "-inf" else _bound_value(lo, values)
        hi_v = None if hi == "inf" else _bound_value(hi, values)
        if lo_v is None and hi_v is None:
            values.append(Fraction(0))
        elif lo_v is None:
            values.append(hi_v - 1)
        elif hi_v is None:
            values.append(lo_v + 1)
        else:
            values.append((lo_v + hi_v) / 2)
    return tuple(values)


# --- Puiseux elements and mixed formulas -----------------------------------------
#
# Elements are dicts {exponent: coefficient}; generator atoms are
# ("val", w, poly_index, gcoeffs, rel, rhs, polys), ("zero", poly_index,
# "=", polys) and ("gamma", gcoeffs, rel, rhs).


def pkey(p: dict) -> tuple:
    return tuple(sorted(p.items()))


def pdiff_valuation(x: dict, y: dict):
    """v(x - y): least exponent with a nonzero coefficient, INF for zero."""
    for e in sorted(set(x) | set(y)):
        if x.get(e, 0) != y.get(e, 0):
            return e
    return INF


def poly_valuation(x: dict, poly: dict):
    total = Fraction(0)
    for root, mult in poly["roots"]:
        v = pdiff_valuation(x, root)
        if v == INF:
            return INF
        total += mult * v
    return total


def _val_atom_holds(w, v, gpart, rel, rhs) -> bool:
    if v == INF:
        return compare(INF if w > 0 else -INF, rel, rhs)
    return compare(w * v + gpart, rel, rhs)


def mixed_holds(tree, x: dict, gamma) -> bool:
    kind = tree[0]
    if kind == "val":
        _, w, pi, gcoeffs, rel, rhs, polys = tree
        gpart = sum(c * g for c, g in zip(gcoeffs, gamma))
        return _val_atom_holds(w, poly_valuation(x, polys[pi]), gpart, rel, rhs)
    if kind == "zero":
        return (poly_valuation(x, tree[3][tree[1]]) == INF) == (tree[2] == "=")
    if kind == "gamma":
        _, gcoeffs, rel, rhs = tree
        return compare(sum(c * g for c, g in zip(gcoeffs, gamma)), rel, rhs)
    if kind == "not":
        return not mixed_holds(tree[1], x, gamma)
    if kind == "and":
        return all(mixed_holds(p, x, gamma) for p in tree[1])
    return any(mixed_holds(p, x, gamma) for p in tree[1])


def _map_mixed(tree, leaf):
    kind = tree[0]
    if kind in ("val", "zero", "gamma"):
        return leaf(tree)
    if kind == "not":
        return ("not", _map_mixed(tree[1], leaf))
    return (kind, [_map_mixed(p, leaf) for p in tree[1]])


def _centers(polys) -> list[dict]:
    seen = {(): {}}
    for p in polys:
        for root, _ in p["roots"]:
            seen[pkey(root)] = root
    return list(seen.values())


def mixed_regions(tree, polys, n: int):
    """The set of a mixed formula as linear pieces.

    Returns (point_trees, line_trees).  ``point_trees`` are formulas over
    gamma for x equal to each tracked center.  Off the centers, let c be a
    center closest to x and rho = v(x - c); then v(x - r) = min(rho,
    v(c - r)) for every tracked r, and each rho is taken by infinitely
    many such x.  ``line_trees`` are formulas over (rho, gamma), one per
    center and per segment of the rho-line between the distances to the
    other centers, on which every valuation is affine in rho.
    """
    centers = _centers(polys)
    point_trees = []
    line_trees = []
    for c in centers:
        def at_center(a, c=c):
            if a[0] == "val":
                _, w, pi, gcoeffs, rel, rhs, _ = a
                v = poly_valuation(c, polys[pi])
                if v == INF:
                    return ("const", _val_atom_holds(w, v, 0, rel, rhs))
                return ("atom", gcoeffs, rel, rhs - w * v)
            if a[0] == "zero":
                return ("const", (poly_valuation(c, polys[a[1]]) == INF) == (a[2] == "="))
            return ("atom", a[1], a[2], a[3])

        point_trees.append(_map_mixed(tree, at_center))
        dist = {pkey(o): pdiff_valuation(c, o) for o in centers if o is not c}
        breaks = sorted(set(dist.values()))
        edges = [None, *breaks, None]
        segments = [("open", lo, hi) for lo, hi in zip(edges, edges[1:])]
        segments += [("point", b, b) for b in breaks]
        for kind, lo, hi in segments:
            def affine(poly, lo=lo, hi=hi, kind=kind):
                slope, const = 0, Fraction(0)
                for root, mult in poly["roots"]:
                    d = dist.get(pkey(root))
                    if d is None:  # root is the center itself
                        slope += mult
                    elif (d > hi) if kind == "point" else (hi is not None and d >= hi):
                        slope += mult
                    else:
                        const += mult * d
                return slope, const

            def on_line(a):
                if a[0] == "val":
                    _, w, pi, gcoeffs, rel, rhs, _ = a
                    slope, const = affine(polys[pi])
                    return ("atom", (w * slope, *gcoeffs), rel, rhs - w * const)
                if a[0] == "zero":
                    return ("const", a[2] != "=")
                return ("atom", (0, *a[1]), a[2], a[3])

            rho = (1,) + (0,) * n
            window = []
            if kind == "point":
                window.append(("atom", rho, "=", lo))
            else:
                if lo is not None:
                    window.append(("atom", rho, ">", lo))
                if hi is not None:
                    window.append(("atom", rho, "<", hi))
            line_trees.append(("and", [_map_mixed(tree, on_line), *window]))
    return point_trees, line_trees


def mixed_dimension(tree, polys, n: int) -> list[list[int]]:
    """Maxima of the mixed dimension (lower set of N^2), sorted."""
    point_trees, line_trees = mixed_regions(tree, polys, n)
    pairs = set()
    for t in point_trees:
        d = dimension(dnf(t), n)
        if d >= 0:
            pairs.add((0, d))
    rho_axis = (1,) + (0,) * n
    for t in line_trees:
        for rows in dnf(t):
            if not feasible(rows):
                continue
            eqs = [a for a in implicit_equalities(rows) if any(a)]
            r = rank(eqs) if eqs else 0
            rho_fixed = rank(eqs + [rho_axis]) == r
            pairs.add((1, n + 1 - r - (0 if rho_fixed else 1)))
    return antichain(pairs)


def mixed_projection(tree, polys, n: int) -> list:
    """The projection of a mixed set to gamma, as a union of conjunctions."""
    point_trees, line_trees = mixed_regions(tree, polys, n)
    shadows = []
    for t in line_trees:
        for rows in dnf(t):
            s = eliminate(rows, 0)
            if s is not None:
                shadows.append(s)
    return shadows + [c for t in point_trees for c in dnf(t)]


def mixed_cell_sample(cell: dict):
    """A member (x, gamma) of a mixed cell, from its documented JSON."""
    point = cell_sample(cell)
    base = cell["base"]

    def element(terms):
        return {Fraction(e): Fraction(c) for e, c in terms}

    if base["kind"] == "points":
        return element(base["elements"][0]), point
    center = element(base["center"])
    if base["kind"] == "sphere":
        r = Fraction(base["radius"])
        bad = {Fraction(0)}
        for a in base["avoid"]:
            a = element(a)
            bad.add(-(center.get(r, 0) - a.get(r, 0)))
        u = Fraction(1)
        while u in bad:
            u += 1
    else:
        r, u = point[0], Fraction(1)
    x = dict(center)
    x[r] = x.get(r, 0) + u
    return {e: c for e, c in x.items() if c}, point[1:]


# --- lower sets of N^2 ----------------------------------------------------------


def antichain(points) -> list[list[int]]:
    pts = set(map(tuple, points))
    return sorted(list(p) for p in pts
                  if not any(q != p and all(a <= b for a, b in zip(p, q)) for q in pts))


def lower_add(a, b):
    return antichain([[x + y for x, y in zip(p, q)] for p in a for q in b])


def lower_shift(a):
    """Closure under (d1, d2) -> (d1 - 1, d2 + 1)."""
    return antichain([[d1 - k, d2 + k] for d1, d2 in a for k in range(d1 + 1)])


def lower_dimnat(a) -> str:
    return str(max(sum(p) for p in a)) if a else "-inf"


# --- tropical polynomials --------------------------------------------------------


def on_tropical(terms, point) -> bool:
    values = sorted(w + sum(e * x for e, x in zip(exp, point)) for exp, w in terms)
    return len(values) > 1 and values[0] == values[1]
