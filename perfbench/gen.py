"""Seeded query generators for the benchmark.

Every generator returns both DSL text (the only thing the program sees)
and a plain structure the oracle evaluates directly, so the reference
answers never pass through the program's parsers.  Instances are drawn
from ``random.Random`` seeded per (workload, seed, index), so a pool is a
pure function of the seed and each instance of its index.

Shapes follow a fixed cyclic schedule and only the coefficients are
random: the mix of sizes is then the same in every run, which keeps
seed-to-seed spread small without ever dropping a drawn instance.

Linear formula trees:  ("atom", coeffs, rel, rhs) | ("and", [..]) |
("or", [..]) | ("not", t), with rel in < <= = >= > != and rhs a Fraction.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

RELS = ("<", "<=", "=", ">=", ">", "!=")
ORDER_RELS = ("<", "<=", "=", ">=", ">")


def instance_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def rational(rng: random.Random, lo: int, hi: int) -> Fraction:
    den = rng.choice((1, 2))
    return Fraction(rng.randint(lo * den, hi * den), den)


# --- linear formulas -------------------------------------------------------


def linexpr_text(coeffs, var: str = "x") -> str:
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        sign = "-" if c < 0 else "+"
        if not parts:
            parts.append(f"{'-' if c < 0 else ''}{mag}{var}{i + 1}")
        else:
            parts.append(f" {sign} {mag}{var}{i + 1}")
    return "".join(parts)


def linear_text(t) -> str:
    kind = t[0]
    if kind == "atom":
        _, coeffs, rel, rhs = t
        return f"{linexpr_text(coeffs)} {rel} {rhs}"
    if kind == "not":
        return f"!({linear_text(t[1])})"
    joiner = " & " if kind == "and" else " | "
    return joiner.join(f"({linear_text(p)})" if p[0] in ("and", "or") else linear_text(p)
                       for p in t[1])


def random_coeffs(rng: random.Random, n: int, mag: int = 3) -> tuple[int, ...]:
    while True:
        cs = tuple(rng.randint(-mag, mag) for _ in range(n))
        if any(cs):
            return cs


def random_boolean(rng: random.Random, atoms: list) -> tuple:
    """Left-deep Boolean combination: & (45%), | (45%), & ! (10%)."""
    f = atoms[0]
    for a in atoms[1:]:
        roll = rng.random()
        if roll < 0.45:
            f = ("and", [f, a])
        elif roll < 0.9:
            f = ("or", [f, a])
        else:
            f = ("and", [f, ("not", a)])
    if rng.random() < 0.15:
        f = ("not", f)
    return f


# gamma: (group variables, atoms).  Every atom involves every variable,
# which keeps the arrangement size, and so the cost, of a shape steady:
# about 20 ms for three 3-variable atoms and 60 ms for six 2-variable ones.
# Four 3-variable atoms cost about 230 ms with a wide spread, which moved
# the 90th percentile by a quarter from seed to seed.  The cycle puts the
# median and the 90th percentile inside the (2, 6) shape, not in a gap
# between shapes.
GAMMA_SHAPES = ((2, 6), (3, 3), (2, 6), (2, 5), (2, 6), (3, 3), (2, 6), (2, 6))


def dense_coeffs(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n))


def gamma_instance(seed: int, index: int) -> dict:
    n, k = GAMMA_SHAPES[index % len(GAMMA_SHAPES)]
    rng = instance_rng("gamma", seed, index)
    atoms = [("atom", dense_coeffs(rng, n), rng.choice(RELS), rational(rng, -4, 4))
             for _ in range(k)]
    tree = random_boolean(rng, atoms)
    return {"n": n, "tree": tree, "text": linear_text(tree), "keep": list(range(n - 1))}


# elim: (variables, atoms per conjunction, conjunctions).  Systems are
# planted: most atoms hold at a hidden point, so most are nonempty and
# the projection has real work; the rest are unconstrained draws.
ELIM_SHAPES = ((4, 6, 1), (5, 6, 1), (4, 6, 2), (4, 7, 1), (5, 6, 2), (4, 5, 2), (5, 5, 1), (5, 5, 2))


def planted_atom(rng: random.Random, n: int, hidden) -> tuple:
    coeffs = random_coeffs(rng, n)
    rel = rng.choice(ORDER_RELS)
    if rng.random() < 0.2:
        return ("atom", coeffs, rel, rational(rng, -4, 4))
    value = sum(c * h for c, h in zip(coeffs, hidden))
    slack = Fraction(rng.randint(1, 6), 2)
    if rel == "=":
        rhs = value
    elif rel in ("<", "<="):
        rhs = value + slack
    else:
        rhs = value - slack
    return ("atom", coeffs, rel, rhs)


def elim_instance(seed: int, index: int) -> dict:
    n, k, m = ELIM_SHAPES[index % len(ELIM_SHAPES)]
    rng = instance_rng("elim", seed, index)
    conjs = []
    for _ in range(m):
        hidden = [rational(rng, -2, 2) for _ in range(n)]
        conjs.append([planted_atom(rng, n, hidden) for _ in range(k)])
    conj_texts = [" & ".join(linear_text(a) for a in c) for c in conjs]
    text = " | ".join(f"({t})" for t in conj_texts) if m > 1 else conj_texts[0]
    keep = sorted(rng.sample(range(n), 2))
    return {"n": n, "conjs": conjs, "conj_texts": conj_texts, "text": text, "keep": keep}


# --- Puiseux data and mixed formulas ---------------------------------------
#
# A Puiseux element is a dict {exponent: coefficient} of nonzero terms.


def _term_text(e: Fraction, mag: Fraction) -> str:
    """The Puiseux term |c| * t^e."""
    if e == 0:
        return str(mag)
    tpart = "t" if e == 1 else f"t^{e}"
    return tpart if mag == 1 else f"{mag}*{tpart}"


def puiseux_text(p: dict) -> str:
    """Literal for parse_puiseux; "0" for the zero element."""
    if not p:
        return "0"
    out = []
    for e in sorted(p):
        c = p[e]
        sign = ("-" if c < 0 else "") if not out else (" - " if c < 0 else " + ")
        out.append(sign + _term_text(e, abs(c)))
    return "".join(out)


def factor_text(root: dict, mult: int) -> str:
    """(x - root)^mult, each term of the root written with its own sign."""
    body = "x" + "".join((" - " if root[e] > 0 else " + ") + _term_text(e, abs(root[e]))
                         for e in sorted(root))
    return f"({body})" + (f"^{mult}" if mult > 1 else "")


def poly_text(poly: dict) -> str:
    lead = poly["lead"]
    factors = "*".join(factor_text(r, m) for r, m in poly["roots"])
    return factors if lead == 1 else f"{lead}*{factors}"


def random_puiseux(rng: random.Random, max_terms: int) -> dict:
    p = {}
    for _ in range(rng.randint(0, max_terms)):
        e = Fraction(rng.randint(-2, 4), rng.choice((1, 2)))
        c = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        if c:
            p[e] = c
    return p


def random_poly(rng: random.Random, n_roots: int) -> dict:
    roots = []
    seen = set()
    while len(roots) < n_roots:
        r = random_puiseux(rng, 2)
        key = tuple(sorted(r.items()))
        if key in seen:
            continue
        seen.add(key)
        roots.append((r, rng.choice((1, 1, 2))))
    return {"lead": rng.choice((1, 1, 2, 3)), "roots": roots}


def mixed_atom_text(a: tuple) -> str:
    kind = a[0]
    if kind == "zero":
        _, pi, rel, polys = a
        return f"v({poly_text(polys[pi])}) {rel} inf"
    if kind == "gamma":
        _, gcoeffs, rel, rhs = a
        return f"{linexpr_text(gcoeffs, 'g')} {rel} {rhs}"
    _, w, pi, gcoeffs, rel, rhs, polys = a
    lhs = ("" if w == 1 else ("-" if w == -1 else f"{w}*")) + f"v({poly_text(polys[pi])})"
    g = linexpr_text(gcoeffs, "g")
    if g:
        lhs += f" - {g[1:]}" if g.startswith("-") else f" + {g}"
    return f"{lhs} {rel} {rhs}"


def mixed_text(t) -> str:
    kind = t[0]
    if kind in ("val", "zero", "gamma"):
        return mixed_atom_text(t)
    if kind == "not":
        return f"!({mixed_text(t[1])})"
    joiner = " & " if kind == "and" else " | "
    return joiner.join(f"({mixed_text(p)})" if p[0] in ("and", "or") else mixed_text(p)
                       for p in t[1])


# mixed: (group variables, polynomials, roots per polynomial, atoms).
# Two group variables make 3-variable cell problems over (rho, gamma), so
# those shapes keep to two atoms.
MIXED_SHAPES = ((1, 1, 3, 3), (1, 2, 3, 2), (1, 1, 5, 3), (1, 3, 2, 4),
                (2, 1, 2, 2), (1, 3, 3, 2), (1, 2, 4, 3), (2, 2, 2, 2))
# Atom kinds by position: weighted valuation, pure group, valuation, zero test.
MIXED_ATOM_KINDS = ("val", "gamma", "val", "zero")
MEMBERSHIPS_PER_FORMULA = 100


def mixed_instance(seed: int, index: int) -> dict:
    n, n_polys, n_roots, n_atoms = MIXED_SHAPES[index % len(MIXED_SHAPES)]
    rng = instance_rng("mixed", seed, index)
    polys = [random_poly(rng, n_roots) for _ in range(n_polys)]
    atoms = []
    for kind in MIXED_ATOM_KINDS[:n_atoms]:
        gcoeffs = tuple(rng.randint(-2, 2) for _ in range(n))
        if kind == "val":
            w = rng.choice((1, 1, 2, -1))
            atoms.append(("val", w, rng.randrange(n_polys), gcoeffs,
                          rng.choice(ORDER_RELS), rational(rng, -3, 3), polys))
        elif kind == "zero":
            atoms.append(("zero", rng.randrange(n_polys), "=", polys))
        else:
            if not any(gcoeffs):
                gcoeffs = (1,) + (0,) * (n - 1)
            atoms.append(("gamma", gcoeffs, rng.choice(ORDER_RELS), rational(rng, -3, 3)))
    tree = random_boolean(rng, atoms)
    points = []
    centers = [{}] + [r for p in polys for r, _ in p["roots"]]
    for j in range(MEMBERSHIPS_PER_FORMULA):
        roll = j % 4
        if roll == 0:
            x = dict(rng.choice(centers))
        elif roll in (1, 2):
            x = dict(rng.choice(centers))
            e = Fraction(rng.randint(-4, 8), 2)
            x[e] = x.get(e, Fraction(0)) + rng.choice((1, -1, 2))
            x = {k: v for k, v in x.items() if v}
        else:
            x = random_puiseux(rng, 3)
        gamma = tuple(rational(rng, -3, 3) for _ in range(n))
        points.append((x, gamma))
    return {"n": n, "tree": tree, "polys": polys, "text": mixed_text(tree),
            "points": points, "point_texts": [(puiseux_text(x), [str(g) for g in gm])
                                              for x, gm in points]}


# --- command lines ---------------------------------------------------------


def random_lowerset(rng: random.Random) -> list[list[int]]:
    return [[rng.randint(0, 5), rng.randint(0, 5)] for _ in range(rng.randint(1, 4))]


def points_text(points) -> str:
    return "[" + ",".join(f"[{a},{b}]" for a, b in points) + "]"


def random_trop(rng: random.Random, n: int, k: int) -> list[tuple]:
    exps = set()
    while len(exps) < k:
        exps.add(tuple(rng.randint(0, 2) for _ in range(n)))
    return [(e, rational(rng, -2, 2)) for e in sorted(exps)]


def trop_text(terms) -> str:
    return " + ".join(f"{w}@({','.join(map(str, e))})" for e, w in terms)


def small_linear(rng: random.Random, n: int, k: int) -> tuple:
    atoms = [("atom", random_coeffs(rng, n), rng.choice(RELS), rational(rng, -4, 4))
             for _ in range(k)]
    return random_boolean(rng, atoms)


# One cycle covers every subcommand; the last entry is a 3-variable
# hypersurface, the slowest command of the cycle.
CLI_KINDS = (
    "lowerset closure", "lowerset join", "lowerset add", "lowerset shift",
    "lowerset dimnat", "lowerset render", "gamma dim", "gamma cells",
    "gamma project", "gamma closure", "gamma type1d", "mixed dim",
    "mixed cells", "mixed project", "trop hypersurface", "trop image",
    "trop check-pure", "trop hypersurface3",
)


def cli_instance(seed: int, index: int) -> dict:
    """One command line; options come first and ``--`` guards the inputs,
    which may start with a minus sign."""
    kind = CLI_KINDS[index % len(CLI_KINDS)]
    rng = instance_rng("cli", seed, index)
    group, op = kind.split()
    inst: dict = {"kind": kind}
    options: list[str] = []
    if group == "lowerset":
        a, b = random_lowerset(rng), random_lowerset(rng)
        inst["sets"] = [a, b] if op in ("join", "add") else [a]
        inputs = [points_text(p) for p in inst["sets"]]
        if op not in ("dimnat", "render"):
            options = ["--format", "json"]
    elif group == "gamma":
        n = 1 if op == "type1d" else rng.choice((1, 2, 2, 3))
        tree = small_linear(rng, n, rng.randint(2, 4) if n < 3 else 3)
        inst.update(n=n, tree=tree)
        inputs = [linear_text(tree)]
        options = ["-n", str(n)]
        if op in ("cells", "type1d"):
            options += ["--format", "json"]
        if op == "project":
            inst["keep"] = sorted(rng.sample(range(n), max(1, n - 1)))
            options += ["--keep", ",".join(str(k + 1) for k in inst["keep"])]
    elif group == "mixed":
        m = mixed_instance(seed, index)
        inst.update(n=m["n"], tree=m["tree"], polys=m["polys"])
        inputs = [m["text"]]
        options = ["-n", str(m["n"])] + (["--format", "json"] if op != "project" else [])
    elif op == "image":
        lo = [rational(rng, -2, 1) for _ in range(2)]
        hi = [v + rng.randint(1, 3) for v in lo]
        box = ("and", [("atom", (1, 0), ">=", lo[0]), ("atom", (1, 0), "<=", hi[0]),
                       ("atom", (0, 1), ">=", lo[1]), ("atom", (0, 1), "<=", hi[1])])
        matrix = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        inst.update(tree=box, matrix=matrix)
        inputs = [linear_text(box)]
        options = ["--map=" + ";".join(",".join(map(str, row)) for row in matrix)]
    else:
        n = 3 if op == "hypersurface3" else 2
        terms = random_trop(rng, n, rng.randint(2, 4) if n == 2 else 3)
        inst.update(n=n, terms=terms)
        inputs = [trop_text(terms)]
        if op == "check-pure":
            inst["d"] = rng.choice((0, 1))
            options = ["-d", str(inst["d"])]
        else:
            op, options = "hypersurface", ["--format", "json"]
    inst["argv"] = [group, op, *options, "--", *inputs]
    inst["text"] = " ".join(inst["argv"])
    return inst
