"""The four workloads: engine calls (timed by the caller) and output checks.

Each workload provides
- ``instance(seed, i)``: the i-th query of the seeded pool (gen.py);
- ``run(inst, call)``: the program's work for one query, through public
  ``valdim`` functions only, starting from the query's DSL text;
- ``reference(inst, frozen)``: oracle data for the query, untimed; the
  scalar answers come from the frozen table when one is given (gamma,
  mixed and cli have one for the default seed);
- ``check(inst, answer, ref)``: a list of error strings, empty when the
  answer is right.  Checks look only at properties that do not depend on
  how an answer is presented: dimensions, membership on a fixed rational
  grid, sample points of cells, Puiseux valuations.

``call(name, fn, *args)`` calls ``fn(*args)``; under tracing it records a
span for calls the tracer cannot wrap from outside.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction

import gen
import oracle as orc

F = Fraction
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ENV = dict(os.environ, PYTHONPATH=SRC)  # the console script is not assumed installed
# Membership grid {-2, -1, -1/2, 0, 1/2, 1, 2}^n, held as integers times SCALE.
SCALE = 2
GRID = (-4, -2, -1, 0, 1, 2, 4)
LINE_GRID = tuple(F(k, 4) for k in range(-20, 21))


def _dim_value(d) -> int:
    return -1 if d == float("-inf") else int(d)


def _check_grid(errors, label, text, n, expected_conjs):
    """Compare the printed formula with a union of conjunctions on the grid."""
    got = orc.scaled_union(orc.dnf(orc.parse_linear(text, n)), SCALE)
    want = orc.scaled_union(expected_conjs, SCALE)
    for p in orc.grid(GRID, n):
        if orc.union_holds(got, p) != orc.union_holds(want, p):
            errors.append(f"{label} wrong at {tuple(str(F(x, SCALE)) for x in p)}")
            return


def _check_cells(errors, cells_json, tree, expected_dim):
    top = -1
    for j in cells_json:
        s = orc.cell_sample(j)
        if not orc.holds(tree, s):
            errors.append(f"cell sample {tuple(map(str, s))} outside the set")
            return
        top = max(top, sum(j["signature"]))
    if top != expected_dim:
        errors.append(f"largest cell signature {top}, expected dimension {expected_dim}")


def _shadow(rows, keep, n):
    """Projection of one conjunction onto ``keep`` by the oracle; None if empty."""
    out = rows
    for j in range(n - 1, -1, -1):
        if j in keep:
            continue
        out = orc.eliminate(out, j)
        if out is None:
            return None
    return out


def _shadows(conjs, keep, n) -> list:
    return [s for s in (_shadow(c, keep, n) for c in conjs) if s is not None]


def _closure(conjs) -> list:
    """Closure of a union: each nonempty conjunction with strict rows relaxed."""
    return [[(a, "<=" if rel == "<" else rel, b) for a, rel, b in c]
            for c in conjs if orc.feasible(c)]


# --- gamma -----------------------------------------------------------------------


class Gamma:
    name = "gamma"
    modules = "valdim.semilinear"
    instance = staticmethod(gen.gamma_instance)

    @staticmethod
    def run(inst, call):
        from valdim import semilinear as sl

        f = sl.parse_formula(inst["text"], inst["n"])
        return (sl.dimension(f), sl.cell_decompose(f),
                sl.project(f, inst["keep"]), sl.closure(f))

    @staticmethod
    def reference(inst, frozen):
        conjs = orc.dnf(inst["tree"])
        dim = frozen if frozen is not None else orc.dimension(conjs, inst["n"])
        return {"dim": dim, "conjs": conjs}

    @staticmethod
    def check(inst, answer, ref):
        from valdim import semilinear as sl

        n, tree = inst["n"], inst["tree"]
        dim, cells, proj, clos = answer
        errors = []
        if _dim_value(dim) != ref["dim"]:
            errors.append(f"dimension {dim}, expected {ref['dim']}")
        _check_cells(errors, (sl.cell_to_json(c) for c in cells), tree, ref["dim"])
        keep = inst["keep"]
        _check_grid(errors, "projection", sl.formula_to_dsl(proj), len(keep),
                    _shadows(ref["conjs"], keep, n))
        _check_grid(errors, "closure", sl.formula_to_dsl(clos), n, _closure(ref["conjs"]))
        return errors


# --- elim ------------------------------------------------------------------------


class Elim:
    name = "elim"
    modules = "valdim.semilinear"
    instance = staticmethod(gen.elim_instance)

    @staticmethod
    def run(inst, call):
        from valdim import semilinear as sl

        n = inst["n"]
        conjs = [sl.parse_formula(text, n) for text in inst["conj_texts"]]
        proj = sl.project(sl.Or.of(*conjs), inst["keep"])
        systems = []
        for g in conjs:
            b = sl.BasicSet(tuple(g.atoms()), n)
            empty = sl.is_empty(b)
            systems.append((empty, None if empty else sl.sample_point(b)))
        return proj, systems

    @staticmethod
    def reference(inst, frozen):
        conjs = [[row for a in c for row in orc.atom_rows(*a[1:])[0]] for c in inst["conjs"]]
        return {"empty": [not orc.feasible(c) for c in conjs], "conjs": conjs}

    @staticmethod
    def check(inst, answer, ref):
        from valdim import semilinear as sl

        proj, systems = answer
        errors = []
        for rows, expected, (empty, point) in zip(ref["conjs"], ref["empty"], systems):
            if empty != expected:
                errors.append(f"is_empty {empty}, expected {expected}")
            elif not empty and (point is None or not orc.rows_hold(rows, point)):
                errors.append(f"sample_point {point} outside the system")
        live = [c for c, e in zip(ref["conjs"], ref["empty"]) if not e]
        _check_grid(errors, "projection", sl.formula_to_dsl(proj), 2,
                    _shadows(live, inst["keep"], inst["n"]))
        return errors


# --- mixed -----------------------------------------------------------------------


class Mixed:
    name = "mixed"
    modules = "valdim.mixedcell"
    instance = staticmethod(gen.mixed_instance)

    @staticmethod
    def run(inst, call):
        from valdim import mixedcell as mc

        f = mc.parse_mixed_formula(inst["text"], inst["n"])
        dim = mc.mixed_dimension(f)
        proj = mc.project_to_gamma(f)
        cells = mc.mixed_cell_decompose(f)
        member = [call("mixedcell.formula.holds", f.holds, mc.parse_puiseux(x),
                       tuple(Fraction(g) for g in gamma))
                  for x, gamma in inst["point_texts"]]
        return dim, proj, cells, member

    @staticmethod
    def reference(inst, frozen):
        tree, polys, n = inst["tree"], inst["polys"], inst["n"]
        maxima = frozen if frozen is not None else orc.mixed_dimension(tree, polys, n)
        return {"maxima": maxima, "proj": orc.mixed_projection(tree, polys, n)}

    @staticmethod
    def check(inst, answer, ref):
        from valdim import mixedcell as mc
        from valdim import semilinear as sl

        tree, n = inst["tree"], inst["n"]
        dim, proj, cells, member = answer
        errors = []
        maxima = json.loads(dim.to_json())["maxima"]
        if maxima != ref["maxima"]:
            errors.append(f"mixed dimension {maxima}, expected {ref['maxima']}")
        _check_mixed_cells(errors, (mc.mixed_cell_to_json(c) for c in cells), tree,
                           ref["maxima"])
        _check_grid(errors, "projection", sl.formula_to_dsl(proj), n, ref["proj"])
        for (x, gamma), got in zip(inst["points"], member):
            if got != orc.mixed_holds(tree, x, gamma):
                errors.append(f"membership of ({gen.puiseux_text(x)}, {gamma}) is {got}")
                break
        return errors


def _check_mixed_cells(errors, cells_json, tree, expected):
    pairs = []
    for j in cells_json:
        x, gamma = orc.mixed_cell_sample(j)
        if not orc.mixed_holds(tree, x, gamma):
            errors.append(f"mixed cell sample ({gen.puiseux_text(x)}, {gamma}) outside the set")
            return
        sig = j["signature"] if j["base"]["kind"] == "points" else j["signature"][1:]
        pairs.append((j["kdim"], sum(sig)))
    if orc.antichain(pairs) != expected:
        errors.append(f"cell dimension pairs give {orc.antichain(pairs)}, expected {expected}")


# --- cli -------------------------------------------------------------------------


class Cli:
    """One ``python -m valdim.cli`` process per query, run to completion."""

    name = "cli"
    modules = "valdim.cli"
    instance = staticmethod(gen.cli_instance)

    @staticmethod
    def run(inst, call):
        p = subprocess.run([sys.executable, "-m", "valdim.cli", *inst["argv"]],
                           capture_output=True, text=True, env=ENV)
        return p.returncode, p.stdout

    @staticmethod
    def reference(inst, frozen):
        kind, ref = inst["kind"], {}
        if "tree" in inst and kind.startswith("gamma"):
            ref["conjs"] = orc.dnf(inst["tree"])
        if frozen is not None:
            ref["value"] = frozen
        elif kind in ("gamma dim", "gamma cells"):
            ref["value"] = orc.dimension(ref["conjs"], inst["n"])
        elif kind in ("mixed dim", "mixed cells"):
            ref["value"] = orc.mixed_dimension(inst["tree"], inst["polys"], inst["n"])
        return ref

    @staticmethod
    def check(inst, answer, ref):
        code, out = answer
        if code != 0:
            return [f"exit code {code}"]
        try:
            return _check_cli(inst, out.strip(), ref)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output {out[:80]!r}: {exc}"]


def _check_cli(inst, out, ref) -> list[str]:
    kind, errors = inst["kind"], []
    group, op = kind.split()
    if group == "lowerset":
        sets = [orc.antichain(s) for s in inst["sets"]]
        expected = {
            "closure": lambda: sets[0],
            "join": lambda: orc.antichain(sets[0] + sets[1]),
            "add": lambda: orc.lower_add(sets[0], sets[1]),
            "shift": lambda: orc.lower_shift(sets[0]),
            "dimnat": lambda: orc.lower_dimnat(sets[0]),
            "render": lambda: None,
        }[op]()
        got = (json.loads(out)["maxima"] if op not in ("dimnat", "render")
               else (out if op == "dimnat" else None))
        if op == "render" and not out:
            errors.append("empty diagram")
        elif got != expected:
            errors.append(f"{kind}: {got}, expected {expected}")
        return errors
    if group == "gamma":
        n, tree = inst["n"], inst["tree"]
        if op == "dim":
            got = -1 if out == "-inf" else int(out)
            if got != ref["value"]:
                errors.append(f"dimension {got}, expected {ref['value']}")
        elif op == "cells":
            _check_cells(errors, json.loads(out), tree, ref["value"])
        elif op == "project":
            keep = inst["keep"]
            _check_grid(errors, "projection", out, len(keep), _shadows(ref["conjs"], keep, n))
        elif op == "closure":
            _check_grid(errors, "closure", out, n, _closure(ref["conjs"]))
        else:
            t = json.loads(out)

            def described(p):
                x = p[0]
                for lo, lc, hi, hc in t["intervals"]:
                    above = lo is None or (x >= F(lo) if lc else x > F(lo))
                    below = hi is None or (x <= F(hi) if hc else x < F(hi))
                    if above and below:
                        return True
                return any(x == F(q) for q in t["points"])

            for p in orc.grid(LINE_GRID, 1):
                if described(p) != orc.holds(tree, p):
                    errors.append(f"type1d wrong at {p[0]}")
                    break
        return errors
    if group == "mixed":
        tree, n = inst["tree"], inst["n"]
        if op == "dim":
            got = json.loads(out)["maxima"]
            if got != ref["value"]:
                errors.append(f"mixed dimension {got}, expected {ref['value']}")
        elif op == "cells":
            _check_mixed_cells(errors, json.loads(out), tree, ref["value"])
        else:
            _check_grid(errors, "projection", out, n,
                        orc.mixed_projection(tree, inst["polys"], n))
        return errors
    if op == "image":
        # { (X, eta) : X in the box, eta = M X } projected onto eta
        rows = [(a + (0, 0), rel, b) for a, rel, b in orc.dnf(inst["tree"])[0]]
        for r, row in enumerate(inst["matrix"]):
            rows.append((tuple(row) + tuple(-int(k == r) for k in range(2)), "=", 0))
        _check_grid(errors, "image", out, 2, _shadows([rows], [2, 3], 4))
        return errors
    terms, n = inst["terms"], inst["n"]
    if op == "check-pure":
        expected = "true" if inst["d"] == n - 1 or len(terms) == 1 else "false"
        if out != expected:
            errors.append(f"check-pure {out}, expected {expected}")
        return errors
    faces = []
    for face in json.loads(out)["faces"]:
        rows = [(tuple(map(F, c["coeffs"])), c["rel"], F(c["rhs"])) for c in face["constraints"]]
        if face["dim"] != n - 1 or orc.conj_dimension(rows, n) != n - 1:
            errors.append(f"face of dimension {face['dim']} in a hypersurface of R^{n}")
            return errors
        faces.append(rows)
    for p in orc.grid(GRID, n):
        q = tuple(F(x, SCALE) for x in p)
        if orc.on_tropical(terms, q) != any(orc.rows_hold(f, q) for f in faces):
            errors.append(f"hypersurface wrong at {tuple(map(str, q))}")
            break
    return errors


WORKLOADS = {w.name: w for w in (Gamma, Elim, Mixed, Cli)}
