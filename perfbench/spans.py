"""Spans around the program's public functions, installed from outside.

The tracer replaces each traced function by a wrapper in every loaded
``valdim`` module that refers to it, so calls between layers are seen as
well as calls from the benchmark.  A span's self time is its duration
minus the time covered by its child spans.  Spans are recorded only
while the tracer is installed; statistics are kept in memory and read
once at the end.  The first ``install()`` finds the functions; after that
``install()`` and ``uninstall()`` only swap attributes, so a caller can
trace some queries and not others at little cost.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


def _len(result, args) -> int:
    return len(result)


def _atoms(result, args) -> int:
    return len(result.atoms())


def _faces(result, args) -> int:
    return len(result.faces)


def _pairs(result, args) -> int:
    k = len(args[0].terms)
    return k * (k - 1) // 2


# (module under valdim, attribute path, {stat: counter(result, args)})
TARGETS = (
    ("semilinear.parser", "parse_formula", {}),
    ("semilinear.atoms", "normalize_dnf", {"disjuncts_out": _len}),
    ("semilinear.atoms", "formula_to_dsl", {}),
    ("semilinear.elimination", "project", {"atoms_out": _atoms}),
    ("semilinear.elimination", "is_empty", {}),
    ("semilinear.elimination", "sample_point", {}),
    ("semilinear.cells", "cell_decompose", {"cells_out": _len}),
    ("semilinear.cells", "dimension", {}),
    ("semilinear.topology", "closure", {}),
    ("semilinear.intervals", "one_var_canonical", {}),
    ("mixedcell.parser", "parse_mixed_formula", {}),
    ("mixedcell.parser", "parse_puiseux", {}),
    ("mixedcell.pieces", "monomial_decompose", {"pieces_out": _len}),
    ("mixedcell.engine", "piece_formulas", {}),
    ("mixedcell.engine", "mixed_dimension", {}),
    ("mixedcell.engine", "project_to_gamma", {}),
    ("mixedcell.engine", "mixed_cell_decompose", {"cells_out": _len}),
    ("trop", "trop_poly_from_text", {}),
    ("trop", "trop_hypersurface", {"faces_out": _faces, "pairs": _pairs}),
    ("trop", "trop_image_monomial", {}),
    ("trop", "Polyhedron.of", {}),
    ("lowerset", "lower_closure", {}),
    ("lowerset", "join", {}),
    ("lowerset", "add", {}),
    ("lowerset", "shift_closure", {}),
    ("lowerset", "shift_closure3", {}),
    ("lowerset", "dim_nat", {}),
    ("lowerset", "render_diagram", {}),
    ("cli", "main", {}),
)

# Counted, not timed: called per point, a span would cost more than the call.
COUNTED = (("mixedcell.puiseux", "FactoredPoly.valuation_at"),)


class Tracer:
    def __init__(self):
        self.stats: dict[str, float] = defaultdict(float)
        self.active = False
        self._stack = [0.0]
        self._found = False
        # (owner, attribute, original value, traced value)
        self._swaps: list[tuple] = []

    def wrap(self, name: str, fn, counters: dict):
        stats, stack = self.stats, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                stats[name + ".calls"] += 1
                stats[name + ".self_s"] += dt - child
            for stat, count in counters.items():
                stats[f"{name}.{stat}"] += count(result, args)
            return result

        return traced

    def span(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span recorded from the call site."""
        return self.wrap(name, fn, {})(*args)

    def _counted(self, name: str, fn):
        stats = self.stats

        def counted(*args, **kwargs):
            if self.active:
                stats[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def _replace(self, module: str, path: str, make):
        mod = sys.modules.get(f"valdim.{module}")
        if mod is None:  # layer not loaded by this workload
            return
        name = f"{module}.{path}"
        if "." in path:  # a method or static method of a class
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            new = make(name, fn)
            self._swaps.append(
                (cls, attr, raw, staticmethod(new) if isinstance(raw, staticmethod) else new))
            return
        orig = getattr(mod, path)
        new = make(name, orig)
        for m in [m for k, m in sys.modules.items() if k == "valdim" or k.startswith("valdim.")]:
            for key, value in list(vars(m).items()):
                if value is orig:
                    self._swaps.append((m, key, orig, new))

    def install(self):
        """Put the wrappers in place and start recording."""
        if not self._found:
            for module, path, counters in TARGETS:
                self._replace(module, path, lambda name, fn, c=counters: self.wrap(name, fn, c))
            for module, path in COUNTED:
                self._replace(module, path, self._counted)
            self._found = True
        for owner, key, _, new in self._swaps:
            setattr(owner, key, new)
        self.active = True

    def uninstall(self):
        """Stop recording and put the original functions back."""
        self.active = False
        for owner, key, orig, _ in reversed(self._swaps):
            setattr(owner, key, orig)
