"""Command-line front end.

Subcommands mirror the library surface: ``lowerset`` for lower-set
arithmetic, ``gamma`` for the group-sort engine, ``mixed`` for the valued
coordinate, ``trop`` for tropical hypersurfaces and images, and
``verify`` for the randomized oracle suites.  Inputs are inline strings
or ``-`` for stdin; output is plain text or ``--format json``.  Exit
codes: 0 success, 1 verification mismatch, 2 parse error (a usage error
included), 3 semantic error or work nested past the recursion limit,
4 internal error (any other exception, reported in one line).  Output
depends only on (argv, seed) and is never colored.

Each handler imports the engine it runs, so a command loads and compiles
only its own part of the library.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import ParseError, SemanticError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_INTERNAL = 4


def _read_arg(text: str) -> str:
    if text == "-":
        return sys.stdin.read().strip()
    return text


def _parse_points(text: str) -> list[tuple[int, ...]]:
    try:
        data = json.loads(text)
        if not isinstance(data, list) or not all(
            isinstance(p, list) and all(type(c) is int for c in p) for p in data
        ):
            raise ValueError(f"got {text!r}")
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise ParseError(f"expected a JSON list of integer points: {exc}") from exc
    return [tuple(p) for p in data]


def _parse_lowerset(text: str):
    from . import lowerset as ls

    return ls.lower_closure(_parse_points(text))


def _printed(render) -> str:
    """``render()``, refused when a number is longer than the interpreter converts to text."""
    try:
        return render()
    except ValueError:
        raise SemanticError(
            f"a dimension of more than {sys.get_int_max_str_digits()} digits is not printed"
        ) from None


def _dim_str(d) -> str:
    return "-inf" if d == float("-inf") else _printed(lambda: str(int(d)))


def _emit_lowerset(a, fmt: str) -> str:
    if fmt == "json":
        return _printed(a.to_json)
    return "(empty)" if a.is_empty() else _printed(lambda: " ".join(map(str, a.maxima)))


def _run_lowerset(args) -> int:
    from . import lowerset as ls

    op = args.op
    count = 2 if op in ("join", "add") else 1
    if len(args.inputs) != count:
        raise SemanticError(
            f"lowerset {op} takes exactly {'two inputs' if count == 2 else 'one input'}"
        )
    if count == 2:
        a = _parse_lowerset(_read_arg(args.inputs[0]))
        b = _parse_lowerset(_read_arg(args.inputs[1]))
        out = ls.join(a, b) if op == "join" else ls.add(a, b)
        print(_emit_lowerset(out, args.format))
        return EXIT_OK
    text = _read_arg(args.inputs[0])
    if op == "closure":
        print(_emit_lowerset(_parse_lowerset(text), args.format))
    elif op == "shift":
        print(_emit_lowerset(ls.shift_closure(_parse_lowerset(text)), args.format))
    elif op == "dimnat":
        print(_dim_str(ls.dim_nat(_parse_lowerset(text))))
    elif op == "render":
        print(ls.render_diagram(_parse_lowerset(text)))
    return EXIT_OK


def _parse_keep(text: str, n: int) -> list[int]:
    from .boolean import signed_int

    try:
        keep = sorted({signed_int(k) - 1 for k in text.split(",") if k.strip()})
    except ValueError as exc:
        raise ParseError(f"bad --keep list {text!r}") from exc
    if any(k < 0 or k >= n for k in keep):
        raise SemanticError(f"--keep indices out of range for {n} variables")
    return keep


def _run_gamma(args) -> int:
    from . import semilinear as sl

    f = sl.parse_formula(_read_arg(args.formula), args.nvars)
    if args.op == "dim":
        print(_dim_str(sl.dimension(f)))
    elif args.op == "cells":
        cells = sl.cell_decompose(f)
        if args.format == "json":
            print(json.dumps([sl.cell_to_json(c) for c in cells]))
        else:
            for c in cells:
                print(f"signature {list(c.signature)}: {json.dumps(sl.cell_to_json(c)['bounds'])}")
            if not cells:
                print("(empty)")
    elif args.op == "project":
        if args.keep is None:
            raise SemanticError("gamma project requires --keep")
        keep = _parse_keep(args.keep, f.arity)
        g = sl.project(f, keep)
        print(sl.formula_to_dsl(g))
    elif args.op == "closure":
        print(sl.formula_to_dsl(sl.closure(f)))
    elif args.op == "type1d":
        t = sl.one_var_canonical(f)
        if args.format == "json":
            print(json.dumps({
                "M": t.M,
                "N": t.N,
                "intervals": [
                    [None if lo is None else str(lo), lc,
                     None if hi is None else str(hi), hc]
                    for lo, lc, hi, hc in t.intervals
                ],
                "points": [str(p) for p in t.points],
                "boundary": [str(b) for b in t.boundary],
            }))
        else:
            print(f"type ({t.M},{t.N})")
            for lo, lc, hi, hc in t.intervals:
                left = "[" if lc else "("
                right = "]" if hc else ")"
                print(f"  interval {left}{'-inf' if lo is None else lo}, "
                      f"{'inf' if hi is None else hi}{right}")
            for p in t.points:
                print(f"  point {p}")
            print("  boundary {" + ", ".join(str(b) for b in t.boundary) + "}")
    return EXIT_OK


def _run_mixed(args) -> int:
    from . import mixedcell as mc
    from . import semilinear as sl

    f = mc.parse_mixed_formula(_read_arg(args.formula), args.nvars)
    if args.op == "dim":
        print(_emit_lowerset(mc.mixed_dimension(f), args.format))
    elif args.op == "cells":
        cells = mc.mixed_cell_decompose(f)
        if args.format == "json":
            print(json.dumps([mc.mixed_cell_to_json(c) for c in cells]))
        else:
            for c in cells:
                print(f"{c.piece.kind} base, dim {c.dim_pair()}")
            if not cells:
                print("(empty)")
    elif args.op == "project":
        print(sl.formula_to_dsl(mc.project_to_gamma(f)))
    return EXIT_OK


def _parse_matrix(text: str):
    from . import trop
    from .boolean import signed_int

    try:
        rows = tuple(
            tuple(signed_int(e) for e in row.split(",")) for row in text.split(";")
        )
    except ValueError as exc:
        raise ParseError(f"bad matrix {text!r}; rows like '1,0;1,1'") from exc
    return trop.MonomialMap(rows)


def _run_trop(args) -> int:
    from . import semilinear as sl
    from . import trop

    if args.op == "hypersurface":
        p = trop.trop_poly_from_text(_read_arg(args.input))
        c = trop.trop_hypersurface(p)
        if args.format == "json":
            print(json.dumps(trop.complex_to_json(c)))
        else:
            for f in c.faces:
                print(f"dim {f.dim}: " + " & ".join(str(a) for a in f.system.atoms))
            if not c.faces:
                print("(empty)")
    elif args.op == "image":
        if args.map is None:
            raise SemanticError("trop image requires --map")
        mp = _parse_matrix(args.map)
        dom = sl.parse_formula(_read_arg(args.input), args.nvars or mp.inputs)
        img = trop.trop_image_monomial(dom, mp)
        print(sl.formula_to_dsl(img))
    elif args.op == "check-pure":
        p = trop.trop_poly_from_text(_read_arg(args.input))
        c = trop.trop_hypersurface(p)
        print("true" if trop.pure_dimension_check(c, args.dim) else "false")
    return EXIT_OK


def _run_verify(args) -> int:
    from . import verify

    for flag, count in (("--cases", args.cases), ("--trop-cases", args.trop_cases)):
        if count < 0:
            raise SemanticError(f"{flag} must be non-negative, got {count}")
    if args.op == "figures":
        r = verify.suite_figures()
        print(r.line())
        for failure in r.failures:
            print(f"  {failure}")
        return EXIT_OK if r.ok else EXIT_VERIFY
    if args.op == "axioms":
        results = [
            verify.suite_lowerset(args.seed, min(args.cases, 300)),
            verify.suite_elimination(args.seed, args.cases),
            verify.suite_cells(args.seed, args.cases),
            verify.suite_dim_axioms(args.seed, min(args.cases, 200)),
            verify.suite_closure(args.seed, min(args.cases, 200)),
            verify.suite_mixed(args.seed, min(args.cases, 100)),
            verify.suite_trop(args.seed, args.trop_cases),
        ]
        for r in results:
            print(r.line())
        total_fail = sum(len(r.failures) for r in results)
        print(f"total: {sum(r.cases for r in results)} cases, {total_fail} failures")
        return EXIT_OK if total_fail == 0 else EXIT_VERIFY
    if args.op == "paper-suite":
        checks = [
            ("1 figure values", lambda: verify.suite_figures()),
            ("2 elimination", lambda: verify.suite_elimination(args.seed, max(args.cases, 500))),
            ("3 cell decomposition", lambda: verify.suite_cells(args.seed, max(args.cases, 500))),
            ("4 dimension axioms", lambda: verify.suite_dim_axioms(args.seed, 200)),
            ("5 mixed engine", lambda: verify.suite_mixed(args.seed, 100)),
            ("6 tropical", lambda: verify.suite_trop(args.seed, args.trop_cases)),
            ("7 closure", lambda: verify.suite_closure(args.seed, 200)),
        ]
        any_fail = False
        for name, run in checks:
            start = time.monotonic()
            r = run()
            elapsed = time.monotonic() - start
            status = "PASS" if r.ok else "FAIL"
            detail = "" if r.ok else f"  [{r.failures[0]}]"
            print(f"{status} criterion {name}: {r.cases} cases in {elapsed:.1f}s{detail}")
            any_fail = any_fail or not r.ok
        return EXIT_VERIFY if any_fail else EXIT_OK
    raise SemanticError(f"unknown verify suite {args.op!r}")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are parse errors (exit 2, one line).

    Subparsers are made of the parser's own class, so theirs are too.
    ``--help`` still prints the usage and exits 0.
    """

    def error(self, message: str):
        missing = message.startswith("the following arguments are required")
        if (missing and not message.endswith(": command")) or message.startswith("unrecognized"):
            message += "; a formula that starts with '-' goes after '--'"
        raise ParseError(f"{self.prog}: {message}")


def _int_option(text: str) -> int:
    """An integer option, read by the INT rule of the DSLs: ``['-'] INT`` in ASCII digits."""
    from .boolean import signed_int

    try:
        return signed_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="valdim",
        description="Exact dimension calculus over valued and ordered-group coordinates.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_ls = sub.add_parser("lowerset", help="lower-set arithmetic on N^2 / N^3")
    p_ls.add_argument("op", choices=["closure", "join", "add", "shift", "dimnat", "render"])
    p_ls.add_argument("inputs", nargs="+", help="JSON point lists, or - for stdin")
    p_ls.add_argument("--format", choices=["text", "json"], default="text")
    p_ls.set_defaults(func=_run_lowerset)

    p_g = sub.add_parser("gamma", help="linear formulas over the ordered group")
    p_g.add_argument("op", choices=["dim", "cells", "project", "closure", "type1d"])
    p_g.add_argument("formula", help="DSL text, or - for stdin")
    p_g.add_argument("-n", "--nvars", type=_int_option, default=None)
    p_g.add_argument("--keep", default=None, help="1-based variables to project onto")
    p_g.add_argument("--format", choices=["text", "json"], default="text")
    p_g.set_defaults(func=_run_gamma)

    p_m = sub.add_parser("mixed", help="one valued coordinate with group coordinates")
    p_m.add_argument("op", choices=["dim", "cells", "project"])
    p_m.add_argument("formula", help="mixed DSL text, or - for stdin")
    p_m.add_argument("-n", "--nvars", type=_int_option, default=None)
    p_m.add_argument("--format", choices=["text", "json"], default="text")
    p_m.set_defaults(func=_run_mixed)

    p_t = sub.add_parser("trop", help="tropical hypersurfaces and monomial images")
    p_t.add_argument("op", choices=["hypersurface", "image", "check-pure"])
    p_t.add_argument("input", help="weight@(exponents) sum or domain formula")
    p_t.add_argument("--map", default=None, help="integer matrix rows, e.g. '1,0;1,1'")
    p_t.add_argument("-n", "--nvars", type=_int_option, default=None)
    p_t.add_argument("-d", "--dim", type=_int_option, default=1)
    p_t.add_argument("--format", choices=["text", "json"], default="text")
    p_t.set_defaults(func=_run_trop)

    p_v = sub.add_parser("verify", help="run the randomized oracle suites")
    p_v.add_argument("op", choices=["axioms", "figures", "paper-suite"])
    p_v.add_argument("--seed", type=_int_option, default=0)
    p_v.add_argument("--cases", type=_int_option, default=500)
    p_v.add_argument("--trop-cases", type=_int_option, default=50)
    p_v.set_defaults(func=_run_verify)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:  # SemanticError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except RecursionError:
        # cell decomposition recurses once per variable
        limit = sys.getrecursionlimit()
        print(f"error: input too large: the work nests past the recursion limit of {limit}",
              file=sys.stderr)
        return EXIT_SEMANTIC
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
