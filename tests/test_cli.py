import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from valdim import cli, verify
from valdim.boolean import MAX_NESTING, MAX_VARIABLES
from valdim.semilinear import cell_from_json


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLowerset:
    def test_dimnat(self, capsys):
        code, out, _ = run(capsys, "lowerset", "dimnat", "[[1,4],[2,2],[4,1]]")
        assert code == 0 and out.strip() == "5"

    def test_closure_json(self, capsys):
        code, out, _ = run(
            capsys, "lowerset", "closure",
            "[[0,0],[0,3],[0,4],[1,4],[2,0],[2,1],[2,2],[4,0],[4,1]]",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"maxima": [[1, 4], [2, 2], [4, 1]]}

    def test_join_and_add(self, capsys):
        code, out, _ = run(capsys, "lowerset", "join", "[[1,0]]", "[[0,2]]")
        assert code == 0 and out.strip() == "(0, 2) (1, 0)"
        code, out, _ = run(capsys, "lowerset", "add", "[[1,0]]", "[[0,2]]")
        assert code == 0 and out.strip() == "(1, 2)"

    @pytest.mark.parametrize(
        "op, a, b, expected",
        [("join", "[]", "[[1,2,3]]", [[1, 2, 3]]), ("join", "[[1,2,3]]", "[]", [[1, 2, 3]]),
         ("add", "[[1,2,3]]", "[]", []), ("add", "[]", "[[1,2,3]]", [])],
    )
    def test_empty_operand_takes_the_other_width(self, capsys, op, a, b, expected):
        code, out, _ = run(capsys, "lowerset", op, a, b, "--format", "json")
        assert code == 0 and json.loads(out) == {"maxima": expected}

    def test_shift_triples(self, capsys):
        code, out, _ = run(capsys, "lowerset", "shift", "[[1,0,0]]", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"maxima": [[0, 0, 1], [0, 1, 0], [1, 0, 0]]}

    def test_shift_of_a_long_antichain_compares_few_pairs(self, capsys, monkeypatch):
        from valdim import lowerset

        calls = []
        real = lowerset._leq

        def counted(p, q):
            calls.append(1)
            if len(calls) > 10_000:
                raise AssertionError("quadratic comparison of maxima")
            return real(p, q)

        monkeypatch.setattr(lowerset, "_leq", counted)
        code, out, _ = run(capsys, "lowerset", "shift", "[[4000,0]]", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"maxima": [[k, 4000 - k] for k in range(4001)]}

    def test_shift_in_n3_is_quick(self, capsys):
        start = time.monotonic()
        code, out, _ = run(capsys, "lowerset", "shift", "[[40,0,0]]", "--format", "json")
        elapsed = time.monotonic() - start
        assert code == 0
        triples = sorted([a, b, 40 - a - b] for a in range(41) for b in range(41 - a))
        assert json.loads(out) == {"maxima": triples}
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "text", ["[[1413,0,0]]", "[[1000000,0]]", "[[0,2],[999999,1]]", f"[[{'9' * 400},0]]"]
    )
    def test_shift_past_the_point_limit_exit_3(self, capsys, text):
        code, out, err = run(capsys, "lowerset", "shift", text)
        assert (code, out) == (3, "")
        assert err == "error: a shift closure of more than 1000000 points is not built\n"

    def test_render_of_a_long_antichain_is_quick(self, capsys):
        text = json.dumps([[k, 300 - k] for k in range(301)])
        start = time.monotonic()
        code, out, _ = run(capsys, "lowerset", "render", text)
        elapsed = time.monotonic() - start
        assert code == 0
        rows = out.splitlines()
        assert rows[0] == "300 | " + " ".join(["  •"] + ["  ."] * 300)
        assert rows[300] == "  0 | " + " ".join(["  •"] * 301)
        assert elapsed < 1.0

    @pytest.mark.parametrize("top", ["1000", "9" * 4300])
    def test_render_past_the_cell_limit_exit_3(self, capsys, top):
        code, out, err = run(capsys, "lowerset", "render", f"[[{top},999]]")
        assert (code, out) == (3, "")
        assert err == "error: a diagram of more than 1000000 cells is not drawn\n"

    def test_render_at_the_cell_limit(self, capsys):
        code, out, _ = run(capsys, "lowerset", "render", "[[999,999]]")
        assert code == 0 and len(out.splitlines()) == 1002

    def test_empty_dimnat(self, capsys):
        code, out, _ = run(capsys, "lowerset", "dimnat", "[]")
        assert code == 0 and out.strip() == "-inf"

    def test_render(self, capsys):
        code, out, _ = run(capsys, "lowerset", "render", "[[1,1]]")
        assert code == 0 and "1 | • •" in out

    @pytest.mark.parametrize(
        "op, inputs",
        [("join", ["[[1,2]]"]), ("add", ["[[1,2]]", "[[0,1]]", "[[5,5]]"]),
         ("closure", ["[[1,2]]", "[[0,1]]"])],
    )
    def test_wrong_input_count_exit_3(self, capsys, op, inputs):
        code, out, err = run(capsys, "lowerset", op, *inputs)
        assert code == 3 and not out and "exactly" in err

    @pytest.mark.parametrize("text", ["[[1.5,1]]", "[[true,1]]", "{}", "[1,2]", '[["1"]]', "[[1,"])
    def test_non_integer_points_exit_2(self, capsys, text):
        code, out, err = run(capsys, "lowerset", "closure", text)
        assert code == 2 and not out
        assert "expected a JSON list of integer points" in err


class TestGamma:
    def test_dim(self, capsys):
        code, out, _ = run(capsys, "gamma", "dim", "x1 = x2", "-n", "2")
        assert code == 0 and out.strip() == "1"

    def test_cells_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "gamma", "cells", "0 < x1 & x1 < 1 & x2 = x1",
            "--format", "json",
        )
        assert code == 0
        cells = json.loads(out)
        assert [c["signature"] for c in cells] == [[1, 0]]
        assert cell_from_json(cells[0]).signature == (1, 0)

    def test_negated_constant_keeps_arity(self, capsys):
        code, out, _ = run(capsys, "gamma", "dim", "!(0 > 1)", "-n", "2")
        assert code == 0 and out.strip() == "2"
        code, out, _ = run(capsys, "gamma", "cells", "!(0 > 1)", "-n", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == [
            {"signature": [1, 1], "bounds": [["-inf", "inf"], ["-inf", "inf"]]}
        ]
        code, out, _ = run(capsys, "gamma", "cells", "!(0 < 1)", "-n", "2", "--format", "json")
        assert code == 0 and json.loads(out) == []

    def test_project(self, capsys):
        code, out, _ = run(capsys, "gamma", "project", "x1 < x2 & x2 <= 1", "--keep", "1")
        assert code == 0 and out.strip() == "x1 < 1"

    def test_closure(self, capsys):
        code, out, _ = run(capsys, "gamma", "closure", "0 < x1 & x1 <= 1")
        assert code == 0 and out.strip() == "-x1 <= 0 & x1 <= 1"

    def test_type1d(self, capsys):
        code, out, _ = run(capsys, "gamma", "type1d", "(0 < x1 & x1 < 1) | x1 = 2")
        assert code == 0 and "type (1,1)" in out

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "gamma", "dim", "x1 <")
        assert code == 2 and "parse error" in err

    def test_semantic_error_exit_3(self, capsys):
        code, _, err = run(capsys, "gamma", "dim", "x1 < x5", "-n", "2")
        assert code == 3 and "unknown variable" in err

    @pytest.mark.parametrize("op", ["dim", "cells"])
    def test_negative_arity_exit_3(self, capsys, op):
        code, out, err = run(capsys, "gamma", op, "true", "-n", "-1")
        assert code == 3 and not out and "negative" in err

    def test_constants_read_back(self, capsys):
        code, out, _ = run(capsys, "gamma", "project", "x1 < x2", "--keep", "1")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, "gamma", "dim", out.strip(), "-n", "1")
        assert code == 0 and out.strip() == "1"
        code, out, _ = run(capsys, "gamma", "dim", "false | x1 = 0", "-n", "2")
        assert code == 0 and out.strip() == "1"

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("x1 < 1"))
        code, out, _ = run(capsys, "gamma", "dim", "-")
        assert code == 0 and out.strip() == "1"


class TestMixed:
    def test_dim(self, capsys):
        code, out, _ = run(
            capsys, "mixed", "dim", "g1 = v(x) & 0 < v(x) & v(x) < 1"
        )
        assert code == 0 and out.strip() == "(1, 0)"

    def test_cells_json(self, capsys):
        code, out, _ = run(
            capsys, "mixed", "cells", "v(x) >= 0 & 0 < g1 & g1 < 1",
            "--format", "json",
        )
        assert code == 0
        cells = json.loads(out)
        assert all({"base", "kdim", "signature", "bounds"} <= set(c) for c in cells)
        assert any(c["kdim"] == 1 for c in cells)

    def test_project(self, capsys):
        code, out, _ = run(capsys, "mixed", "project", "g1 = v(x) & 0 < v(x)")
        assert code == 0 and out.strip() == "-x1 < 0"

    def test_constants(self, capsys):
        code, out, _ = run(capsys, "mixed", "dim", "true", "-n", "1")
        assert code == 0 and out.strip() == "(1, 1)"
        code, out, _ = run(capsys, "mixed", "dim", "false | g1 < 0", "-n", "2")
        assert code == 0 and out.strip() == "(1, 2)"

    def test_negative_arity_exit_3(self, capsys):
        code, out, err = run(capsys, "mixed", "dim", "v(x) < 1", "-n", "-1")
        assert code == 3 and not out and "negative" in err

    @pytest.mark.parametrize("text", ["v(x) < inf + inf", "inf + inf > v(x)", "v(x) < 0 + inf"])
    def test_inf_stands_alone_exit_2(self, capsys, text):
        code, out, err = run(capsys, "mixed", "dim", text)
        assert code == 2 and not out and "'inf' must stand alone" in err

    @pytest.mark.parametrize(
        "text, code, err",
        [
            ("v(0) < 1 & )", 3, "error: zero polynomial rejected: valuation identically infinite"),
            ("inf + g1 < 0 & )", 2,
             "parse error: 'inf' must stand alone on its side (at position 9)"),
            ("v(x) < inf & inf > inf & )", 2,
             "parse error: 'inf' on both sides of a comparison (at position 17)"),
        ],
    )
    def test_comparison_errors_come_before_later_syntax_errors(self, capsys, text, code, err):
        """A comparison is built where it is read, so its own errors come in text order."""
        assert run(capsys, "mixed", "dim", "--", text) == (code, "", err + "\n")

    def test_zero_poly_rejected(self, capsys):
        code, _, err = run(capsys, "mixed", "dim", "v(0*(x)) = 1")
        assert code in (2, 3) and err


class TestMixedOutputDigests:
    """Printed mixed output on seeded formulas, fixed byte for byte.

    The formulas are the first eight of the seed-0 ``mixed`` benchmark
    pool, one of each shape.  Each digest covers the stdout of ``mixed
    dim``, ``mixed cells --format json`` and ``mixed project``, so a change
    to the Puiseux arithmetic or to any printer cannot alter output unseen.
    """

    CASES = [
        (1, "(-v((x - 3/2*t^-1 - t^2)^2*(x + 1/2*t^-2 + t^-1)^2*(x)) - g1 >= -1/2"
            " & g1 > -1) & v((x - 3/2*t^-1 - t^2)^2*(x + 1/2*t^-2 + t^-1)^2*(x)) <= -2",
         "783982b1fd305c7e"),
        (1, "v(3*(x - 1/2*t^-1/2)^2*(x)^2*(x + t)) + g1 <= -3 & g1 <= 1/2",
         "fbfee0702fb9353e"),
        (1, "(v(2*(x + 2*t^3/2)*(x)*(x - 3/2*t^3)^2*(x + 3/2 - 2*t^3)*(x - 1/2 + t^4))"
            " + 2*g1 >= 0 & g1 < -2) | v(2*(x + 2*t^3/2)*(x)*(x - 3/2*t^3)^2"
            "*(x + 3/2 - 2*t^3)*(x - 1/2 + t^4)) + 2*g1 >= 2",
         "49ac144d3fe80854"),
        (1, "((v(2*(x + 2*t^-1 - 2*t^2)*(x)^2) + 2*g1 < -3 | g1 < 2)"
            " | -v(3*(x)*(x - 1/2*t^2)^2) + g1 >= 3) | v(2*(x + 2*t^-1 - 2*t^2)*(x)^2) = inf",
         "b0e786e4f4e6e349"),
        (2, "v(2*(x - 3/2*t^-1)*(x)) - 2*g1 + 2*g2 = -3 & g1 + 2*g2 = 0",
         "910644d5b35f5d34"),
        (1, "v((x - t - t^4)*(x)*(x + 2*t)^2) + 2*g1 >= -3 & g1 = 1",
         "95e2407bda6c7985"),
        (1, "(2*v(2*(x - 1/2)^2*(x + 1/2*t)*(x + 1 + 3/2*t^2)*(x - 1/2*t + 1/2*t^4))"
            " - 2*g1 <= -2 | -2*g1 <= -1) & -v((x)*(x - 3*t^-2)*(x - t^3)^2"
            "*(x + 3/2 - 3*t^2)) + g1 > -3/2",
         "becf8d41e50df3a4"),
        (2, "v((x)*(x - 3*t^3/2)) + 2*g1 + g2 >= -1 | -2*g2 < 2",
         "6241ac5edd229d14"),
    ]

    @pytest.mark.parametrize(
        "n, text, digest", CASES, ids=[f"seed0-{i}" for i in range(len(CASES))]
    )
    def test_output_unchanged(self, capsys, n, text, digest):
        h = hashlib.sha256()
        for op, options in (("dim", ()), ("cells", ("--format", "json")), ("project", ())):
            code, out, err = run(capsys, "mixed", op, *options, "-n", str(n), "--", text)
            assert code == 0, err
            h.update(out.encode())
        assert h.hexdigest()[:16] == digest


class TestGammaOutputDigests:
    """Printed gamma and tropical output on seeded inputs, fixed byte for byte.

    The formulas are the first eight of the seed-0 ``gamma`` benchmark
    pool; between them they use every relation spelling and negation.
    Each digest covers the stdout of ``gamma dim``, ``gamma cells --format
    json`` (open band ends included), ``gamma project`` and ``gamma
    closure``, so a change to how comparisons are normalized, negated or
    decided cannot alter output unseen.  Formulas 2 and 4 define the empty
    set, so their digests agree.
    """

    CASES = [
        (2, "1", "((((x1 + x2 > 3 | -3*x1 + x2 != 0) | -3*x1 + 2*x2 < -3)"
            " & !(-2*x1 + 2*x2 <= -3)) & -2*x1 + 2*x2 > 1) | x1 - 3*x2 = -2",
         "fa6631aece645b6b"),
        (3, "1,2", "(3*x1 - x2 + 3*x3 != 3 | -3*x1 + x2 - 3*x3 = 1) & x1 - x2 + 3*x3 <= 1/2",
         "d907d83d943e4471"),
        (2, "1", "((((-3*x1 - 2*x2 > 7/2 & -3*x1 + x2 > 0) | 2*x1 - x2 = -4)"
            " & !(x1 + 3*x2 > 5/2)) & 2*x1 - 3*x2 < -2) & 3*x1 + x2 > -2",
         "77b0b307abdf2c02"),
        (2, "1", "(((2*x1 + x2 >= -4 | 3*x1 - 2*x2 = -1) | -2*x1 + 3*x2 < -1/2)"
            " & !(3*x1 + x2 = 4)) | -x1 - 2*x2 != 4",
         "2a1b090cecdcad46"),
        (2, "1", "((((2*x1 + 2*x2 <= -2 | -2*x1 - 2*x2 = 4) & 2*x1 + x2 = -2)"
            " & 3*x1 - x2 <= 2) & 3*x1 - x2 > -3) & x1 + 2*x2 >= 2",
         "77b0b307abdf2c02"),
        (3, "1,2", "(x1 - x2 - 2*x3 >= -3 & -x1 - 2*x2 + 3*x3 <= 4) & -x1 - x2 - 2*x3 <= 0",
         "82886cde575c5224"),
        (2, "1", "((((3*x1 - x2 = -7/2 | -3*x1 - 2*x2 < -3) | x1 + 3*x2 >= -2)"
            " & 2*x1 - 3*x2 = 3) & -x1 + 2*x2 <= 2) & !(3*x1 + 3*x2 != 2)",
         "d80092fb485fe4dc"),
        (2, "1", "((((2*x1 - 2*x2 >= 1/2 | -x1 + x2 = -4) & -x1 - x2 < -3)"
            " & -x1 - x2 < -3) | 2*x1 - x2 != 4) & 3*x1 - x2 >= -4",
         "9c689445254e7d41"),
    ]

    TROP_CASES = [
        ("1@(2,0)+0@(1,1)+1@(0,2)+0@(1,0)+2@(0,0)", "4dc76f57b97ed76c"),
        ("0@(1,0,0)+1@(0,1,0)+0@(0,0,1)+2@(0,0,0)+1/2@(1,1,0)", "6e3a832e7fd7bf6c"),
    ]

    @pytest.mark.parametrize(
        "n, keep, text, digest", CASES, ids=[f"seed0-{i}" for i in range(len(CASES))]
    )
    def test_output_unchanged(self, capsys, n, keep, text, digest):
        h = hashlib.sha256()
        for op, options in (
            ("dim", ()), ("cells", ("--format", "json")), ("project", ("--keep", keep)),
            ("closure", ()),
        ):
            code, out, err = run(capsys, "gamma", op, *options, "-n", str(n), "--", text)
            assert code == 0, err
            h.update(out.encode())
        assert h.hexdigest()[:16] == digest

    @pytest.mark.parametrize("poly, digest", TROP_CASES, ids=["plane", "space"])
    def test_trop_output_unchanged(self, capsys, poly, digest):
        code, out, err = run(capsys, "trop", "hypersurface", "--format", "json", poly)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


class TestReadme:
    """Every quick-tour command with a ``# ->`` note prints that note."""

    EXAMPLES = [
        m.groups()
        for m in re.finditer(
            r"^valdim (.*?)\s+# -> (.*)$",
            (Path(__file__).parents[1] / "README.md").read_text(),
            re.MULTILINE,
        )
    ]

    def test_examples_found(self):
        assert len(self.EXAMPLES) >= 6

    @pytest.mark.parametrize("command, expected", EXAMPLES)
    def test_example(self, capsys, command, expected):
        code, out, _ = run(capsys, *shlex.split(command))
        assert code == 0 and out.strip() == expected


class TestDeepNesting:
    """Nesting past the parsers' cap is a parse error (exit 2), not a crash."""

    @pytest.mark.parametrize("dsl, atom", [("gamma", "x1 < 0"), ("mixed", "g1 < 0")])
    @pytest.mark.parametrize("opener, count", [("(", 3000), ("!(", 1500)])
    def test_past_cap_exit_2(self, capsys, monkeypatch, dsl, atom, opener, count):
        text = opener * count + atom + ")" * count
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, _, err = run(capsys, dsl, "dim", "-n", "1", "-")
        assert code == 2
        assert f"nested deeper than {MAX_NESTING} levels (at position " in err

    @pytest.mark.parametrize(
        "dsl, opener, atom, answer",
        [("gamma", "(", "x1 < 0", "1"), ("gamma", "!(", "x1 < 0", "1"),
         ("mixed", "(", "g1 < 0", "(1, 1)")],
    )
    def test_at_cap_answers(self, capsys, monkeypatch, dsl, opener, atom, answer):
        count = MAX_NESTING // len(opener)
        monkeypatch.setattr("sys.stdin", io.StringIO(opener * count + atom + ")" * count))
        code, out, _ = run(capsys, dsl, "dim", "-n", "1", "-")
        assert code == 0 and out.strip() == answer


class TestVariableLimit:
    """An index or a count past ``MAX_VARIABLES`` is refused with one line naming
    the limit: a written index at its token (exit 2), a declared count exit 3."""

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (("gamma", "dim", "x99999999999999999999<1"), 2,
             f"parse error: variable index 'x99999999999999999999' is above the limit of "
             f"{MAX_VARIABLES} (at position 0)"),
            (("mixed", "cells", "g999999999999999999991 + g2 < 3"), 2,
             f"parse error: variable index 'g999999999999999999991' is above the limit of "
             f"{MAX_VARIABLES} (at position 0)"),
            (("gamma", "dim", "-n", "99999999999999999999", "x1<1"), 3,
             f"error: variable count 99999999999999999999 is above the limit of {MAX_VARIABLES}"),
            (("gamma", "dim", "x1 < x" + "9" * 5000), 2, "above the limit"),
            (("mixed", "dim", "-n", str(MAX_VARIABLES + 1), "g1 < 1"), 3, "above the limit"),
        ],
    )
    def test_past_the_limit(self, capsys, argv, code, message):
        got, out, err = run(capsys, *argv)
        assert (got, out) == (code, "")
        assert err.count("\n") == 1 and message in err

    @pytest.mark.parametrize(
        "argv, answer",
        [
            (("gamma", "dim", f"x{MAX_VARIABLES} < 1"), str(MAX_VARIABLES)),
            (("mixed", "dim", "-n", str(MAX_VARIABLES), f"g{MAX_VARIABLES} < 1"),
             f"(1, {MAX_VARIABLES})"),
            (("gamma", "dim", "-n", "3", "x0003 < 1"), "3"),
        ],
    )
    def test_at_the_limit_answers(self, capsys, argv, answer):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.strip() == answer


class TestLongLiterals:
    """A number longer than the interpreter converts is a parse error at its token."""

    LONG = "9" * (sys.get_int_max_str_digits() + 1) if hasattr(sys, "get_int_max_str_digits") else None

    @pytest.mark.skipif(LONG is None, reason="no integer digit limit on this interpreter")
    @pytest.mark.parametrize(
        "argv, position",
        [
            (("gamma", "dim", "x1 < {}"), 5),
            (("gamma", "cells", "x1 < 1/{}"), 7),
            (("mixed", "dim", "v(x - {}) < 1"), 6),
            (("mixed", "dim", "v((x - 1)^{}) < 1"), 10),
            (("mixed", "cells", "g1 < {}"), 5),
        ],
    )
    def test_exit_2_at_the_token(self, capsys, argv, position):
        *head, text = argv
        code, out, err = run(capsys, *head, text.format(self.LONG))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith(f"parse error: number of {len(self.LONG)} digits is above the limit")
        assert err.endswith(f"(at position {position})\n")

    def test_a_long_literal_under_the_limit_answers(self, capsys):
        code, out, _ = run(capsys, "gamma", "dim", "x1 < " + "9" * 4000 + " & x1 > 0")
        assert code == 0 and out.strip() == "1"


    @pytest.mark.skipif(LONG is None, reason="no integer digit limit on this interpreter")
    def test_dimnat_past_the_limit_exit_3(self, capsys):
        n = self.LONG[1:]  # as many digits as the interpreter converts
        code, out, err = run(capsys, "lowerset", "dimnat", f"[[{n},{n}]]")
        assert (code, out) == (3, "")
        assert err == f"error: a dimension of more than {len(n)} digits is not printed\n"
        code, out, _ = run(capsys, "lowerset", "dimnat", f"[[{n},0]]")
        assert (code, out) == (0, n + "\n")

    @pytest.mark.skipif(LONG is None, reason="no integer digit limit on this interpreter")
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_lowerset_past_the_limit_exit_3(self, capsys, fmt):
        n = self.LONG[1:]
        code, out, err = run(capsys, "lowerset", "add", "--format", fmt, f"[[{n},0]]", f"[[{n},0]]")
        assert (code, out) == (3, "")
        assert err == f"error: a dimension of more than {len(n)} digits is not printed\n"
        code, out, _ = run(capsys, "lowerset", "add", "--format", fmt, f"[[{n},0]]", "[[0,1]]")
        assert code == 0 and n in out


class TestUsageErrors:
    """A usage error is a parse error: exit 2 and one stderr line, returned from ``main``."""

    @pytest.mark.parametrize(
        "argv, says",
        [
            (("gamma", "dim"), "the following arguments are required: formula"),
            (("gamma", "frob", "x1 < 1"), "argument op: invalid choice: 'frob'"),
            (("gamma", "dim", "-x1<1"), "the following arguments are required: formula"),
            (("mixed", "dim", "-v(x)<1", "g1 < 0"), "unrecognized arguments: -v(x)<1"),
        ],
    )
    def test_exit_2_in_one_line(self, capsys, argv, says):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("parse error: valdim") and err.count("\n") == 1
        assert says in err

    def test_a_leading_minus_is_told_to_go_after_the_separator(self, capsys):
        _, _, err = run(capsys, "gamma", "dim", "-x1<1")
        assert err.endswith("a formula that starts with '-' goes after '--'\n")
        assert run(capsys, "gamma", "dim", "--", "-x1<1") == (0, "1\n", "")

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gamma", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: valdim gamma")


class TestRecursionLimit:
    """Work nested past the recursion limit exits 3, not with a traceback.

    The cell decomposition recurses once per variable, so as many
    variables as the limit always nest past it.
    """

    @pytest.mark.parametrize(
        "argv",
        [
            ("gamma", "cells", "x1 < 1", "-n", str(sys.getrecursionlimit())),
            ("mixed", "cells", "g1 < 1", "-n", "1500"),
        ],
    )
    def test_past_the_limit_exit_3(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3 and not out
        assert f"past the recursion limit of {sys.getrecursionlimit()}" in err


class TestTrop:
    def test_hypersurface_json(self, capsys):
        code, out, _ = run(
            capsys, "trop", "hypersurface", "0@(1,0)+0@(0,1)+0@(0,0)",
            "--format", "json",
        )
        assert code == 0
        faces = json.loads(out)["faces"]
        assert len(faces) == 3 and all(f["dim"] == 1 for f in faces)

    def test_image(self, capsys):
        code, out, _ = run(
            capsys, "trop", "image", "x1 >= 0 & x2 >= 0", "--map", "1,1"
        )
        assert code == 0 and out.strip() == "-x1 <= 0"

    def test_check_pure(self, capsys):
        code, out, _ = run(capsys, "trop", "check-pure", "0@(1,0)+0@(0,1)+0@(0,0)", "-d", "1")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, "trop", "check-pure", "0@(1,0)+0@(0,1)+0@(0,0)", "-d", "2")
        assert code == 0 and out.strip() == "false"

    def test_arity_cap_exit_3(self, capsys):
        code, _, err = run(capsys, "trop", "hypersurface", "0@(1,0,0,0)")
        assert code == 3

    @pytest.mark.parametrize("weight", ["1e10000000", "1e3000000", "0.5", "1.5e1", "1_0"])
    def test_float_style_weight_exit_2_at_once(self, capsys, weight):
        """Weights are rationals ``['-'] INT ['/' INT]``: no decimal, exponent or underscore."""
        start = time.perf_counter()
        code, out, err = run(capsys, "trop", "hypersurface", f"{weight}@(1,0) + 0@(0,1) + 0@(0,0)")
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        assert err.count("\n") == 1 and err.startswith("parse error: ")

    @pytest.mark.parametrize("spaced, plain", [("1 / 2", "1/2"), ("- 1/2", "-1/2")])
    def test_weights_read_as_in_the_dsls(self, capsys, spaced, plain):
        from valdim import trop

        assert trop.trop_poly_from_text(f"{spaced}@(0,0)").terms == (((0, 0), Fraction(plain)),)
        outs = [
            run(capsys, "trop", "hypersurface", "--", f"{w}@(1,0) + 0@(0,1) + 0@(0,0)")
            for w in (spaced, plain)
        ]
        assert outs[0] == outs[1] and outs[0][0] == 0


class TestIntegers:
    """Every integer the CLI reads is ``['-'] INT`` with INT in ASCII digits: in
    both DSLs, in trop exponents, in ``--keep`` and ``--map`` entries and in the
    integer options.  A trop error is placed at its offset in the whole input."""

    @pytest.mark.parametrize(
        "argv, position",
        [(("gamma", "dim", "x1 < \u0661"), 5), (("mixed", "dim", "v(x - t^\u0662) + g1 < 0"), 8)],
    )
    def test_unicode_digits_in_the_dsls_exit_2(self, capsys, argv, position):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"parse error: unexpected character {argv[-1][position]!r} (at position {position})\n"

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("0@(1,0) + 0.5@(0,1)", "unexpected character '.'", 11),
            ("0@(1,0) + t^x@(0,1)", "expected a number, found 'x'", 12),
            ("0@(1,0) +  1/0@(0,1)", "expected a nonzero integer denominator", 13),
            ("0@(1,0) + 0@(0,1) + 0*t@(1,1)", "zero coefficient '0*t' has no weight", 20),
            ("1@(0,x)", "bad exponent vector '(0,x)'", 5),
            ("0@(1_0,0)", "bad exponent vector '(1_0,0)'", 3),
            ("0@(\u0661,0)", "bad exponent vector '(\u0661,0)'", 3),
            ("0@(1,0) + 0@(- 1, 0)", "bad exponent vector '(- 1, 0)'", 13),
            ("0@(1,0) + 0@ ( 1, )", "bad exponent vector '( 1, )'", 18),
            # terms split on '+' outside parentheses; a malformed term is
            # placed at the term
            ("0@(1,0) + 0@(+1, 0)", "bad exponent vector '(+1, 0)'", 13),
            ("0@(1,0) + ", "empty term in tropical polynomial", 10),
            ("+ 0@(1,0)", "empty term in tropical polynomial", 0),
            ("0@(1,0) + + 0@(0,1)", "empty term in tropical polynomial", 10),
            ("0@(1,0) +  1(0,1)", "term '1(0,1)' lacks the weight@(exponents) form", 11),
            ("0@(1,0) + 0@ 0,1", "exponents in '0@ 0,1' must be parenthesized", 10),
            ("0@(1,0) +  2@(0,1", "exponents in '2@(0,1' must be parenthesized", 11),
            ("0@(0,1)+2@(03)+-1@(3,3)",
             "term '2@(03)' has an exponent vector of length 1, the first term one of length 2", 8),
        ],
    )
    def test_trop_errors_at_their_offset(self, capsys, text, message, position):
        code, out, err = run(capsys, "trop", "hypersurface", "--", text)
        assert (code, out) == (2, "")
        assert err == f"parse error: {message} (at position {position})\n"

    def test_trop_exponents_read_as_int(self, capsys):
        spaced = run(capsys, "trop", "hypersurface", "0@( 1 ,0) + 0@(0, 01) + 0@(-0,0)")
        assert spaced == run(capsys, "trop", "hypersurface", "0@(1,0) + 0@(0,1) + 0@(0,0)")
        assert spaced[0] == 0
        code, out, err = run(capsys, "trop", "hypersurface", "0@(1,0) + 1@(0,-1)")
        assert (code, out) == (3, "") and err == "error: negative exponent in (0, -1)\n"

    @pytest.mark.parametrize("value", ["\u0661", "1_0", "+1", "1.0", "x", "\uff12"])
    @pytest.mark.parametrize(
        "argv, option",
        [
            (("gamma", "dim", "x1 < 1", "-n"), "-n/--nvars"),
            (("mixed", "dim", "g1 < 1", "--nvars"), "-n/--nvars"),
            (("trop", "check-pure", "0@(1,0) + 0@(0,1)", "-d"), "-d/--dim"),
            (("verify", "axioms", "--seed"), "--seed"),
            (("verify", "axioms", "--cases"), "--cases"),
            (("verify", "axioms", "--trop-cases"), "--trop-cases"),
        ],
    )
    def test_integer_options_follow_the_int_rule(self, capsys, argv, option, value):
        code, out, err = run(capsys, *argv, value)
        assert (code, out) == (2, "")
        assert err == (
            f"parse error: valdim {argv[0]}: argument {option}: invalid int value: {value!r}\n"
        )

    def test_integer_options_read_signs_and_blanks_as_int(self, capsys):
        assert run(capsys, "gamma", "dim", "x1 < 1", "-n", " 02 ") == (0, "2\n", "")
        code, out, err = run(capsys, "gamma", "dim", "x1 < 1", "-n", "-1")
        assert (code, out, err) == (3, "", "error: negative variable count -1\n")

    @pytest.mark.parametrize("entry", ["\u0661", "1_0", "+1", "1.0", "x1", "1 2"])
    def test_bad_keep_and_map_entries_exit_2(self, capsys, entry):
        code, out, err = run(capsys, "gamma", "project", "x1 < x2", "--keep", entry)
        assert (code, out, err) == (2, "", f"parse error: bad --keep list {entry!r}\n")
        text = f"{entry},1"
        code, out, err = run(capsys, "trop", "image", "x1 >= 0 & x2 >= 0", f"--map={text}")
        assert (code, out) == (2, "")
        assert err == f"parse error: bad matrix {text!r}; rows like '1,0;1,1'\n"

    def test_keep_and_map_entries_between_blanks(self, capsys):
        assert run(capsys, "gamma", "project", "x1 < x2", "--keep", " 1 ,,") == (0, "true\n", "")
        assert run(capsys, "trop", "image", "x1 >= 0 & x2 >= 0", "--map= 1, 01") == run(
            capsys, "trop", "image", "x1 >= 0 & x2 >= 0", "--map=1,1"
        )


class TestInternalError:
    """An exception the CLI does not expect exits 4 with one line, not a traceback."""

    def test_engine_failure_exit_4(self, capsys, monkeypatch):
        from valdim import semilinear

        def broken(f):
            raise RuntimeError("engine broke")

        monkeypatch.setattr(semilinear, "dimension", broken)
        code, out, err = run(capsys, "gamma", "dim", "x1 = x2", "-n", "2")
        assert code == cli.EXIT_INTERNAL == 4
        assert not out
        assert err == "internal error: RuntimeError: engine broke\n"


class TestImports:
    """Each subcommand loads only the engine it runs."""

    PROBE = (
        "import json, sys\n"
        "from valdim import cli\n"
        "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'valdim')))\n"
        "sys.exit(code)\n"
    )

    def loaded(self, *argv) -> tuple[list[str], set[str]]:
        """The command's output lines, and the valdim modules it loaded."""
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", self.PROBE, *argv],
            capture_output=True, text=True, check=True, env=env,
        ).stdout.splitlines()
        return out[:-1], set(json.loads(out[-1]))

    def test_import_alone(self):
        assert self.loaded()[1] == {"valdim", "valdim.cli", "valdim.errors"}

    @pytest.mark.parametrize(
        "argv, engine, absent",
        [
            (("lowerset", "shift", "[[2,1]]"), "lowerset", ("semilinear", "mixedcell", "trop")),
            (("gamma", "dim", "x1 < x2"), "semilinear", ("mixedcell", "trop")),
            (("trop", "hypersurface", "0@(1,0)+0@(0,1)+0@(0,0)"), "trop", ("mixedcell",)),
            (("trop", "hypersurface", "--", "-1/2@(1,0)+3@(0,1)+0@(0,0)"), "trop", ("mixedcell",)),
        ],
    )
    def test_command_skips_other_engines(self, argv, engine, absent):
        _, modules = self.loaded(*argv)
        assert f"valdim.{engine}" in modules
        assert {m.split(".")[1] for m in modules if "." in m}.isdisjoint(absent)

    def test_lowerset_loads_no_dataclasses(self):
        """``dataclasses`` pulls in ``inspect``, ``ast`` and ``dis``: most of a lowerset start-up."""
        probe = (
            "import sys\n"
            "from valdim import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "print('dataclasses' in sys.modules)\n"
            "sys.exit(code)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", probe, "lowerset", "shift", "[[2,1]]"],
            capture_output=True, text=True, check=True, env=env,
        ).stdout.splitlines()
        assert out == ["(0, 3) (1, 2) (2, 1)", "False"]

    def test_puiseux_weight_loads_the_mixed_parser(self):
        out, modules = self.loaded("trop", "hypersurface", "t^2@(1,0)+0@(0,1)+0@(0,0)")
        assert "valdim.mixedcell.parser" in modules
        assert out == [
            "dim 1: -x1 <= 2 & -x2 <= 0 & x2 = 0",
            "dim 1: -x1 <= 2 & -x2 <= 0 & x1 = -2",
            "dim 1: -x1 + x2 <= 2 & x2 <= 0 & x1 - x2 = -2",
        ]


class TestVerifyAndDeterminism:
    def test_axioms_small(self, capsys):
        code, out, _ = run(
            capsys, "verify", "axioms", "--cases", "5", "--trop-cases", "2"
        )
        assert code == 0
        assert "total:" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("axioms", "--cases", "-3", "--trop-cases", "0"),
            ("axioms", "--cases", "0", "--trop-cases", "-1"),
            ("figures", "--cases", "-1"),
            ("paper-suite", "--trop-cases", "-2"),
        ],
    )
    def test_negative_case_count_exit_3(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 3 and not out and "non-negative" in err

    def test_only_verify_imports_verify(self):
        probe = "import sys, valdim.cli; print('valdim.verify' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
        ).stdout
        assert out.strip() == "False"

    def test_byte_identical_reruns(self, capsys):
        args = ("verify", "axioms", "--cases", "4", "--trop-cases", "2", "--seed", "3")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_figures_reports_mismatch(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "verify", "figures")
        assert code == 0
        assert out.startswith("PASS figures")
        # A row closed under the move but smaller than the closure of D4.
        monkeypatch.setattr(verify, "D5_MAXIMA", ((6, 0),))
        code, out, _ = run(capsys, "verify", "figures")
        assert code == 1
        assert "shift_closure" in out

    def test_gamma_output_deterministic(self, capsys):
        args = ("gamma", "cells", "x2 <= x1 | x1 = 0", "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    DIGEST_PROBE = (
        "import contextlib, hashlib, io, json, sys\n"
        "from valdim import cli\n"
        "h = hashlib.sha256()\n"
        "for argv in json.load(sys.stdin):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = cli.main(argv)\n"
        "    h.update(f'{code}\\n{out.getvalue()}\\n{err.getvalue()}\\n'.encode())\n"
        "print(h.hexdigest())\n"
    )

    @staticmethod
    def digest_commands() -> list[list[str]]:
        """Seeded ``gamma``, ``mixed`` and ``trop hypersurface`` commands."""
        import random

        from valdim import semilinear as sl

        commands = []
        texts = [(n, t) for n, _, t, _ in TestGammaOutputDigests.CASES]
        texts += [(n, sl.formula_to_dsl(f)) for n, f in verify.formula_instances(5, 30)]
        for n, text in texts:
            for op, options in (("dim", []), ("cells", ["--format", "json"]),
                                ("project", ["--keep", "1"]), ("closure", [])):
                commands.append(["gamma", op, *options, "-n", str(n), "--", text])
        for n, text, _ in TestMixedOutputDigests.CASES:
            for op, options in (("dim", []), ("cells", ["--format", "json"]), ("project", [])):
                commands.append(["mixed", op, *options, "-n", str(n), "--", text])
        polys = [p for p, _ in TestGammaOutputDigests.TROP_CASES]
        rng = random.Random(5)
        for _ in range(30):
            p = verify.random_trop_poly(rng, rng.choice([1, 2, 3]))
            polys.append(" + ".join(f"{w}@({','.join(map(str, e))})" for e, w in p.terms))
        for text in polys:
            commands.append(["trop", "hypersurface", "--format", "json", "--", text])
        return commands

    def test_output_independent_of_hash_seed(self):
        """Output is a function of the command alone: no set or dict order
        that the hash seed moves reaches it."""
        commands = json.dumps(self.digest_commands())
        digests = set()
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
                       PYTHONHASHSEED=hash_seed)
            digests.add(subprocess.run(
                [sys.executable, "-c", self.DIGEST_PROBE], input=commands,
                capture_output=True, text=True, check=True, env=env,
            ).stdout)
        assert len(digests) == 1
