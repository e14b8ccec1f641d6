import hashlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from valdim import cli, verify
from valdim.boolean import MAX_NESTING
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
