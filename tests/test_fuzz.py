"""Seeded mutation fuzzing of the CLI exit-code contract.

Each case mutates the text argument of one valid command: characters
deleted, inserted or replaced, the text cut short, then perhaps a number
replaced by one longer than the interpreter converts, or the text nested
near and past ``MAX_NESTING``.  Every case is one ``cli.main`` call in this process.
Its exit code must be 0, 2 (parse error) or 3 (semantic error), never 4
(internal error), and a failing call writes exactly one line to stderr.

In three cases of four the text follows ``--``, so that argparse never
reads it as an option.  In the fourth it stands alone after up to two
added dashes, so argparse may read it as an option: usage errors are
fuzzed too.  Lower-set mutations insert digits as well, since ``shift``
refuses a closure of more than ``MAX_POINTS`` generators.
"""

import random
import re
import sys

import pytest

from valdim import cli
from valdim.boolean import MAX_NESTING

#: Digits past the interpreter's integer-string limit, or 0 where it has none.
LIMIT = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0

GAMMA_TEXTS = [
    "x1 = x2",
    "0 < x1 & x1 < 1 & x2 = x1",
    "x1 < x2 & x2 <= 1",
    "(0 < x1 & x1 < 1) | x1 = 2",
    "!(x1 + 2*x2 >= 3/2) & x2 != 0",
    "exists x2 (x1 < x2 & x2 < 1)",
    "x1 - x3 <= 1 | (x2 > x1 & true)",
]
MIXED_TEXTS = [
    "g1 = v(x) & 0 < v(x) & v(x) < 1",
    "g1 = v(x) & 0 < v(x)",
    "v(x) >= 0 & 0 < g1 & g1 < 1",
    "v(x - 1) < 1 | g1 + g2 > 2",
    "v((x - t)^2) >= g1 & v(x + 1/2*t^-1) < 3",
    "!(v(x) = 1) & g2 <= 1/3",
]
#: Comparisons of several valuation terms; a list apart from MIXED_TEXTS,
#: which the parse digests of tests/test_boolean.py read.
MIXED_SUM_TEXTS = [
    "v(x) + v(x - 1) + g1 < 0",
    "v(x) - v(x - t) >= g1 | v((x - 1)^2) - 2*v(x + t) = 1",
    "2*v(x) - v((x - 1)*(x)) + g1 - g2 <= 1/2",
    "v(x) + v(x - 1) = inf & g1 > 0",
    "!(v(x - t) - v(x) < v(x - 1)) | g2 = 1",
]
TROP_TEXTS = [
    "0@(1,0)+0@(0,1)+0@(0,0)",
    "1@(2,0)+0@(1,1)+-1@(0,2)+0@(0,0)",
    "t^2@(1,0)+0@(0,1)+0@(0,0)",
]
LOWERSET_TEXTS = [
    "[[0,0],[0,3],[0,4],[1,4],[2,0],[2,1],[2,2],[4,0],[4,1]]",
    "[[1,4],[2,2],[4,1]]",
    "[[1,0,2],[0,2,1]]",
    "[]",
]

# (family, argv before the text, texts, characters a mutation may insert)
FAMILIES = {
    "gamma": [
        (("gamma", op), GAMMA_TEXTS, "x1230<>=!&|()+-*/ ")
        for op in ("dim", "cells", "closure", "type1d")
    ] + [(("gamma", "project", "--keep", "1"), GAMMA_TEXTS, "x120<=&|()- ")],
    "mixed": [
        (("mixed", op), MIXED_TEXTS, "vgxt120<>=!&|()+-*/^ ")
        for op in ("dim", "cells", "project")
    ],
    "mixed-sums": [
        (("mixed", op), MIXED_SUM_TEXTS, "vgxt120<>=!&|()+-*/^ ")
        for op in ("dim", "cells", "project")
    ],
    "trop": [
        (("trop", op), TROP_TEXTS, "@(),+-/t^0123e._ ")
        for op in ("hypersurface", "check-pure")
    ] + [(("trop", "image", "--map", "1,1"), GAMMA_TEXTS[:3], "x120<=&|()- ")],
    "lowerset": [
        (("lowerset", op), LOWERSET_TEXTS, "[],- x0123456789")
        for op in ("closure", "shift", "dimnat", "render")
    ],
}


def edit(rng: random.Random, text: str, alphabet: str) -> str:
    """One small edit: a character deleted, inserted or replaced, or the text cut short."""
    i = rng.randrange(len(text) + 1)
    kind = rng.randrange(4)
    if kind == 3:
        return text[:i]
    if kind == 1 or not text:
        return text[:i] + rng.choice(alphabet) + text[i:]
    i = min(i, len(text) - 1)
    return text[:i] + (rng.choice(alphabet) if kind == 2 else "") + text[i + 1:]


def grow(rng: random.Random, text: str) -> str:
    """A number made longer than the interpreter converts, or nesting near the cap."""
    kind = rng.randrange(3)
    depth = MAX_NESTING + rng.randint(-2, 2)
    if kind == 0 and LIMIT:
        long = "9" * (LIMIT + rng.randint(1, 50))
        runs = list(re.finditer(r"\d+", text))
        if not runs:
            i = rng.randrange(len(text) + 1)
            return text[:i] + long + text[i:]
        m = rng.choice(runs)
        return text[: m.start()] + long + text[m.end():]
    if kind == 1 or text.startswith("["):
        opener, closer = ("[", "]") if text.startswith("[") else ("(", ")")
        return opener * depth + text + closer * depth
    return "!" * depth + text


def mutate(rng: random.Random, text: str, alphabet: str, dashes: int = 0) -> str:
    """``text`` after up to two small edits, one time in four a growth, then ``dashes`` dashes.

    The growth comes after the edits, so no edit can cut a long literal
    back under the limit.
    """
    for _ in range(rng.randint(0, 2)):
        text = edit(rng, text, alphabet)
    if rng.random() < 0.25:
        text = grow(rng, text)
    text = "-" * dashes + text
    # "-" alone would read stdin
    return "" if text == "-" else text


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_exit_codes_hold_under_mutation(capsys, family):
    rng = random.Random(f"fuzz:{family}")
    commands = FAMILIES[family]
    for case in range(300):
        head, texts, alphabet = rng.choice(commands)
        guard = ["--"] if rng.random() < 0.75 else []
        text = mutate(rng, rng.choice(texts), alphabet, 0 if guard else rng.randint(0, 2))
        code = cli.main([*head, *guard, text])
        out, err = capsys.readouterr()
        where = f"case {case}: {' '.join([*head, *guard])} {text[:80]!r}"
        assert code in (0, 2, 3), f"{where} exited {code}: {err.strip()[:200]}"
        if code:
            assert err.count("\n") == 1 and err.endswith("\n"), f"{where}: {err[:300]!r}"
