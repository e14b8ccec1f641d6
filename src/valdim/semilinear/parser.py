"""Recursive-descent parser for the linear-constraint DSL.

Grammar (UTF-8 text), documented with examples in docs/dsl.md:

    formula  :=  disj
    disj     :=  conj ('|' conj)*
    conj     :=  unary ('&' unary)*
    unary    :=  '!' unary  |  'exists' VAR '(' formula ')'
              |  '(' formula ')'  |  atom
    atom     :=  linexpr REL linexpr          REL in < <= = >= > !=
    linexpr  :=  ['-'] term (('+'|'-') term)*
    term     :=  INT '*' VAR  |  VAR  |  RAT
    VAR      :=  x1, x2, ...  (1-based indices)
    RAT      :=  INT ['/' INT]

Coefficients on variables must be integers; bare constants may be
rational.  ``exists xi (...)`` quantifies variable i away (the result is
a cylinder over the remaining coordinates, so it composes inside any
enclosing formula).
"""

from __future__ import annotations

import re
from fractions import Fraction

from ..errors import ParseError, SemanticError
from .atoms import Bool, Formula, Not, And, Or, atom
from .elimination import exists

_TOKEN = re.compile(
    r"\s*(?:(?P<rel><=|>=|!=|==|<|>|=)|(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<punct>[()&|!*/+-]))"
)


#: Deepest nesting of '(', '!' and 'exists' groups either Boolean grammar
#: accepts; deeper input is a parse error instead of a stack overflow.
MAX_NESTING = 256


class Tokens:
    """Token stream shared by the linear and the mixed DSL parsers.

    Also counts the open Boolean groups, so both grammars share one cap.
    """

    def __init__(self, text: str, pattern: re.Pattern = _TOKEN):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = pattern.match(text, pos)
            if m is None or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                raise ParseError(
                    f"unexpected character {stripped[0]!r}",
                    len(text) - len(stripped),
                )
            kind = m.lastgroup
            self.items.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.i = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.items[self.i] if self.i < len(self.items) else None

    def next(self) -> tuple[str, str, int]:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.i += 1
        return t

    def accept(self, value: str) -> bool:
        t = self.peek()
        if t is not None and t[1] == value:
            self.i += 1
            return True
        return False

    def expect(self, value: str):
        t = self.peek()
        if t is None:
            raise ParseError(f"expected {value!r}", len(self.text))
        if t[1] != value:
            raise ParseError(f"expected {value!r}, found {t[1]!r}", t[2])
        self.i += 1

    def open_group(self):
        """Consume a group's opening token; the caller closes it with ``depth -= 1``."""
        t = self.next()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"formula nested deeper than {MAX_NESTING} levels", t[2])


_VAR = re.compile(r"^x(\d+)$")


class _Parser:
    """Parses one formula; collects the variable indices it saw."""

    def __init__(self, text: str, arity: int | None):
        self.toks = Tokens(text)
        self.declared = arity
        self.max_var = 0

    def var_index(self, name: str, pos: int) -> int:
        m = _VAR.match(name)
        if not m:
            raise ParseError(f"unknown variable {name!r}", pos)
        idx = int(m.group(1))
        if idx < 1:
            raise ParseError(f"variable indices start at x1, got {name!r}", pos)
        if self.declared is not None and idx > self.declared:
            raise SemanticError(
                f"unknown variable {name!r}: formula has {self.declared} variables"
            )
        self.max_var = max(self.max_var, idx)
        return idx - 1

    def parse(self) -> tuple[Formula, int]:
        f = self.disj()
        t = self.toks.peek()
        if t is not None:
            raise ParseError(f"trailing input {t[1]!r}", t[2])
        n = self.declared if self.declared is not None else self.max_var
        return _fix_arity(f, n), n

    def disj(self) -> Formula:
        parts = [self.conj()]
        while self.toks.accept("|"):
            parts.append(self.conj())
        # Raw nodes: arities may still disagree here; _fix_arity rebuilds.
        return Or(tuple(parts)) if len(parts) > 1 else parts[0]

    def conj(self) -> Formula:
        parts = [self.unary()]
        while self.toks.accept("&"):
            parts.append(self.unary())
        return And(tuple(parts)) if len(parts) > 1 else parts[0]

    def unary(self) -> Formula:
        t = self.toks.peek()
        if t is None:
            raise ParseError("unexpected end of input", len(self.toks.text))
        if t[1] not in ("!", "exists", "("):
            return self.atom()
        self.toks.open_group()
        if t[1] == "!":
            node = Not.of(self.unary())
        elif t[1] == "exists":
            name = self.toks.next()
            if name[0] != "name":
                raise ParseError("expected a variable after 'exists'", name[2])
            idx = self.var_index(name[1], name[2])
            self.toks.expect("(")
            node = _Exists(self.disj(), idx)
            self.toks.expect(")")
        else:
            node = self.disj()
            self.toks.expect(")")
        self.toks.depth -= 1
        return node

    def atom(self) -> Formula:
        lhs_coeffs, lhs_const = self.linexpr()
        t = self.toks.next()
        if t[0] != "rel":
            raise ParseError(f"expected a relation, found {t[1]!r}", t[2])
        rel = "=" if t[1] == "==" else t[1]
        rhs_coeffs, rhs_const = self.linexpr()
        coeffs: dict[int, int] = dict(lhs_coeffs)
        for i, c in rhs_coeffs.items():
            coeffs[i] = coeffs.get(i, 0) - c
        width = max(coeffs, default=-1) + 1
        vec = [0] * width
        for i, c in coeffs.items():
            vec[i] = c
        return _PendingAtom(tuple(vec), rel, rhs_const - lhs_const)

    def linexpr(self) -> tuple[dict[int, int], Fraction]:
        coeffs: dict[int, int] = {}
        const = Fraction(0)
        sign = 1
        if self.toks.accept("-"):
            sign = -1
        while True:
            c, idx = self.term()
            if idx is None:
                const += sign * c
            else:
                if c.denominator != 1:
                    raise ParseError(
                        f"non-integer coefficient {c} on variable x{idx + 1}",
                        self.toks.items[self.toks.i - 1][2],
                    )
                coeffs[idx] = coeffs.get(idx, 0) + sign * int(c)
            if self.toks.accept("+"):
                sign = 1
            elif self.toks.accept("-"):
                sign = -1
            else:
                return coeffs, const

    def term(self) -> tuple[Fraction, int | None]:
        t = self.toks.next()
        if t[0] == "num":
            value = Fraction(int(t[1]))
            if self.toks.accept("/"):
                d = self.toks.next()
                if d[0] != "num" or int(d[1]) == 0:
                    raise ParseError("expected a nonzero integer denominator", d[2])
                value = value / int(d[1])
            if self.toks.accept("*"):
                v = self.toks.next()
                if v[0] != "name":
                    raise ParseError("expected a variable after '*'", v[2])
                return value, self.var_index(v[1], v[2])
            return value, None
        if t[0] == "name":
            return Fraction(1), self.var_index(t[1], t[2])
        raise ParseError(f"expected a term, found {t[1]!r}", t[2])


class _PendingAtom(Formula):
    """Atom whose coefficient vector still needs padding to the final arity."""

    def __init__(self, coeffs, rel, rhs):
        self.coeffs, self.rel, self.rhs = coeffs, rel, rhs
        self.arity = len(coeffs)


class _Exists(Formula):
    def __init__(self, part: Formula, var: int):
        self.part, self.var = part, var
        self.arity = max(part.arity, var + 1)


def _fix_arity(f: Formula, n: int) -> Formula:
    if isinstance(f, _PendingAtom):
        return atom(f.coeffs + (0,) * (n - len(f.coeffs)), f.rel, f.rhs)
    if isinstance(f, _Exists):
        return exists(_fix_arity(f.part, n), f.var)
    if isinstance(f, Bool):
        return Bool(f.value, n)
    if isinstance(f, Not):
        return Not.of(_fix_arity(f.part, n))
    if isinstance(f, And):
        return And.of(*[_fix_arity(p, n) for p in f.parts])
    if isinstance(f, Or):
        return Or.of(*[_fix_arity(p, n) for p in f.parts])
    raise TypeError(f"unexpected node {f!r}")


def parse_formula(text: str, arity: int | None = None) -> Formula:
    """Parse DSL text into a formula.

    With ``arity`` given, variable indices beyond it are rejected;
    otherwise the arity is the largest index mentioned.
    """
    f, _ = _Parser(text, arity).parse()
    return f
