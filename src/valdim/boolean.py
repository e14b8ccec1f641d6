"""Boolean formulas over any atom type, and the Boolean grammar of both DSLs.

A formula is a tree of ``Bool`` constants, ``Atom`` leaves and ``And``,
``Or`` and ``Not`` nodes.  The linear engine puts ``LinearAtom``s in the
leaves and the mixed engine ``MixedAtom``s; a node needs only an atom's
``arity`` and ``holds``.  Every node carries the arity of its formula:
the number of variables of a linear formula, the number of group
coordinates of a mixed one.  The ``of`` constructors flatten nested nodes
of the same kind and fold constants.

Both DSLs share one tokenizer, one nesting cap and one grammar for the
Boolean structure and the linear sums their comparisons are made of,
documented in docs/dsl.md:

    formula  :=  disj
    disj     :=  conj ('|' conj)*
    conj     :=  unary ('&' unary)*
    unary    :=  '!' unary  |  '(' disj ')'  |  'true'  |  'false'  |  atom
    atom     :=  sum REL sum              REL in < <= = == >= > !=
    sum      :=  ['-'] term (('+'|'-') term)*
    term     :=  RAT ['*' NAME]  |  NAME
    RAT      :=  INT ['/' INT]

A coefficient before a NAME must be an integer.  Each DSL is a subclass
of ``Grammar`` that says what its NAMEs are and may add atoms of its own.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, ClassVar, Sequence

from .errors import ParseError, SemanticError

#: Deepest nesting of '(', '!' and 'exists' groups either DSL accepts;
#: deeper input is a parse error instead of a stack overflow.
MAX_NESTING = 256


class Formula:
    """Base class for Boolean formula nodes; all nodes carry an arity."""

    arity: int

    def holds(self, *point) -> bool:
        """Truth at ``point``; each atom reads the point as ``atom.holds(*point)``."""
        return evaluate(self, lambda a: a.holds(*point))

    def atoms(self) -> set:
        raise NotImplementedError

    def __and__(self, other: "Formula") -> "Formula":
        return And.of(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or.of(self, other)

    def __invert__(self) -> "Formula":
        return Not.of(self)


@dataclass(frozen=True)
class Bool(Formula):
    value: bool
    arity: int = 0

    def atoms(self):
        return set()


@dataclass(frozen=True)
class Atom(Formula):
    """A leaf; ``holds(*point)`` forwards the point to the atom."""

    atom: Any

    @property
    def arity(self) -> int:
        return self.atom.arity

    def atoms(self):
        return {self.atom}


def _common_arity(parts: Sequence[Formula]) -> int:
    arities = {p.arity for p in parts if not isinstance(p, Bool)}
    if len(arities) > 1:
        raise ValueError(f"mixed formula arities {sorted(arities)}")
    if arities:
        return arities.pop()
    return max((p.arity for p in parts), default=0)


@dataclass(frozen=True)
class Junction(Formula):
    """A conjunction or disjunction; the subclasses differ only in ``unit``.

    ``unit`` is the neutral constant: True for ``And``, False for ``Or``.
    The other constant absorbs the node.  Dataclass equality compares the
    class, so an ``And`` never equals an ``Or`` over the same parts.
    """

    parts: tuple[Formula, ...]
    arity: int = field(compare=False, default=0)
    unit: ClassVar[bool]

    @classmethod
    def of(cls, *parts: Formula) -> Formula:
        n = _common_arity(parts)
        flat: list[Formula] = []
        for p in parts:
            if isinstance(p, Bool):
                if p.value != cls.unit:
                    return Bool(p.value, n)
                continue
            if isinstance(p, cls):
                flat.extend(p.parts)
            else:
                flat.append(p)
        if not flat:
            return Bool(cls.unit, n)
        if len(flat) == 1:
            return flat[0]
        return cls(tuple(flat), n)

    def atoms(self):
        out: set = set()
        for p in self.parts:
            out |= p.atoms()
        return out


class And(Junction):
    unit = True


class Or(Junction):
    unit = False


@dataclass(frozen=True)
class Not(Formula):
    part: Formula

    @staticmethod
    def of(part: Formula) -> Formula:
        if isinstance(part, Bool):
            return Bool(not part.value, part.arity)
        if isinstance(part, Not):
            return part.part
        return Not(part)

    @property
    def arity(self) -> int:
        return self.part.arity

    def atoms(self):
        return self.part.atoms()


def evaluate(f: Formula, value: Callable[[Any], Any], top: Any = True) -> Any:
    """Truth of ``f`` from the truths ``value(atom)`` of its atoms.

    Truths combine with ``&``, ``|`` and complement ``top ^``, so they may
    be bools (``top=True``) or bit masks, one bit per position, with
    ``top`` the mask of all positions.  A conjunction stops at the false
    element and a disjunction at ``top``: the atoms after that are not
    evaluated.
    """
    if isinstance(f, Atom):
        return value(f.atom)
    if isinstance(f, Junction):
        if f.unit:
            acc = top
            for p in f.parts:
                acc &= evaluate(p, value, top)
                if not acc:
                    break
        else:
            acc = top ^ top
            for p in f.parts:
                acc |= evaluate(p, value, top)
                if acc == top:
                    break
        return acc
    if isinstance(f, Not):
        return top ^ evaluate(f.part, value, top)
    if isinstance(f, Bool):
        return top if f.value else top ^ top
    raise TypeError(f"not a formula: {f!r}")


def map_atoms(f: Formula, fn: Callable[[Any], Formula], arity: int) -> Formula:
    """Rebuild ``f`` with every atom ``a`` replaced by the formula ``fn(a)``.

    Nodes are rebuilt through ``of``, so constants that ``fn`` returns fold
    away.  ``arity`` is the arity of the result; ``Bool`` leaves get it.
    """
    if isinstance(f, Atom):
        return fn(f.atom)
    if isinstance(f, Bool):
        return Bool(f.value, arity)
    if isinstance(f, Not):
        return Not.of(map_atoms(f.part, fn, arity))
    if isinstance(f, Junction):
        return f.of(*[map_atoms(p, fn, arity) for p in f.parts])
    raise TypeError(f"not a formula: {f!r}")


_TOKEN = re.compile(
    r"\s*(?:(?P<rel><=|>=|!=|==|<|>|=)|(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<punct>[()&|!*/^+-]))"
)


class Tokens:
    """Token stream over one DSL text.

    Also counts the open Boolean groups, so both DSLs share one cap.
    """

    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
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

    def end(self):
        """Raise unless every token has been read."""
        t = self.peek()
        if t is not None:
            raise ParseError(f"trailing input {t[1]!r}", t[2])

    def open_group(self):
        """Consume a group's opening token; the caller closes it with ``depth -= 1``."""
        t = self.next()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"formula nested deeper than {MAX_NESTING} levels", t[2])


class Side:
    """One side of a comparison, summed term by term.

    ``coeffs`` maps a variable index to its integer coefficient, ``const``
    is the sum of the constant terms and ``terms`` counts every term.
    """

    __slots__ = ("coeffs", "const", "terms")

    def __init__(self):
        self.coeffs: dict[int, int] = {}
        self.const: int | Fraction = 0
        self.terms = 0


class Pending:
    """A comparison ``lhs REL rhs``, built into an atom once the arity is known.

    ``pos`` is the position of the relation, where errors found while
    building are reported.
    """

    arity = 0
    __slots__ = ("lhs", "rel", "rhs", "pos")

    def __init__(self, lhs: Side, rel: str, rhs: Side, pos: int):
        self.lhs, self.rel, self.rhs, self.pos = lhs, rel, rhs, pos


def difference(lhs: Side, rhs: Side, n: int) -> tuple[list[int], int | Fraction]:
    """``lhs REL rhs`` as ``coeffs . x REL const`` over ``n`` variables."""
    coeffs = [0] * n
    for i, c in lhs.coeffs.items():
        coeffs[i] += c
    for i, c in rhs.coeffs.items():
        coeffs[i] -= c
    return coeffs, rhs.const - lhs.const


class Grammar:
    """Recursive-descent parser for one DSL text: the Boolean grammar above
    and the comparisons of linear sums both DSLs share.

    A subclass names its variables ``prefix`` + index (1-based), may parse
    other atoms by overriding ``atom`` and other names by overriding
    ``name``, and builds each ``Pending`` comparison into a formula in
    ``build``.  Atoms are built once the whole text is read, because the
    arity is known only then: the declared one, or else the largest
    variable index mentioned.
    """

    prefix: ClassVar[str]
    #: The class of a comparison side; a DSL with terms of its own extends it.
    side: ClassVar[type] = Side

    def __init__(self, text: str, arity: int | None):
        if arity is not None and arity < 0:
            raise SemanticError(f"negative variable count {arity}")
        self.toks = Tokens(text)
        self.declared = arity
        self.max_var = 0

    def parse(self) -> Formula:
        """The whole text as one formula."""
        f = self.disj()
        self.toks.end()
        n = self.declared if self.declared is not None else self.max_var
        return map_atoms(f, lambda p: self.build(p, n), n)

    def build(self, pending: Any, n: int) -> Formula:
        """The formula of a leaf the parser returned, in ``n`` variables."""
        raise NotImplementedError

    def disj(self) -> Formula:
        parts = [self.conj()]
        while self.toks.accept("|"):
            parts.append(self.conj())
        return Or.of(*parts) if len(parts) > 1 else parts[0]

    def conj(self) -> Formula:
        parts = [self.unary()]
        while self.toks.accept("&"):
            parts.append(self.unary())
        return And.of(*parts) if len(parts) > 1 else parts[0]

    def unary(self) -> Formula:
        t = self.toks.peek()
        if t is None:
            raise ParseError("unexpected end of input", len(self.toks.text))
        if t[0] == "name" and t[1] in ("true", "false"):
            self.toks.next()
            return Bool(t[1] == "true")
        if t[1] not in ("!", "("):
            return self.atom()
        self.toks.open_group()
        if t[1] == "!":
            node = Not.of(self.unary())
        else:
            node = self.disj()
            self.toks.expect(")")
        self.toks.depth -= 1
        return node

    def atom(self) -> Formula:
        return self.comparison()

    def comparison(self) -> Formula:
        """``sum REL sum`` as a ``Pending`` leaf; ``==`` reads as ``=``."""
        lhs = self.sum()
        t = self.toks.next()
        if t[0] != "rel":
            raise ParseError(f"expected a relation, found {t[1]!r}", t[2])
        rhs = self.sum()
        return Atom(Pending(lhs, "=" if t[1] == "==" else t[1], rhs, t[2]))

    def sum(self) -> Side:
        """``['-'] term (('+'|'-') term)*`` with ``term := RAT ['*' NAME] | NAME``."""
        toks = self.toks
        side = self.side()
        sign = -1 if toks.accept("-") else 1
        while True:
            t = toks.peek()
            if t is not None and t[0] == "num":
                value = self.rational()
                if toks.accept("*"):
                    v = toks.next()
                    if v[0] != "name":
                        raise ParseError("expected a variable after '*'", v[2])
                    if value.denominator != 1:
                        raise ParseError(f"non-integer coefficient {value} on {v[1]!r}", t[2])
                    self.name(side, v, sign * int(value), False)
                else:
                    side.const += value if sign > 0 else -value
            else:
                t = toks.next()
                if t[0] != "name":
                    raise ParseError(f"expected a term, found {t[1]!r}", t[2])
                self.name(side, t, sign, True)
            side.terms += 1
            if toks.accept("+"):
                sign = 1
            elif toks.accept("-"):
                sign = -1
            else:
                return side

    def name(self, side: Side, t: tuple[str, str, int], c: int, bare: bool):
        """Add the term ``c * NAME`` to ``side``; ``bare`` if written without a number."""
        i = self.variable(t)
        side.coeffs[i] = side.coeffs.get(i, 0) + c

    def variable(self, t: tuple[str, str, int]) -> int:
        """The 0-based index of the variable named by token ``t``."""
        name, pos = t[1], t[2]
        if name[0] != self.prefix or not name[1:].isdigit():
            raise ParseError(f"unknown variable {name!r}", pos)
        idx = int(name[1:])
        if idx < 1:
            raise ParseError(f"variable indices start at {self.prefix}1, got {name!r}", pos)
        if self.declared is not None and idx > self.declared:
            raise SemanticError(
                f"unknown variable {name!r}: formula has {self.declared} variables"
            )
        if idx > self.max_var:
            self.max_var = idx
        return idx - 1

    def rational(self) -> int | Fraction:
        """``INT ['/' INT]``: an int, or a Fraction when a denominator is written."""
        t = self.toks.next()
        if t[0] != "num":
            raise ParseError(f"expected a number, found {t[1]!r}", t[2])
        if not self.toks.accept("/"):
            return int(t[1])
        d = self.toks.next()
        if d[0] != "num" or int(d[1]) == 0:
            raise ParseError("expected a nonzero integer denominator", d[2])
        return Fraction(int(t[1]), int(d[1]))
