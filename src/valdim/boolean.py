"""Boolean formulas over any atom type, and the Boolean grammar of both DSLs.

A formula is a tree of ``Bool`` constants, atom leaves and ``And``,
``Or`` and ``Not`` nodes.  A leaf is the atom itself, an ``Atom``
subclass: ``LinearAtom`` in the linear engine, ``MixedAtom`` in the mixed
one; a node needs only an atom's ``arity`` and ``holds``.  Every node
carries the arity of its formula:
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
    INT      :=  [0-9]+                   ASCII digits only

A coefficient before a NAME must be an integer.  Each DSL is a subclass
of ``Grammar`` that says what its NAMEs are and may add atoms of its own.

The tokens are strings, read by one ``findall`` and walked by index; a
token's kind is read off its first character.  A token's position in
the text is found only for an error, by scanning the text again.  One
search for a character no token starts with runs first, so an
unexpected character is reported before any grammar error.  The arity
is read off the tokens next, before the descent: the declared one, or
else the largest valid variable index.  So every atom and node is built
where the grammar reads it, and an error in a comparison is raised there,
in text order.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Any, Callable, ClassVar, Sequence

from .errors import ParseError, SemanticError

#: Deepest nesting of '(', '!' and 'exists' groups either DSL accepts;
#: deeper input is a parse error instead of a stack overflow.
MAX_NESTING = 256
#: Most variables a formula of either DSL may have: a larger written index
#: is a parse error, a larger declared count a semantic one.
MAX_VARIABLES = 10_000
_INDEX_DIGITS = len(str(MAX_VARIABLES))


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


class Atom(Formula):
    """A leaf: the base of every atom class, which gives its own ``arity``
    and ``holds``.  It has no fields and is never built itself."""

    def atoms(self):
        return {self}


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
        return value(f)
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
        return fn(f)
    if isinstance(f, Bool):
        return Bool(f.value, arity)
    if isinstance(f, Not):
        return Not.of(map_atoms(f.part, fn, arity))
    if isinstance(f, Junction):
        return f.of(*[map_atoms(p, fn, arity) for p in f.parts])
    raise TypeError(f"not a formula: {f!r}")


#: One token: a relation, an INT, a NAME or a punctuation mark.  The pattern
#: has no groups, so ``findall`` returns the token strings, and a scan skips
#: the whitespace between them.
_TOKEN = re.compile(r"<=|>=|!=|==|[<>=]|[0-9]+|[A-Za-z_][A-Za-z_0-9]*|[()&|!*/^+-]")
#: A character that is neither whitespace nor one a token starts with.
_BAD = re.compile(r"[^\s0-9A-Za-z_<>=!()&|*/^+-]")
#: The first characters of INT and of NAME tokens: a token's kind is read
#: off its first character, and the relations are the tokens in ``RELATIONS``.
DIGITS = "0123456789"
NAME_START = "ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz"
RELATIONS = frozenset(("<", "<=", "=", "==", ">=", ">", "!="))


class Tokens:
    """The tokens of one DSL text, as strings in ``items``, read by index.

    A reader walks ``items`` from an index and returns the index after
    what it read.  The position of a token in the text is found only when
    an error needs it.  Also counts the open Boolean groups, so both DSLs
    share one cap.
    """

    __slots__ = ("text", "items", "depth")

    def __init__(self, text: str):
        bad = _BAD.search(text)
        if bad is not None:
            raise ParseError(f"unexpected character {bad.group()!r}", bad.start())
        self.text = text
        self.items: list[str] = _TOKEN.findall(text)
        self.depth = 0

    def error(self, message: str, i: int) -> ParseError:
        """A parse error at token ``i``, or at the end of the text past the last token."""
        if i >= len(self.items):
            return ParseError(message, len(self.text))
        return ParseError(message, next(islice(_TOKEN.finditer(self.text), i, None)).start())

    def at(self, i: int) -> str:
        """Token ``i``; past the last one, a parse error at the end of the text."""
        if i < len(self.items):
            return self.items[i]
        raise ParseError("unexpected end of input", len(self.text))

    def past(self, i: int, value: str) -> int:
        """The index after token ``i``, which must be ``value``."""
        items = self.items
        if i < len(items) and items[i] == value:
            return i + 1
        found = f", found {items[i]!r}" if i < len(items) else ""
        raise self.error(f"expected {value!r}{found}", i)

    def end(self, i: int):
        """Raise unless every token has been read: ``i`` is past the last one."""
        if i < len(self.items):
            raise self.error(f"trailing input {self.items[i]!r}", i)

    def open_group(self, i: int) -> int:
        """Open the group at token ``i``, and return the index after it.

        The caller closes the group with ``depth -= 1``.
        """
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"formula nested deeper than {MAX_NESTING} levels", i)
        return i + 1

    def integer(self, i: int) -> int:
        """The value of the INT token ``i``.

        A literal longer than the interpreter converts (``int`` refuses it
        with a ValueError) is a parse error at its token.
        """
        try:
            return int(self.items[i])
        except ValueError:
            raise self.error(
                f"number of {len(self.items[i])} digits is above the limit of "
                f"{sys.get_int_max_str_digits()} digits", i
            ) from None

    def rational(self, i: int) -> tuple[int | Fraction, int]:
        """``INT ['/' INT]`` at token ``i``, and the index after it.

        An int, or a Fraction when a denominator is written.
        """
        items = self.items
        t = items[i] if i < len(items) else self.at(i)
        if t[0] not in DIGITS:
            raise self.error(f"expected a number, found {t!r}", i)
        if i + 1 == len(items) or items[i + 1] != "/":
            return self.integer(i), i + 1
        if self.at(i + 2)[0] not in DIGITS or (d := self.integer(i + 2)) == 0:
            raise self.error("expected a nonzero integer denominator", i + 2)
        return Fraction(self.integer(i), d), i + 3


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


class Grammar:
    """Recursive-descent parser for one DSL text: the Boolean grammar above
    and the comparisons of linear sums both DSLs share.

    Each rule reads from a token index and returns what it read with the
    index after it.  A subclass names its variables ``prefix`` + index
    (1-based), may parse other atoms by overriding ``atom`` and other
    names by overriding ``name``, and builds each comparison into a
    formula in ``build``.  The arity is read off the tokens before the
    descent starts: the declared one, or else the largest valid index
    among the variable names.  So every atom and node is built once,
    where it is read.
    """

    prefix: ClassVar[str]
    #: The class of a comparison side; a DSL with terms of its own extends it.
    side: ClassVar[type] = Side

    def __init__(self, text: str, arity: int | None):
        if arity is not None and arity < 0:
            raise SemanticError(f"negative variable count {arity}")
        if arity is not None and arity > MAX_VARIABLES:
            raise SemanticError(f"variable count {arity} is above the limit of {MAX_VARIABLES}")
        self.toks = Tokens(text)
        if arity is None:
            indices = [self.index(t) for t in self.toks.items if t[0] == self.prefix]
            arity = max((k for k in indices if k and k <= MAX_VARIABLES), default=0)
        self.arity = arity

    def parse(self) -> Formula:
        """The whole text as one formula."""
        f, i = self.disj(0)
        self.toks.end(i)
        return f

    def build(self, lhs: Side, rel: str, rhs: Side, at: int) -> Formula:
        """The formula of ``lhs REL rhs`` in ``self.arity`` variables; ``at`` is
        the index of the relation's token, where its errors are reported."""
        raise NotImplementedError

    def difference(self, lhs: Side, rhs: Side) -> tuple[list[int], int | Fraction]:
        """``lhs REL rhs`` as ``coeffs . x REL const`` over ``self.arity`` variables."""
        coeffs = [0] * self.arity
        for i, c in lhs.coeffs.items():
            coeffs[i] += c
        for i, c in rhs.coeffs.items():
            coeffs[i] -= c
        return coeffs, rhs.const - lhs.const

    def disj(self, i: int) -> tuple[Formula, int]:
        items = self.toks.items
        parts = []
        while True:
            f, i = self.conj(i)
            parts.append(f)
            if i == len(items) or items[i] != "|":
                return (Or.of(*parts) if len(parts) > 1 else f), i
            i += 1

    def conj(self, i: int) -> tuple[Formula, int]:
        items = self.toks.items
        parts = []
        while True:
            f, i = self.unary(i)
            parts.append(f)
            if i == len(items) or items[i] != "&":
                return (And.of(*parts) if len(parts) > 1 else f), i
            i += 1

    def unary(self, i: int) -> tuple[Formula, int]:
        toks = self.toks
        t = toks.at(i)
        if t == "true" or t == "false":
            return Bool(t == "true", self.arity), i + 1
        if t != "!" and t != "(":
            return self.atom(i)
        i = toks.open_group(i)
        if t == "!":
            node, i = self.unary(i)
            node = Not.of(node)
        else:
            node, i = self.disj(i)
            i = toks.past(i, ")")
        toks.depth -= 1
        return node, i

    def atom(self, i: int) -> tuple[Formula, int]:
        return self.comparison(i)

    def comparison(self, i: int) -> tuple[Formula, int]:
        """``sum REL sum``, built by ``build``; ``==`` reads as ``=``."""
        lhs, i = self.sum(i)
        t = self.toks.at(i)
        if t not in RELATIONS:
            raise self.toks.error(f"expected a relation, found {t!r}", i)
        rhs, j = self.sum(i + 1)
        return self.build(lhs, "=" if t == "==" else t, rhs, i), j

    def sum(self, i: int) -> tuple[Side, int]:
        """``['-'] term (('+'|'-') term)*`` with ``term := RAT ['*' NAME] | NAME``."""
        toks = self.toks
        items = toks.items
        n = len(items)
        side = self.side()
        sign = 1
        if i < n and items[i] == "-":
            sign = -1
            i += 1
        while True:
            t = items[i] if i < n else toks.at(i)
            if t[0] in DIGITS:
                value, j = toks.rational(i)
                if j < n and items[j] == "*":
                    if (items[j + 1] if j + 1 < n else toks.at(j + 1))[0] not in NAME_START:
                        raise toks.error("expected a variable after '*'", j + 1)
                    if value.denominator != 1:
                        raise toks.error(
                            f"non-integer coefficient {value} on {items[j + 1]!r}", i
                        )
                    i = self.name(side, j + 1, sign * int(value), False)
                else:
                    side.const += value if sign > 0 else -value
                    i = j
            elif t[0] in NAME_START:
                i = self.name(side, i, sign, True)
            else:
                raise toks.error(f"expected a term, found {t!r}", i)
            side.terms += 1
            if i == n:
                return side, i
            t = items[i]
            if t == "+":
                sign = 1
            elif t == "-":
                sign = -1
            else:
                return side, i
            i += 1

    def name(self, side: Side, i: int, c: int, bare: bool) -> int:
        """Add the term ``c * NAME``, NAME token ``i``, to ``side``, and return
        the index after it; ``bare`` if written without a number."""
        v = self.variable(i)
        side.coeffs[v] = side.coeffs.get(v, 0) + c
        return i + 1

    def index(self, name: str) -> int | None:
        """The index ``name`` writes, or None unless it is ``prefix`` + INT.

        Leading zeros are dropped, and an index of more digits than
        ``MAX_VARIABLES`` reads as ``MAX_VARIABLES + 1``, before ``int``
        would refuse it.
        """
        digits = name[1:]
        if name[0] != self.prefix or not digits.isdigit():
            return None
        if len(digits) > _INDEX_DIGITS:
            digits = digits.lstrip("0") or "0"
        return int(digits) if len(digits) <= _INDEX_DIGITS else MAX_VARIABLES + 1

    def variable(self, i: int) -> int:
        """The 0-based index of the variable named by token ``i``."""
        name = self.toks.items[i]
        idx = self.index(name)
        if idx is None:
            raise self.toks.error(f"unknown variable {name!r}", i)
        if idx > MAX_VARIABLES:
            raise self.toks.error(
                f"variable index {name!r} is above the limit of {MAX_VARIABLES}", i
            )
        if idx < 1:
            raise self.toks.error(f"variable indices start at {self.prefix}1, got {name!r}", i)
        if idx > self.arity:  # only a declared arity is below an index
            raise SemanticError(f"unknown variable {name!r}: formula has {self.arity} variables")
        return idx - 1


_SIGNED_INT = re.compile(r"\s*-?[0-9]+\s*")


def signed_int(text: str) -> int:
    """``text`` as ``['-'] INT`` between blanks; ValueError for any other form.

    Numbers outside the DSLs (trop exponents, ``--keep`` and ``--map``
    entries) read by this rule; ``int`` alone would also take ``+``,
    ``_`` separators and any Unicode digit.
    """
    if _SIGNED_INT.fullmatch(text) is None:
        raise ValueError(f"not an integer: {text!r}")
    return int(text)

