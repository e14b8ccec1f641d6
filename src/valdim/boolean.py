"""Boolean formulas over any atom type, and the Boolean grammar of both DSLs.

A formula is a tree of ``Bool`` constants, ``Atom`` leaves and ``And``,
``Or`` and ``Not`` nodes.  The linear engine puts ``LinearAtom``s in the
leaves and the mixed engine ``MixedAtom``s; a node needs only an atom's
``arity`` and ``holds``.  Every node carries the arity of its formula:
the number of variables of a linear formula, the number of group
coordinates of a mixed one.  The ``of`` constructors flatten nested nodes
of the same kind and fold constants.

Both DSLs share one tokenizer, one nesting cap and one grammar for the
Boolean structure, documented in docs/dsl.md:

    formula  :=  disj
    disj     :=  conj ('|' conj)*
    conj     :=  unary ('&' unary)*
    unary    :=  '!' unary  |  '(' disj ')'  |  'true'  |  'false'  |  atom

Each DSL parses its atoms with a callback.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Sequence

from .errors import ParseError

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


class Tokens:
    """Token stream over one DSL text, for a token pattern with named groups.

    Also counts the open Boolean groups, so both DSLs share one cap.
    """

    def __init__(self, text: str, pattern: re.Pattern):
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


class Grammar:
    """The Boolean grammar over ``toks``; ``atom()`` parses one atom.

    The callback is called where a unary formula starts with anything but
    ``!``, ``(``, ``true`` or ``false``.  Parsers that learn their arity
    only at the end of the text return atoms of arity 0 and rebuild the
    tree with :func:`map_atoms` once it is known.
    """

    def __init__(self, toks: Tokens, atom: Callable[[], Formula]):
        self.toks = toks
        self.atom = atom

    def parse(self) -> Formula:
        """The whole token stream as one formula."""
        f = self.disj()
        t = self.toks.peek()
        if t is not None:
            raise ParseError(f"trailing input {t[1]!r}", t[2])
        return f

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
