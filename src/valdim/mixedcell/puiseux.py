"""Finite Puiseux expressions: the desk-scale valued-coordinate domain.

An element is a finite sum of terms q * t^e with nonzero rational
coefficients q and strictly increasing rational exponents e.  The
valuation of an element is its least exponent; the valuation of zero is
the symbolic top element ``INFINITY``.  All root distances and polynomial
valuations computed from this data are exact.

Every element keeps its terms canonical: ``(exponent, coefficient)``
pairs, exponents strictly increasing, no zero coefficient, and each
value an ``int`` when it is integral and a ``Fraction`` with denominator
> 1 otherwise (the lead of a ``FactoredPoly`` and a finite
``valuation_at`` follow the same rule).  So the common case of integral
data compares and adds as machine integers, and since an integral
``Fraction`` equals, hashes and prints as its ``int``, the rule changes
no key, order or text.  The public constructors (``PuiseuxElement(...)``,
``of``, ``constant``) check and coerce their input, and accept only
``int`` and ``Fraction`` values.  The operators build their results from
canonical terms, so they go through ``_canonical``, which stores the
terms as given.  An element and a polynomial compute their hash once and
keep it, the value the dataclass would compute: a polynomial when it is
built, an element when it is first hashed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Union


class _Infinity:
    """Top element adjoined to the rational value group (valuation of 0)."""

    __slots__ = ()

    def __repr__(self):
        return "INFINITY"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("valdim.INFINITY")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __neg__(self):
        raise ArithmeticError("the top element has no negative in the value group")


INFINITY = _Infinity()

Q = Union[int, Fraction]
Val = Union[int, Fraction, _Infinity]


def _rational(q, what: str) -> Q:
    """``q`` by the int rule; only ints (not bools) and Fractions are exact data."""
    if type(q) is int:
        return q
    if isinstance(q, Fraction):
        return _q(q)
    if isinstance(q, int) and not isinstance(q, bool):
        return int(q)
    raise TypeError(f"{what} must be an int or a Fraction, got {type(q).__name__} {q!r}")


def _q(q: Q) -> Q:
    """A sum or difference of exact values, by the int rule."""
    return q if type(q) is int or q.denominator != 1 else q.numerator


@dataclass(frozen=True)
class PuiseuxElement:
    """Finite list of (exponent, coefficient) terms, exponents increasing."""

    terms: tuple[tuple[Q, Q], ...] = ()

    def __post_init__(self):
        cleaned = []
        last = None
        for e, c in self.terms:
            e, c = _rational(e, "exponent"), _rational(c, "coefficient")
            if c == 0:
                continue
            if last is not None and e <= last:
                raise ValueError("exponents must be strictly increasing")
            last = e
            cleaned.append((e, c))
        object.__setattr__(self, "terms", tuple(cleaned))

    def __hash__(self):
        """The hash of the terms, computed on first use and kept: the operators
        build many elements that are never hashed."""
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.terms,))
            object.__setattr__(self, "_hash", h)
        return h

    @classmethod
    def _canonical(cls, terms: tuple) -> "PuiseuxElement":
        """Wrap terms that are already canonical, skipping the checks."""
        el = object.__new__(cls)
        object.__setattr__(el, "terms", terms)
        return el

    @staticmethod
    def of(*terms: tuple) -> "PuiseuxElement":
        """Build from (exponent, coefficient) pairs in any order."""
        pairs = sorted(
            ((_rational(e, "exponent"), _rational(c, "coefficient")) for e, c in terms),
            key=itemgetter(0),
        )
        out = []
        for e, c in pairs:
            if out and out[-1][0] == e:
                out[-1] = (e, _q(out[-1][1] + c))
            else:
                out.append((e, c))
        return PuiseuxElement._canonical(tuple(t for t in out if t[1]))

    @staticmethod
    def constant(q) -> "PuiseuxElement":
        return PuiseuxElement.of((0, q))

    def is_zero(self) -> bool:
        return not self.terms

    def valuation(self) -> Val:
        return self.terms[0][0] if self.terms else INFINITY

    def distance(self, other: "PuiseuxElement") -> Val:
        """v(self - other): the least exponent where the term lists differ."""
        a, b = self.terms, other.terms
        for ta, tb in zip(a, b):
            if ta != tb:
                return min(ta[0], tb[0])
        if len(a) == len(b):
            return INFINITY
        return a[len(b)][0] if len(a) > len(b) else b[len(a)][0]

    def _merge(self, other: "PuiseuxElement", sub: bool) -> "PuiseuxElement":
        """self + other, or self - other, by one merge of the sorted term lists."""
        a, b = self.terms, other.terms
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            ea, ca = a[i]
            eb, cb = b[j]
            if ea == eb:
                c = ca - cb if sub else ca + cb
                if c:
                    out.append((ea, _q(c)))
                i += 1
                j += 1
            elif ea < eb:
                out.append(a[i])
                i += 1
            else:
                out.append((eb, -cb) if sub else b[j])
                j += 1
        out.extend(a[i:])
        out.extend(((e, -c) for e, c in b[j:]) if sub else b[j:])
        return PuiseuxElement._canonical(tuple(out))

    def __add__(self, other: "PuiseuxElement") -> "PuiseuxElement":
        return self._merge(other, False)

    def __sub__(self, other: "PuiseuxElement") -> "PuiseuxElement":
        return self._merge(other, True)

    def __neg__(self) -> "PuiseuxElement":
        return PuiseuxElement._canonical(tuple((e, -c) for e, c in self.terms))

    def coefficient(self, e) -> Q:
        for exp, c in self.terms:
            if exp == e:
                return c
        return 0

    def key(self) -> tuple:
        """Term-lexicographic sort key; the canonical total order on elements."""
        return self.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(_term(e, c) for e, c in self.terms).replace("+ -", "- ")


def _term(e: Q, c: Q) -> str:
    """The term c * t^e, with a coefficient 1 left out before t."""
    if e == 0:
        return str(c)
    power = "t" if e == 1 else f"t^{e}"
    return power if c == 1 else f"{c}*{power}"


def valuation(e: PuiseuxElement) -> Val:
    """Least exponent of a nonzero term; INFINITY for zero."""
    return e.valuation()


@dataclass(frozen=True)
class FactoredPoly:
    """lead * prod (x - root_i)^mult_i with pairwise distinct explicit roots.

    The zero polynomial is not representable (its valuation would be
    identically INFINITY), so ``lead`` must be a nonzero rational.
    """

    lead: Q
    roots: tuple[tuple[PuiseuxElement, int], ...] = ()

    def __post_init__(self):
        lead = _rational(self.lead, "lead")
        if lead == 0:
            raise ValueError("zero polynomial rejected: valuation identically infinite")
        seen = set()
        fixed = []
        for r, m in self.roots:
            if not isinstance(r, PuiseuxElement):
                r = PuiseuxElement.constant(r)
            if not isinstance(m, int) or isinstance(m, bool):
                raise TypeError(f"root multiplicity must be an int, got {m!r}")
            if m < 1:
                raise ValueError("root multiplicities must be positive")
            if r in seen:
                raise ValueError(f"repeated root {r}")
            seen.add(r)
            fixed.append((r, m))
        fixed.sort(key=lambda rm: rm[0].key())
        roots = tuple(fixed)
        object.__setattr__(self, "lead", lead)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "_hash", hash((lead, roots)))

    def __hash__(self):
        return self._hash

    def valuation_at(self, x: PuiseuxElement) -> Val:
        """v(f(x)) = sum of m * v(x - r), summed as one integer fraction num / den."""
        num, den = 0, 1
        for r, m in self.roots:
            v = x.distance(r)
            if v is INFINITY:
                return INFINITY
            if type(v) is int:
                num += m * v * den
            else:
                d = v.denominator
                num = num * d + m * v.numerator * den
                den *= d
        return num if den == 1 else _q(Fraction(num, den))

    def translate(self, a: PuiseuxElement) -> "FactoredPoly":
        """The polynomial x -> f(x + a); roots shift by -a."""
        return FactoredPoly(self.lead, tuple((r - a, m) for r, m in self.roots))

    def key(self) -> tuple:
        return (self.lead, tuple((r.key(), m) for r, m in self.roots))

    def __str__(self) -> str:
        parts = [] if self.lead == 1 and self.roots else [str(self.lead)]
        for r, m in self.roots:
            # x - r, each term of -r with its own sign.
            tail = "".join(
                f" - {_term(e, c)}" if c > 0 else f" + {_term(e, -c)}" for e, c in r.terms
            )
            base = f"(x{tail})"
            parts.append(base if m == 1 else f"{base}^{m}")
        return "*".join(parts) if parts else str(self.lead)
