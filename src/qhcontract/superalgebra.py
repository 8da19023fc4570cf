"""Free associative algebra on graded generators over the localized scalars.

Words are plain tuples of generator ids and elements are finite linear
combinations of words with :class:`~qhcontract.coeffring.Coeff`
coefficients.  The global word order is graded first, then lexicographic by
generator precedence with the higher-precedence letter counting as larger.

Elements keep their words largest first with no zero coefficient.  The
public constructor drops zeros and sorts; the operations here know more
about their results and skip what cannot change them.  The coefficient
ring has no zero divisors, so a product of nonzero scalars is nonzero: the
terms of ``free_mul``, of sums and of normal forms, which delete each sum
that cancels as it forms, are never zero, and ``scale`` by a nonzero
scalar and negation keep both the words and their order as well.  An
element with at most one word is never sorted.

Parities are carried as metadata only.  No Koszul sign is ever inferred
from them: the structures built on top mix conventions (matrix entries
commute with plane coordinates yet anticommute with dual-plane
coordinates, and the tensor embeddings are deliberately ungraded), so all
commutation behaviour comes from explicit relations or explicit
cross-family sign declarations.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import NamedTuple

from .coeffring import Coeff, coeff

RESERVED_NAMES = frozenset({"q", "h"})
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*'*\Z")

Word = tuple  # tuple of generator ids

# one tuple per relation word, shared by all algebras; relation words have
# two letters, so this holds at most (number of generators)^2 entries
_WORDS = {}


class Generator(NamedTuple):
    gid: int
    name: str
    parity: str  # "even" | "odd"
    family: str
    prec: int


class AlgebraSpec:
    """A finitely presented algebra: generators, cross-family signs, relations.

    Relations are attached with :meth:`add_relation` and must be homogeneous
    of degree 2; every relation set in scope is quadratic and the rewrite
    engine depends on it.  Once :func:`~qhcontract.rewrite.orient` has built
    the rule system, which it keeps here, the relations are frozen.
    """

    def __init__(self, name: str, generators, cross_sign=None):
        self.name = name
        self.generators = tuple(generators)
        self.cross_sign = {}
        for fams, sign in (cross_sign or {}).items():
            if sign not in (1, -1):
                raise ValueError(f"cross sign must be +1 or -1, got {sign}")
            self.cross_sign[frozenset(fams)] = sign
        self.relations = []
        self._rules = None  # the RuleSystem, written only by rewrite.orient
        self._shared_coeffs = {}
        self._by_name = {}
        self._prec = [0] * len(self.generators)
        for i, g in enumerate(self.generators):
            if g.gid != i:
                raise ValueError("generator ids must be 0..n-1 in order")
            if g.parity not in ("even", "odd"):
                raise ValueError(f"bad parity {g.parity!r} for {g.name}")
            if g.name in RESERVED_NAMES:
                raise ValueError(f"generator name {g.name!r} is reserved")
            if not _NAME_RE.match(g.name):
                raise ValueError(f"bad generator name {g.name!r}")
            if g.name in self._by_name:
                raise ValueError(f"duplicate generator name {g.name!r}")
            self._by_name[g.name] = g
            self._prec[i] = g.prec
        if sorted(self._prec) != list(range(len(self.generators))):
            raise ValueError("precedences must be a permutation of 0..n-1")

    @classmethod
    def build(cls, name: str, gens, cross_sign=None) -> "AlgebraSpec":
        """Construct from (name, parity, family, prec) tuples in declaration order.

        The strings are interned: a script may define many algebras that
        reuse the same generator names, parities and families.
        """
        generators = [
            Generator(i, sys.intern(gname), sys.intern(parity), sys.intern(family), prec)
            for i, (gname, parity, family, prec) in enumerate(gens)
        ]
        return cls(name, generators, cross_sign)

    def generator(self, gid: int) -> Generator:
        return self.generators[gid]

    def generator_named(self, name: str) -> Generator:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no generator {name!r} in algebra {self.name!r}") from None

    def has_generator(self, name: str) -> bool:
        return name in self._by_name

    def families(self):
        return {g.family for g in self.generators}

    def cross(self, fam_a: str, fam_b: str):
        """Declared sign for swapping the two families, or None."""
        return self.cross_sign.get(frozenset((fam_a, fam_b)))

    def word_key(self, word: Word):
        return (len(word), tuple(map(self._prec.__getitem__, word)))

    def word_str(self, word: Word) -> str:
        if not word:
            return "1"
        runs = []
        for g in word:
            if runs and runs[-1][0] == g:
                runs[-1][1] += 1
            else:
                runs.append([g, 1])
        return "*".join(
            self.generators[g].name if n == 1 else f"{self.generators[g].name}^{n}"
            for g, n in runs
        )

    # -- element constructors -------------------------------------------------

    def zero(self) -> "Element":
        return Element(self, {})

    def unit(self) -> "Element":
        return Element(self, {(): Coeff.one()})

    def scalar(self, c) -> "Element":
        return Element(self, {(): coeff(c)})

    def gen_element(self, name: str) -> "Element":
        g = self.generator_named(name)
        return Element(self, {(g.gid,): Coeff.one()})

    def gen_elements(self, names: str):
        return tuple(self.gen_element(n) for n in names.split())

    def word_element(self, word: Word) -> "Element":
        return Element(self, {tuple(word): Coeff.one()})

    def degree2_words(self):
        """All n^2 two-letter words in ascending global word order."""
        n = len(self.generators)
        words = [(i, j) for i in range(n) for j in range(n)]
        words.sort(key=self.word_key)
        return words

    def add_relation(self, elem: "Element") -> None:
        if self._rules is not None:
            raise ValueError(f"the relations of {self.name!r} are frozen: its rules are oriented")
        if elem.algebra is not self:
            raise ValueError("relation belongs to a different algebra")
        if elem.is_zero():
            raise ValueError("zero relation")
        if not elem.is_homogeneous(2):
            raise ValueError(f"relation {elem} is not homogeneous of degree 2")
        # relations live as long as their algebra, so they keep one shared
        # object per distinct word and coefficient (both are immutable)
        shared = self._shared_coeffs
        self.relations.append(Element(self, {
            _WORDS.setdefault(w, w): shared.setdefault(str(c), c) for w, c in elem.terms.items()
        }))

    def __repr__(self) -> str:
        return f"AlgebraSpec({self.name!r}, {len(self.generators)} generators)"


class Element:
    """Finite Coeff-linear combination of words of one ambient algebra.

    Terms are stored largest word first with no zero coefficients, so the
    canonical printed form of equal elements is byte-identical.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: AlgebraSpec, terms):
        clean = {w: c for w, c in terms.items() if c}
        self.algebra = algebra
        self.terms = _sorted(algebra, clean)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    __hash__ = None

    def _check_same(self, other: "Element") -> None:
        if self.algebra is not other.algebra:
            raise ValueError(
                f"mixing elements of {self.algebra.name!r} and {other.algebra.name!r}"
            )

    def __add__(self, other: "Element") -> "Element":
        self._check_same(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            old = out.get(w)
            if old is None:
                out[w] = c
            else:
                s = old + c
                if s:
                    out[w] = s
                else:
                    del out[w]
        return from_nonzero_terms(self.algebra, out)

    def __neg__(self) -> "Element":
        return _wrap_element(self.algebra, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scale(self, c) -> "Element":
        c = coeff(c)
        if not c:
            return self.algebra.zero()
        return _wrap_element(self.algebra, {w: cc * c for w, cc in self.terms.items()})

    def free_mul(self, other: "Element") -> "Element":
        """Bilinear extension of word concatenation; no relations applied."""
        self._check_same(other)
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                old = out.get(w)
                if old is None:
                    out[w] = c1 * c2
                else:
                    s = old + c1 * c2
                    if s:
                        out[w] = s
                    else:
                        del out[w]
        return from_nonzero_terms(self.algebra, out)

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.free_mul(other)
        if isinstance(other, (Coeff, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Coeff, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def leading_word(self) -> Word:
        if not self.terms:
            raise ValueError("zero element has no leading word")
        return next(iter(self.terms))

    def coefficient(self, word: Word) -> Coeff:
        return self.terms.get(tuple(word), Coeff.zero())

    def degree(self) -> int:
        """Maximal word length; -1 for the zero element."""
        if not self.terms:
            return -1
        return max(len(w) for w in self.terms)

    def is_homogeneous(self, d: int) -> bool:
        return all(len(w) == d for w in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for w, c in self.terms.items():
            chunks.append(_term_str(self.algebra, w, c))
        text = chunks[0]
        for piece in chunks[1:]:
            if piece.startswith("-"):
                text += " - " + piece[1:]
            else:
                text += " + " + piece
        return text

    def __repr__(self) -> str:
        return f"Element({self.algebra.name}: {self})"


def _sorted(algebra: AlgebraSpec, terms: dict) -> dict:
    """``terms`` with its words largest first; at most one word is kept as it is."""
    if len(terms) < 2:
        return terms
    return {w: terms[w] for w in sorted(terms, key=algebra.word_key, reverse=True)}


def _wrap_element(algebra: AlgebraSpec, terms: dict) -> Element:
    """An Element around terms already free of zeros and sorted, without copying."""
    e = object.__new__(Element)
    e.algebra = algebra
    e.terms = terms
    return e


def from_nonzero_terms(algebra: AlgebraSpec, terms: dict) -> Element:
    """An Element from a fresh dict with no zero coefficient, handed over.

    Skips the zero scan of the public constructor and sorts the words.
    """
    return _wrap_element(algebra, _sorted(algebra, terms))


def _term_str(algebra: AlgebraSpec, word: Word, c: Coeff) -> str:
    ws = algebra.word_str(word)
    cs = str(c)
    if ws == "1":
        if len(c.num.terms) > 1:
            return f"({cs})" if (c.qpow or c.q1pow) else cs
        return cs
    if cs == "1":
        return ws
    if cs == "-1":
        return "-" + ws
    # a multi-term numerator needs parens before '*'; single terms and
    # denominator suffixes associate correctly as written
    if len(c.num.terms) > 1 and not (c.qpow or c.q1pow):
        cs = f"({cs})"
    return f"{cs}*{ws}"
