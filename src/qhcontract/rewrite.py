"""Orient quadratic relation sets into terminating rewrite rules.

Orientation is a reduced row echelon computation over the localized
coefficient ring in the degree-2 word space: the largest word of each
inter-reduced relation becomes a rule left-hand side, solved with a unit
leading coefficient.  Because the lhs is the largest word of its row, every
rhs word is strictly smaller and reduction terminates.  Cross-family swap
rules u*v -> sign * v*u are added for every pair of generators from
distinct families with a declared sign.

Normal forms rewrite the largest reducible word at its first redex until
no word is reducible.  The reducible words wait in a heap ordered by
``AlgebraSpec.word_key``, each with its first redex found once when it
appears, so no step rescans the terms.  The strategy and every normal form
are those of rescanning all terms before each step, also on systems that
are not confluent, where the strategy decides the result.

Confluence is decided once, on first use, by Bergman's diamond lemma:
every rule is quadratic and the word order is degree-lexicographic, so the
system is confluent in every degree exactly when each overlap ``abc``, with
``ab`` and ``bc`` both left-hand sides, reduces to one normal form from
both redexes (:meth:`RuleSystem.unresolved_overlaps`).  Unresolved
overlaps are returned as data; :func:`confluent_rules` is the one guard
that raises :class:`NotConfluent` for callers whose answer needs unique
normal forms.

The rule system belongs to its algebra: :func:`orient` builds it on the
first call and keeps it on the :class:`AlgebraSpec`, whose relations are
frozen from then on, so every caller reduces with the same rules.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import NamedTuple

from .coeffring import Coeff, NotAUnit
from .superalgebra import AlgebraSpec, Element, from_nonzero_terms


class OrientationFailure(Exception):
    """The relation set cannot be turned into a terminating rule system."""


class NotConfluent(Exception):
    """Normal forms were asked of a rule system that is not confluent."""


class OverlapWitness(NamedTuple):
    word: tuple
    nf_a: Element
    nf_b: Element

    def describe(self) -> str:
        alg = self.nf_a.algebra
        return f"{alg.word_str(self.word)} -> {self.nf_a} | {self.nf_b}"


class RuleSystem:
    """Oriented rules of one algebra: a map from 2-letter words to elements."""

    def __init__(self, ambient: AlgebraSpec, rules):
        self.ambient = ambient
        self.rules = dict(rules)
        # word_key negated, (-len(w), [-prec of each letter]), so that the
        # min-heap of normal_form pops the largest word first
        self._down = [-g.prec for g in ambient.generators]
        self._overlaps = None

    def _overlap_pairs(self):
        """Each overlap ``abc`` with ``rhs(ab)`` and ``rhs(bc)``, in
        lexicographic order of ``abc``."""
        rules = self.rules
        for (a, b), rhs_ab in sorted(rules.items()):
            for c in range(len(self.ambient.generators)):
                rhs_bc = rules.get((b, c))
                if rhs_bc is not None:
                    yield (a, b, c), rhs_ab, rhs_bc

    def overlap_count(self) -> int:
        """The number of overlaps, resolved or not."""
        return sum(1 for _ in self._overlap_pairs())

    def unresolved_overlaps(self):
        """The overlaps whose two reductions differ; empty iff confluent.

        Every left-hand side has length 2 and every right-hand word is
        smaller than it under :meth:`AlgebraSpec.word_key`, a
        degree-lexicographic order, so compatible with multiplication and
        well-founded.  For such a system Bergman's diamond lemma (G.
        Bergman, *The diamond lemma for ring theory*, Adv. Math. 29, 1978)
        makes confluence in every degree equivalent to the resolvability of
        its ambiguities.  Two distinct length-2 left-hand sides cannot
        contain one another, so the only ambiguities are the overlaps
        ``abc`` with ``ab`` and ``bc`` both left-hand sides, and each is
        reduced from both redexes: ``nf_a`` is the normal form of
        ``rhs(ab)*c`` and ``nf_b`` that of ``a*rhs(bc)``.  Equal normal
        forms resolve the overlap; distinct ones are two normal forms of
        one element, so the system is not confluent.  An empty list
        therefore certifies that every element has one normal form and that
        ``normal_form(a * b) == normal_form(normal_form(a) * normal_form(b))``.

        Computed on the first call and kept, as a list of
        :class:`OverlapWitness` in lexicographic order of the overlaps.
        """
        if self._overlaps is None:
            gen = [self.ambient.word_element((g,)) for g in range(len(self.ambient.generators))]
            out = []
            for (a, b, c), rhs_ab, rhs_bc in self._overlap_pairs():
                nf_a = self.normal_form(rhs_ab * gen[c])
                nf_b = self.normal_form(gen[a] * rhs_bc)
                if nf_a != nf_b:
                    out.append(OverlapWitness((a, b, c), nf_a, nf_b))
            self._overlaps = out
        return self._overlaps

    def degree2_normal_words(self):
        return [w for w in self.ambient.degree2_words() if w not in self.rules]

    def normal_form(self, e: Element) -> Element:
        """Reduce until no word contains a rule lhs.

        Strategy: rewrite the first reducible factor of the largest reducible
        word.  Termination is guaranteed because every rhs word is strictly
        smaller than its lhs in the multiplication-compatible word order.

        The reducible words wait in a heap, largest first in the order of
        :meth:`AlgebraSpec.word_key`, each with its first redex, found once
        when the word enters the terms.  A step only produces words smaller
        than the word it rewrites, which is the largest reducible word
        present, so a popped word never comes back; an entry whose word has
        cancelled meanwhile is skipped.  The steps, their coefficient
        products and the result are therefore those of rescanning every
        term for the largest reducible word before each step.

        The input's coefficients are nonzero, each new word gets a product
        of two nonzero scalars and each sum that cancels is deleted, so the
        result is built without a zero scan and only sorted.
        """
        if e.algebra is not self.ambient:
            raise ValueError("element belongs to a different algebra")
        rules = self.rules
        down = self._down.__getitem__
        terms = dict(e.terms)
        heap = []

        def push(w):
            for i in range(len(w) - 1):
                if w[i : i + 2] in rules:
                    heappush(heap, (-len(w), list(map(down, w)), w, i))
                    return

        for w in terms:
            push(w)
        while heap:
            _len, _key, w, i = heappop(heap)
            c = terms.pop(w, None)
            if c is None:
                continue
            pre, post = w[:i], w[i + 2 :]
            for mid, c2 in rules[w[i : i + 2]].terms.items():
                v = pre + mid + post
                old = terms.get(v)
                if old is None:
                    terms[v] = c * c2
                    push(v)
                else:
                    s = old + c * c2
                    if s:
                        terms[v] = s
                    else:
                        del terms[v]
        return from_nonzero_terms(self.ambient, terms)


def orient(spec: AlgebraSpec) -> RuleSystem:
    """The rule system of a quadratic presentation, built on the first call.

    Relations sharing a leading word are inter-reduced first (full reduced
    echelon form, pivot = largest word, unit pivot required), then each
    surviving row `lhs + tail` becomes the rule `lhs -> -tail`.

    The result is kept on ``spec`` and returned by every later call; after
    that, :meth:`AlgebraSpec.add_relation` refuses, since the kept rules
    would go stale.  A failed orientation keeps nothing.
    """
    if spec._rules is not None:
        return spec._rules
    for fam_a, fam_b in itertools.combinations(sorted(spec.families()), 2):
        if spec.cross(fam_a, fam_b) is None:
            raise OrientationFailure(
                f"no cross sign declared for families {fam_a!r} and {fam_b!r}"
            )

    for r in spec.relations:
        if not r.is_homogeneous(2) or r.is_zero():
            raise OrientationFailure(f"relation {r} is not homogeneous of degree 2")

    key = spec.word_key
    pending = list(spec.relations)
    solved = {}  # lhs word -> monic pivot Element (lhs + tail)
    while pending:
        lead = max((e.leading_word() for e in pending), key=key)
        pivot = None
        for e in pending:
            if e.leading_word() == lead and e.terms[lead].is_unit():
                pivot = e
                break
        if pivot is None:
            culprit = next(e for e in pending if e.leading_word() == lead)
            raise OrientationFailure(
                f"leading coefficient {culprit.terms[lead]} of word "
                f"{spec.word_str(lead)} is not a unit"
            )
        pending.remove(pivot)
        try:
            pivot = pivot.scale(pivot.terms[lead].try_inv())
        except NotAUnit:  # pragma: no cover - guarded above
            raise OrientationFailure("non-unit pivot")
        reduced = []
        for e in pending:
            c = e.terms.get(lead)
            if c:
                e = e - pivot.scale(c)
            if not e.is_zero():
                reduced.append(e)
        pending = reduced
        for w, p in list(solved.items()):
            c = p.terms.get(lead)
            if c:
                solved[w] = p - pivot.scale(c)
        solved[lead] = pivot

    rules = {}
    for lead, p in solved.items():
        tail = Element(spec, {w: c for w, c in p.terms.items() if w != lead})
        rhs = -tail
        for w in rhs.terms:
            if key(w) >= key(lead):
                raise OrientationFailure(
                    f"rule for {spec.word_str(lead)} has a non-decreasing "
                    f"right-hand side word {spec.word_str(w)}"
                )
        rules[lead] = rhs

    for u in spec.generators:
        for v in spec.generators:
            if u.family == v.family or u.prec <= v.prec:
                continue
            lhs = (u.gid, v.gid)
            if lhs in rules:
                continue
            sign = spec.cross(u.family, v.family)
            rules[lhs] = Element(spec, {(v.gid, u.gid): Coeff.rational(sign)})

    system = RuleSystem(spec, rules)
    for r in spec.relations:
        if not system.normal_form(r).is_zero():
            raise OrientationFailure(f"declared relation {r} does not reduce to 0")
    spec._rules = system
    return system


def confluent_rules(spec: AlgebraSpec) -> RuleSystem:
    """The rules of ``spec``, or :class:`NotConfluent` naming its first
    unresolved overlap: without confluence a normal form depends on the
    rewrite order, and a nonzero one proves nothing."""
    rs = orient(spec)
    overlaps = rs.unresolved_overlaps()
    if overlaps:
        raise NotConfluent(f"not confluent: {overlap_summary(overlaps)}")
    return rs


def overlap_summary(witnesses) -> str:
    """The first unresolved overlap and how many more there are."""
    return f"{witnesses[0].describe()} (+{len(witnesses) - 1} more)"
