"""Orient quadratic relation sets into terminating rewrite rules.

Orientation reads the rules off the relations' reduced row echelon form
over the degree-2 words, largest word first, from :func:`_bareiss`, the
package's one fraction-free elimination, at the end of this module; the
subspace limit and the span comparison reduce single rows against kept
echelon rows with :func:`_reduce_row`, which takes its row step,
:func:`_reduce`, only where the row's pivot-column entry is nonzero.  The
elimination keeps sparse rows, ``{column: nonzero entry}``, whose pivot is
their smallest key, never their first in dict order; its one step visits
only the columns that hold an entry and builds each new entry once, from
both of its products summed in one term dict.  Each pivot word becomes a
rule left-hand side; the relations' minor on these words must be a unit.
Every rhs word is smaller than its lhs, so reduction terminates.
Cross-family swap rules u*v -> sign * v*u are added for every pair of
generators from distinct families with a declared sign.

Normal forms rewrite the largest reducible word at its first redex until
no word is reducible.  The reducible words wait in a heap ordered by
``AlgebraSpec.word_key``, each with its first redex found once when it
appears, so no step rescans the terms.  The strategy and every normal form
are those of rescanning all terms before each step, also on systems that
are not confluent, where the strategy decides the result.

Products of normal elements, on a certified confluent system, go through
:meth:`RuleSystem.multiply`: a normal word times a letter has a redex only
at the junction, and the normal form of each such product that is not
already normal is a structure constant of the normal-word basis, computed
once by :meth:`RuleSystem.normal_form` and kept in a table on the rule
system.

Confluence is decided once, on first use, by Bergman's diamond lemma:
every rule is quadratic and the word order is degree-lexicographic, so the
system is confluent in every degree exactly when each overlap ``abc``, with
``ab`` and ``bc`` both left-hand sides, reduces to one normal form from
both redexes (:meth:`RuleSystem.unresolved_overlaps`).  Unresolved
overlaps are returned as data; :meth:`RuleSystem.require_confluent` is the
one guard that raises :class:`NotConfluent` for callers whose answer needs
unique normal forms, through :func:`confluent_rules` or ``multiply``.

The rule system belongs to its algebra: :func:`orient` builds it on the
first call and keeps it on the :class:`AlgebraSpec`, whose relations are
frozen from then on, so every caller reduces with the same rules, and the
table of ``multiply`` lives as long as the algebra.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from math import lcm
from typing import NamedTuple

from .coeffring import Coeff, NotAUnit, QHPoly, _add_products, _reduced
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
        # (normal word u, letter g) -> the terms of normal_form(u*g), for
        # u[-1]*g a lhs; filled by multiply
        self._table = {}

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

    def require_confluent(self) -> None:
        """:class:`NotConfluent`, naming the first unresolved overlap, unless
        the system is certified confluent."""
        overlaps = self.unresolved_overlaps()
        if overlaps:
            raise NotConfluent(f"not confluent: {overlap_summary(overlaps)}")

    def _fill(self, u, g) -> dict:
        """The terms of ``normal_form(u*g)``, kept in the table with those of
        every longer suffix of ``u`` times g.

        Each entry is the :meth:`normal_form` of an element equal to its
        product in the quotient: the last letter times g, or the first
        letter of a suffix times the kept entry of the suffix one letter
        shorter.  The second needs few steps when that letter goes in
        front of the entry's words without a rewrite, as it does in a
        normal word; the first would move g through the whole word.
        """
        table, spec = self._table, self.ambient
        i = next((i for i in range(1, len(u)) if (u[i:], g) in table), None)
        if i is None:
            i = len(u) - 1
            table[u[i:], g] = self.normal_form(spec.word_element(u[i:] + (g,))).terms
        for j in reversed(range(i)):
            head = u[j : j + 1]
            shorter = table[u[j + 1 :], g]
            table[u[j:], g] = self.normal_form(
                from_nonzero_terms(spec, {head + w: c for w, c in shorter.items()})).terms
        return table[u, g]

    def degree2_normal_words(self):
        return [w for w in self.ambient.degree2_words() if w not in self.rules]

    def multiply(self, a: Element, b: Element) -> Element:
        """The normal form of ``a * b`` for normal ``a`` and ``b``, on a
        certified confluent system; :class:`NotConfluent` on any other.

        Each word v of ``b`` is appended to ``a`` one letter g at a time.
        A normal word u times a normal word ``v[k:]`` has a redex only at
        the junction, since every left-hand side has length 2: if
        ``(u[-1], g)`` is no left-hand side, ``u*v[k:]`` is normal and
        done; otherwise the normal form of ``u*g`` is read from a table
        kept on the rule system, computed by :meth:`normal_form` on the
        first miss, and each of its words goes on with the next letter.
        Confluence makes the normal form linear and
        ``nf(x * g) = nf(nf(x) * g)``, so the sum is the normal form of the
        product, and each entry is a structure constant of the normal-word
        basis that never goes stale.  The table holds at most one entry per
        normal word and generator, up to the largest degree multiplied.
        """
        self.require_confluent()
        if a.algebra is not self.ambient or b.algebra is not self.ambient:
            raise ValueError("element belongs to a different algebra")
        rules, table = self.rules, self._table
        out = {}
        for v, cv in b.terms.items():
            cur = {u: c * cv for u, c in a.terms.items()}
            for k, g in enumerate(v):
                nxt = {}
                for u, c in cur.items():
                    if u and (u[-1], g) in rules:
                        entry = table.get((u, g))
                        if entry is None:
                            entry = self._fill(u, g)
                        for w, c2 in entry.items():
                            _accumulate(nxt, w, c * c2)
                    else:
                        _accumulate(out, u + v[k:], c)
                cur = nxt
            for w, c in cur.items():
                _accumulate(out, w, c)
        return from_nonzero_terms(self.ambient, out)

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


def _accumulate(terms, w, c) -> None:
    """Add the nonzero ``c`` to the coefficient of ``w`` in ``terms``,
    deleting the word when the sum cancels."""
    old = terms.get(w)
    if old is None:
        terms[w] = c
    else:
        s = old + c
        if s:
            terms[w] = s
        else:
            del terms[w]


def orient(spec: AlgebraSpec) -> RuleSystem:
    """The rule system of a quadratic presentation, built on the first call.

    One :func:`_bareiss` call eliminates the relations' rows on their
    words, largest first, lifted by :func:`_clear_row` but never made
    primitive: h is not a unit, and dividing it out would change what the
    rules derive.  Each pivot word gets the rule ``lhs -> -tail`` from its
    row ``lhs + tail`` of the reduced row echelon form.

    That form is A_P^-1 A for the chosen relations A and their matrix A_P
    on the leading words, whose determinant d is the last pivot.  Its rows
    are ring combinations of A exactly when d is a unit (A_P^-1 is
    adj(A_P) / d; conversely C A_P = I over the ring gives det C * d = 1),
    so a non-unit d is refused.  Unit-first pivots in a stable row order
    pick the relations that unit-pivot Gauss-Jordan elimination picks when
    it succeeds: its rows are the Bareiss rows over the previous pivot, a
    unit, so the same entries are units and the rules are the same.

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

    words = sorted({w for r in spec.relations for w in r.terms}, key=spec.word_key, reverse=True)
    zero = Coeff.zero()
    rows = [_clear_row([r.terms.get(w, zero) for w in words]) for r in spec.relations]
    rank, m = _bareiss(rows, len(words))
    pivots = [min(row) for row in m[:rank]]
    d, reduced = _back_substitute(m, pivots)
    try:
        inv = Coeff(d).try_inv()
    except NotAUnit:
        leads = ", ".join(spec.word_str(words[c]) for c in pivots)
        raise OrientationFailure(f"minor {d} of the relations on their leading words "
                                 f"{leads} is not a unit") from None
    rules = {}
    for c, row in zip(pivots, reduced):
        lhs = words[c]
        rules[lhs] = Element(spec, {words[j]: Coeff(-x) * inv for j, x in row.items() if j != c})

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
    rs.require_confluent()
    return rs


def overlap_summary(witnesses) -> str:
    """The first unresolved overlap and how many more there are."""
    return f"{witnesses[0].describe()} (+{len(witnesses) - 1} more)"


# -- fraction-free elimination --------------------------------------------------


def _clear_row(row):
    """Lift a Coeff row to a QHPoly row by clearing its unit denominators."""
    m = max((c.qpow for c in row), default=0)
    k = max((c.q1pow for c in row), default=0)
    return [c._lift(m, k) if c else c.num for c in row]


class _Row(dict):
    """A sparse row ``{column: nonzero QHPoly}`` of ``width`` columns.

    A slice reads it densely, with the zero polynomial in each column that
    has no key, as the same slice of the dense row would.
    """

    __slots__ = ("width",)

    def __init__(self, row):
        super().__init__((j, x) for j, x in enumerate(row) if x)
        self.width = len(row)

    def __getitem__(self, key):
        if isinstance(key, slice):
            zero = QHPoly.zero()
            return [self.get(j, zero) for j in range(*key.indices(self.width))]
        return dict.__getitem__(self, key)


def _bareiss(rows, ncols):
    """Bareiss elimination of Q[q,h] rows over the fraction field.

    Takes dense rows and eliminates them as sparse :class:`_Row` rows.
    Pivots only in the first ``ncols`` columns and carries the rest along.
    In each column the first remaining row with a unit entry, else with a
    nonzero one, moves up to pivot; the others keep their order.  Returns
    ``(rank, echelon rows)``: the first ``rank`` rows are the pivot rows,
    each with its pivot at its smallest key, and no row below them has a
    key left of ``ncols``, so an identity block carried on the right turns
    those rows into a basis of the left kernel.  The k-th pivot is the
    minor of the first k pivot rows on the pivot columns; for a square
    matrix the last is its determinant up to sign.
    """
    nrows = len(rows)
    m = [_Row(row) for row in rows]
    rank = 0
    prev = QHPoly.one()
    for col in range(ncols):
        if rank == nrows:
            break
        nonzero = [r for r in range(rank, nrows) if col in m[r]]
        if not nonzero:
            continue
        piv = next((r for r in nonzero if Coeff(m[r][col]).is_unit()), nonzero[0])
        m.insert(rank, m.pop(piv))
        top = m[rank]
        for row in m[rank + 1:]:
            _reduce(row, top, col, prev)
        prev = top[col]
        rank += 1
    return rank, m


def _reduce(row, top, col, prev):
    """One fraction-free step on sparse rows, in place: every entry x of
    ``row`` becomes (x * p - c * y) / prev, with p = ``top[col]``, c the
    entry of ``row`` in ``col`` and y the entry of the pivot row ``top`` in
    x's column.  A missing entry is zero and contributes no product, so
    only the columns of ``row``, and of ``top`` when c is nonzero, are
    visited, and the entry in ``col`` becomes zero.

    Both products of a column are summed in one int term dict over their
    common denominator and made one polynomial, which is divided once; the
    division is exact when ``prev`` is the pivot of the step before, as in
    :func:`_bareiss`.
    """
    p = top[col]
    c = row.pop(col, None)
    if c is None:
        if p == prev:
            return  # each entry x becomes x * p / prev = x
        cols, top = list(row), {}  # no entry takes a product c * y
    else:
        cols = row.keys() | top.keys()
        cols.discard(col)
        neg_c, cd = {m: -v for m, v in c.terms.items()}, c.den
    pt, pd = p.terms, p.den
    for j in cols:
        x, y = row.get(j), top.get(j)
        acc = {}
        if y is None:
            den = x.den * pd
            _add_products(acc, x.terms, pt, 1)
        elif x is None:
            den = cd * y.den
            _add_products(acc, neg_c, y.terms, 1)
        else:
            dx, dy = x.den * pd, cd * y.den
            den = lcm(dx, dy)
            _add_products(acc, x.terms, pt, den // dx)
            _add_products(acc, neg_c, y.terms, den // dy)
        if e := _reduced(acc, den).exact_div(prev):
            row[j] = e
        elif x is not None:
            del row[j]


def _reduce_row(row, echelon):
    """Reduce the sparse ``row`` in place against ``echelon``, a list of
    ``(col, top)`` Bareiss pivot rows in elimination order, to what a
    :func:`_reduce` step per pivot row gives.

    A step on a row without an entry in ``col`` only scales the row by
    p / prev, so it is skipped: the row is kept as z with the full-step row
    equal to z * prev / base, where ``base`` is the pivot of the last step
    applied.  A step on an entry c of z gives (p z - c y) / base, which is
    the full-step row itself, so that division is exact.  One scaling by
    last pivot / base at the end restores the full-step row.
    """
    base = prev = QHPoly.one()
    for col, top in echelon:
        prev = top[col]
        if col in row:
            _reduce(row, top, col, base)
            base = prev
    if prev != base:
        row.update({j: (x * prev).exact_div(base) for j, x in row.items()})


def _back_substitute(m, pivots):
    """``(d, d * R)``, with d the last pivot and R the reduced row echelon
    form of the first sparse rows of :func:`_bareiss`'s ``m``, one per
    pivot column, as sparse rows.  d R is the adjugate of their input
    rows' minor matrix times those rows, so every division is exact."""
    if not pivots:
        return QHPoly.one(), []
    d = m[len(pivots) - 1][pivots[-1]]
    out = [None] * len(pivots)
    for i in reversed(range(len(pivots))):
        row = m[i]
        acc = {j: d * x for j, x in row.items()}
        for j in range(i + 1, len(pivots)):
            if (t := row.get(pivots[j])) is not None:
                for k, y in out[j].items():
                    acc[k] = acc[k] - t * y if k in acc else -(t * y)
        piv = row[pivots[i]]
        out[i] = {k: a.exact_div(piv) for k, a in acc.items() if a}
    return d, out
