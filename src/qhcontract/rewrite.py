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

Normal forms are linear: rewriting a word of an element at its first redex,
whatever its coefficient and in whatever order, keeps the sum of
c_w * N(w) over its terms, with N(w) the normal form of the word w alone,
so that sum is the normal form, also on systems that are not confluent,
where the choice of the first redex decides the result.
:meth:`RuleSystem.normal_form` reads each N(w) from one table kept on the
rule system, which :meth:`RuleSystem._word_nf` fills for the words asked.

Products of normal elements, on a certified confluent system, go through
:meth:`RuleSystem.multiply`: a normal word u times a letter g has a redex
only at the junction, and N(u*g) is read from the same table, a structure
constant of the normal-word basis.  ``multiply`` keeps every contribution
to a word of the product as a pair of scalars and sums each word's
products once, in one term dict; ``normal_form`` and ``_word_nf`` add
their products one at a time, since their terms meet on fewer words.

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
table of normal forms lives as long as the algebra.
"""

from __future__ import annotations

import itertools
from math import lcm
from typing import NamedTuple

from .coeffring import Coeff, NotAUnit, QHPoly, _add_products, _reduced, _sum_of_coeff_products
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


# a normal word's coefficient in its own entry; no product with it is formed
_ONE = Coeff.one()


class RuleSystem:
    """Oriented rules of one algebra: 2-letter words to elements of such words."""

    def __init__(self, ambient: AlgebraSpec, rules):
        self.ambient = ambient
        self.rules = dict(rules)
        self._overlaps = None
        # word w -> the terms of N(w), for the words that normal_form and
        # multiply were asked to reduce
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

    def _word_nf(self, w, scratch) -> dict:
        """The terms of N(w), read from the table, else derived and kept.

        N(w) is w when w is normal.  When w's first redex ends the word, N(w)
        is the sum of c * N(w[:-2] + mid) over the terms c * mid of the
        rule.  Otherwise the first redex lies in w[:-1], and so does that of
        every word its rewriting makes, with the last letter g carried
        along, so N(w) is the sum of d * N(z + g) over the terms d * z of
        N(w[:-1]).  Each word met is a prefix of w or a normal word followed
        by one or two letters, whose first redex follows from where it came
        from; none is one of the words in between that rewriting one redex
        at a time makes, of which x^k*y in ``hplane`` has 2^(k+1).  The
        derivation runs on a stack, so no word is too long for it.  The
        table keeps w only; the reducible words met go to ``scratch``, which
        the caller keeps for one call, each when its terms are complete.
        """
        table, rules = self._table, self.rules
        if w in table:
            return table[w]
        # (word, its first redex, its parts once known: each a word, its
        # coefficient and its first redex or None)
        stack = [(w, next((i for i in range(len(w) - 1) if w[i : i + 2] in rules), None), None)]
        while stack:
            v, i, parts = stack[-1]
            if v in scratch:
                stack.pop()
            elif i is None:  # w itself, normal
                scratch[v] = {v: _ONE}
            elif parts is None:
                # v[:i] and every word of N(v[:-1]) are normal, and rules have
                # 2-letter words, so each part's first redex follows from i
                if i == len(v) - 2:
                    pre = v[:i]
                    parts = [(pre + mid, c, i - 1 if i and (pre[-1], mid[0]) in rules
                              else i if mid in rules else None)
                             for mid, c in rules[v[i:]].terms.items()]
                else:
                    head = table.get(v[:-1], scratch.get(v[:-1]))
                    if head is None:
                        stack.append((v[:-1], i, None))
                        continue
                    g = v[-1]
                    parts = [(z + (g,), d, len(z) - 1 if z and (z[-1], g) in rules else None)
                             for z, d in head.items()]
                stack[-1] = v, i, parts
                stack += [(x, j, None) for x, _, j in parts
                          if j is not None and x not in table and x not in scratch]
            else:
                acc = {}
                for x, c, j in parts:
                    if j is None:
                        _accumulate(acc, x, c)
                    else:
                        for y, c2 in table.get(x, scratch.get(x)).items():
                            _accumulate(acc, y, c if c2 is _ONE else c * c2)
                scratch[v] = acc
        entry = table[w] = scratch.pop(w)
        return entry

    def degree2_normal_words(self):
        return [w for w in self.ambient.degree2_words() if w not in self.rules]

    def multiply(self, a: Element, b: Element) -> Element:
        """The normal form of ``a * b`` for normal ``a`` and ``b``, on a
        certified confluent system; :class:`NotConfluent` on any other.

        Each word v of ``b`` is appended to ``a`` one letter g at a time.
        A normal word u times a normal word ``v[k:]`` has a redex only at
        the junction, since every left-hand side has length 2: if
        ``(u[-1], g)`` is no left-hand side, ``u*v[k:]`` is normal and
        done; otherwise each word of N(u*g), from the table of
        :meth:`normal_form`, goes on with the next letter.  Confluence makes
        ``nf(x * g) = nf(nf(x) * g)``, so the sum is the normal form of the
        product, and each entry is a structure constant of the normal words.

        Each contribution to a word of the result is kept as a pair (x, y)
        of scalars with product x * y: x is the coefficient of u, and y
        that of v, times the entry's coefficient where the last letter
        meets a redex; after the first letter of v, v's coefficient is in
        x already and y is 1.  The pairs of each word are summed once, in
        one term dict, by :func:`~qhcontract.coeffring._sum_of_coeff_products`,
        and a word with one pair takes the plain product.  The words in
        between, of a v with more than one letter, keep canonical
        coefficients, because they are multiplied again.
        """
        self.require_confluent()
        if a.algebra is not self.ambient or b.algebra is not self.ambient:
            raise ValueError("element belongs to a different algebra")
        rules, table, word_nf = self.rules, self._table, self._word_nf
        # word -> the (x, y) pairs whose products x * y sum to its coefficient
        scratch, pairs = {}, {}
        for v, cv in b.terms.items():
            # each word u of cur has the coefficient c * y
            cur, y, last = a.terms, cv, len(v) - 1
            for k, g in enumerate(v):
                nxt = {}
                for u, c in cur.items():
                    if u and (u[-1], g) in rules:
                        ug = u + (g,)
                        entry = table.get(ug) or word_nf(ug, scratch)
                        if k == last:
                            for w, c2 in entry.items():
                                _append(pairs, w, (c, c2 if y is _ONE else y * c2))
                        else:
                            if y is not _ONE:
                                c = c * y
                            for w, c2 in entry.items():
                                _accumulate(nxt, w, c if c2 is _ONE else c * c2)
                    else:
                        _append(pairs, u + v[k:], (c, y))
                cur, y = nxt, _ONE
            for u, c in cur.items():  # v is the empty word
                _append(pairs, u, (c, y))
        out = {}
        for w, ps in pairs.items():
            if len(ps) > 1:
                if c := _sum_of_coeff_products(ps):
                    out[w] = c
            else:
                (x, y), = ps
                out[w] = x if y is _ONE else x * y
        return from_nonzero_terms(self.ambient, out)

    def normal_form(self, e: Element) -> Element:
        """Reduce until no word contains a rule lhs: the sum of c_w * N(w)
        over the terms of ``e``, with each N(w) from :meth:`_word_nf`, on
        any rule system what rewriting the first redex of the largest
        reducible word gives, rescanning every term before each step.  Each
        new word gets a product of two nonzero scalars and each sum that
        cancels is deleted, so the result needs no zero scan, only a sort.
        """
        if e.algebra is not self.ambient:
            raise ValueError("element belongs to a different algebra")
        table, word_nf = self._table, self._word_nf
        scratch, out = {}, {}
        for w, c in e.terms.items():
            for v, c2 in (table.get(w) or word_nf(w, scratch)).items():
                _accumulate(out, v, c if c2 is _ONE else c * c2)
        return from_nonzero_terms(self.ambient, out)


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


def _append(pairs, w, p) -> None:
    """Append ``p`` to the list of ``w`` in ``pairs``, starting it if new."""
    ps = pairs.get(w)
    if ps is None:
        pairs[w] = [p]
    else:
        ps.append(p)


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
