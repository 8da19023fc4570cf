"""Contraction machinery: substitutions, relation spans, subspace limits.

A relation set is contracted by viewing it as a subspace of the degree-2
word space and taking the limit of that subspace at q = 1, not by taking
naive term-by-term limits: individual substituted relations can carry
(q-1)-poles that only cancel against other relations.  :func:`limit_span`
computes the flat limit in one pass over the (q-1)-primitive rows, last
to first: each row's value at q = 1 is reduced against the values
already accepted; a row whose value stays nonzero is accepted, and
otherwise the vanishing combination, divided by its power of (q-1),
replaces it and is reduced again, or the row is dropped when the
combination is zero.  While the row is independent of the accepted ones,
each replacement strictly lowers the (q-1)-valuation of their wedge, a
number the rows' degrees in q bound; a row replaced more often is
dependent and is dropped too, so the pass ends.  The accepted rows
number the rank of the span over Q(q,h), which the span keeps.

:func:`contract_relations` is the whole pipeline, and the only place that
chains its steps: apply an invertible :class:`Substitution` to the source
relations, take the :func:`limit_span` of their :func:`relation_span` and
compare it with the target relations by :func:`span_equal_over_ring`.
Equal spans over Q(h) are not enough over the ring: the target's
relations must also have a unit minor on their leading words, or it is an
error, for a contraction as for criterion 4's covariance goal.  The suite
and the script ``contract`` command only render its :class:`Contraction`.
:func:`extend` is the homomorphic extension of any generator map, also of
one with images of higher degree.

All linear algebra here is fraction-free over Q[q,h].  Ranks go through
the one Bareiss routine, :func:`~qhcontract.rewrite._bareiss`, which also
orients relations and decides whether a :class:`Substitution`'s matrix is
invertible.  A :class:`RelationSpan` ranks its rows at most once and
keeps the rank with the column order and echelon rows of that
elimination; :func:`span_equal` reduces the other span's rows against
them.  :func:`limit_span` and :func:`span_equal` reduce a sparse row,
``{column: nonzero entry}``, against echelon rows with
:func:`~qhcontract.rewrite._reduce_row`, which skips the Bareiss steps
that would only rescale it; the limit pass keeps a row's value and its
identity entry in one such row and sums each replacement combination
column by column in one term dict.  So a contraction eliminates twice:
the substitution's matrix and the target's rows.  Rows of
localized scalars are lifted to polynomial rows by clearing their unit
denominators and then made primitive (common q, h, (q-1) and rational
factors stripped), which does not change any span; the lifted rows then
have integer coefficients, which the scalar layer stores as plain
``int``.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple

from .coeffring import Coeff, NotAUnit, QHPoly, _sum_of_products, _wrap
from .matalg import ScalMat
from .rewrite import _bareiss, _clear_row, _reduce_row
from .superalgebra import AlgebraSpec, Element


class MissingImage(KeyError):
    """A substitution was given no image for some source generators."""


class BadSubstitution(ValueError):
    """The images given for a substitution do not define an invertible map."""


class DegreeError(ValueError):
    """A relation span was built from non-quadratic relations."""


class Substitution:
    """Invertible linear change of generators, extended homomorphically to words.

    ``images`` maps every source generator id to a nonzero degree-1 element
    of the target algebra; the constructor rejects a partial map
    (:class:`MissingImage`) and a map that is not invertible over the scalars
    (:class:`BadSubstitution`).
    """

    def __init__(self, source: AlgebraSpec, target: AlgebraSpec, images):
        self.source = source
        self.target = target
        self.images = dict(images)
        missing = [g.name for g in source.generators if g.gid not in self.images]
        if missing:
            raise MissingImage(", ".join(missing))
        for gid, img in self.images.items():
            if not isinstance(img, Element) or img.algebra is not target:
                raise BadSubstitution("images must be elements of the target algebra")
            if img.is_zero() or not img.is_homogeneous(1):
                raise BadSubstitution(
                    f"image of {source.generator(gid).name} must be homogeneous of degree 1"
                )
        n = len(source.generators)
        if len(self.images) != n or len(target.generators) != n:
            raise BadSubstitution("invertibility requires a total map between "
                                  "algebras of equal rank")
        # the last pivot of the lifted rows is the determinant times a unit
        rank, m = _bareiss([_clear_row(row) for row in self.matrix().rows], n)
        if rank < n or (m and not Coeff(m[-1][n - 1]).is_unit()):
            raise BadSubstitution("substitution is not invertible over the scalars")

    @classmethod
    def by_name(cls, source: AlgebraSpec, target: AlgebraSpec, images) -> "Substitution":
        """Images keyed by source generator name."""
        return cls(
            source,
            target,
            {source.generator_named(n).gid: img for n, img in images.items()},
        )

    def matrix(self):
        """Coefficient matrix of the induced map on the degree-1 space."""
        n = len(self.source.generators)
        return ScalMat([[self.images[i].coefficient((j,)) for j in range(n)]
                        for i in range(n)])

    def apply(self, e: Element) -> Element:
        """Homomorphic extension: words map to free products of images."""
        if e.algebra is not self.source:
            raise ValueError("element does not belong to the source algebra")
        return extend(e, self.target, self.images)


def extend(e: Element, target: AlgebraSpec, images) -> Element:
    """Image of ``e`` in ``target`` when each generator id ``g`` maps to
    ``images[g]``: every word becomes the free product of its letters' images.
    """
    out = target.zero()
    for w, c in e.terms.items():
        acc = target.scalar(c)
        for gid in w:
            acc = acc.free_mul(images[gid])
        out = out + acc
    return out


class RelationSpan:
    """Rows of degree-2 relation coefficients over a fixed word basis.

    The rows are fixed at construction, so they are lifted to primitive
    polynomial rows and ranked at most once.  The one elimination that
    ranks them, :meth:`rank`'s or :func:`_leading_minor`'s, also leaves
    its column order and echelon rows here, against which
    :func:`span_equal` reduces the rows of another span.
    """

    def __init__(self, algebra: AlgebraSpec, basis, rows):
        self.algebra = algebra
        self.basis = [tuple(w) for w in basis]
        self.rows = [tuple(r) for r in rows]
        for r in self.rows:
            if len(r) != len(self.basis):
                raise ValueError("row length does not match basis")
        self._rank = None
        self._lifted = None
        self._echelon = None

    def rank(self) -> int:
        if self._rank is None:
            self._echelon_rows()
        return self._rank

    def _echelon_rows(self):
        """``(column order, [(pivot column, row), ...])`` of the kept
        elimination, the columns and rows taken in that order; the primitive
        rows are eliminated in basis order when nothing is kept yet."""
        if self._echelon is None:
            n = len(self.basis)
            self._keep(range(n), *_bareiss(self._primitive_rows(), n))
        return self._echelon

    def _keep(self, order, rank, m):
        """Keep the rank and echelon of :func:`_bareiss`'s ``(rank, m)`` on
        the rows with their columns in ``order``."""
        self._rank = rank
        # a pivot row has no key left of its pivot
        self._echelon = (list(order), [(min(row), row) for row in m[:rank]])

    def _primitive_rows(self):
        """The nonzero rows lifted to Q[q,h] and made primitive, computed once.

        Each lifted row is a unit multiple of its row, so the span is the
        same; stripping the common factors keeps the Bareiss minors small.
        """
        if self._lifted is None:
            self._lifted = [_primitive(p) for p in map(_clear_row, self.rows) if any(p)]
        return self._lifted

    def to_elements(self):
        out = []
        for row in self.rows:
            e = Element(self.algebra, dict(zip(self.basis, row)))
            if not e.is_zero():
                out.append(e)
        return out

    def basis_names(self):
        return [
            tuple(self.algebra.generator(g).name for g in w) for w in self.basis
        ]

    def __repr__(self) -> str:
        return f"RelationSpan({len(self.rows)} rows, rank {self.rank()})"


def relation_span(relations, algebra: AlgebraSpec) -> RelationSpan:
    """Coordinates of quadratic relations of ``algebra`` in the full degree-2
    word basis."""
    basis = algebra.degree2_words()
    rows = []
    for r in relations:
        if r.algebra is not algebra:
            raise ValueError("relations belong to different algebras")
        if r.is_zero() or not r.is_homogeneous(2):
            raise DegreeError(f"{r} is not homogeneous of degree 2")
        rows.append([r.coefficient(w) for w in basis])
    return RelationSpan(algebra, basis, rows)


def span_equal(a: RelationSpan, b: RelationSpan) -> bool:
    """True iff both spans have equal rank and every row of ``a`` lies in
    the span of ``b``.

    Each primitive row of ``a`` is reduced against the echelon rows that
    ``b`` kept from the elimination that ranked it; a row of ``a`` is in
    ``b``'s span exactly when it reduces to zero.
    """
    if a.basis_names() != b.basis_names():
        raise ValueError("spans use different bases")
    if a.rank() != b.rank():
        return False
    order, echelon = b._echelon_rows()
    for row in a._primitive_rows():
        row = {k: x for k, j in enumerate(order) if (x := row[j])}
        _reduce_row(row, echelon)
        if row:
            return False
    return True


def limit_span(sp: RelationSpan) -> RelationSpan:
    """Limit of the row span at q = 1, returned over polynomials in h.

    One pass over the primitive rows, last to first.  Each row's value at
    q = 1 is reduced by fraction-free steps against the echelon rows of
    the values accepted so far (:func:`~qhcontract.rewrite._reduce_row`,
    which skips the steps that only rescale), and an identity block,
    which starts as the one entry at ``ncols + i`` of the same sparse row,
    records the reduced value as a combination of the rows.  A row whose
    value stays nonzero is accepted as it is.  Otherwise the combination,
    taken of the rows themselves, has the row first and vanishes at
    q = 1: zero means the row is dependent and is dropped, anything else,
    made primitive, takes the row's place and is reduced again.

    While the row is independent of the accepted rows, each replacement
    lowers the (q-1)-valuation of their wedge with it, and the value is
    accepted once that valuation is 0.  The valuation is at most the
    wedge's degree in q, at most the sum of the q-degrees of the accepted
    rows and of the row as it came, so a row still not accepted after that
    many replacements is dependent and is dropped: a dependence with a
    coefficient like 1/(q+1) never gives a zero combination.  The accepted
    rows number the rank of ``sp`` over Q(q,h), which ``sp`` keeps; the
    span returned keeps it too, with its primitive rows.
    """
    # the rows as sparse rows, {column: nonzero entry}
    rows = [{j: p for j, p in enumerate(row) if p} for row in sp._primitive_rows()]
    n, ncols = len(rows), len(sp.basis)
    zero, one = QHPoly.zero(), QHPoly.one()
    echelon = []  # (pivot column, reduced value and identity block) per accepted row
    kept = []
    kept_qdeg = 0  # sum of the accepted rows' q-degrees
    for i in reversed(range(n)):
        # an independent row is accepted within this many attempts
        for _ in range(_qdeg(rows[i].values()) + kept_qdeg + 1):
            value = {j: x for j, p in rows[i].items() if (x := p.at_q1())}
            # one sparse row: the value, then the identity block at ncols + i
            v = dict(value)
            v[ncols + i] = one
            _reduce_row(v, echelon)
            # the identity entry of row i stays nonzero, so v has a key
            col = min(v)
            if col < ncols:
                echelon.append((col, v))
                kept.append([value.get(j, zero) for j in range(ncols)])
                kept_qdeg += _qdeg(rows[i].values())
                break
            combo = _combination(v, rows, ncols)
            if not any(combo):
                break
            rows[i] = {j: p for j, p in enumerate(_primitive(combo)) if p}
    sp._rank = len(kept)
    lifted = [_primitive(value) for value in reversed(kept)]
    out = RelationSpan(sp.algebra, sp.basis, [[Coeff(p) for p in row] for row in lifted])
    # the kept values are independent: their reductions are the echelon rows;
    # the rows are q-free and primitive, so they are their own lift
    out._rank = len(kept)
    out._lifted = lifted
    return out


class Contraction(NamedTuple):
    """The spans of one contraction and whether the limit hits the target."""

    substituted: RelationSpan
    limit: RelationSpan
    target: RelationSpan
    ok: bool


def contract_relations(sub: Substitution) -> Contraction:
    """Substitute the source relations, take the span's limit at q = 1 and
    compare it with the span of the target algebra's relations.

    Raises :class:`NotAUnit` when the spans agree but the target's minor on
    its leading words is not a unit (:func:`span_equal_over_ring`): h is not
    a unit, so the target may span the limit over Q(h) only, as
    ``h * (x*y - y*x - h*y^2)`` does.
    """
    substituted = relation_span(map(sub.apply, sub.source.relations), sub.target)
    limit = limit_span(substituted)
    target = relation_span(sub.target.relations, sub.target)
    ok = span_equal_over_ring(limit, target, "the limit")
    return Contraction(substituted, limit, target, ok)


def span_equal_over_ring(a: RelationSpan, target: RelationSpan, what: str) -> bool:
    """:func:`span_equal` of ``a`` and ``target``, or :class:`NotAUnit` when
    the spans agree but the target's minor on its leading words is not a
    unit, so that its relations span ``what`` over Q(h) only.

    The target is eliminated once: the elimination that gives the minor
    is the one that ``span_equal`` reduces against.
    """
    minor = _leading_minor(target)
    ok = span_equal(a, target)
    if ok and not Coeff(minor).is_unit():
        raise NotAUnit(f"minor {minor} of the target relations on their leading words "
                       f"is not a unit: they span {what} over Q(h) only")
    return ok


# -- fraction-free helpers ----------------------------------------------------


def _leading_minor(sp: RelationSpan) -> QHPoly:
    """The last Bareiss pivot of ``sp``'s rows, lifted but not made
    primitive, on the words largest first as in
    :func:`~qhcontract.rewrite.orient`; ``sp`` keeps the rank and the
    echelon."""
    order = sorted(range(len(sp.basis)), key=lambda j: sp.algebra.word_key(sp.basis[j]),
                   reverse=True)
    sp._keep(order, *_bareiss([_clear_row([row[j] for j in order]) for row in sp.rows],
                              len(order)))
    if not sp._rank:
        return QHPoly.one()
    col, row = sp._echelon[1][-1]
    return row[col]


def _combination(block, rows, ncols):
    """The sum of t * ``rows[k - ncols]`` over the entries t at k of
    ``block``, as a dense row: the products of each column are summed in
    one term dict, and no product t * entry is built as a polynomial."""
    pairs = {}
    for k, t in block.items():
        for j, p in rows[k - ncols].items():
            pairs.setdefault(j, []).append((t, p))
    zero = QHPoly.zero()
    return [_sum_of_products(pairs[j]) if j in pairs else zero for j in range(ncols)]


def _qdeg(entries) -> int:
    """Largest power of q in the polynomials ``entries``."""
    return max((a for p in entries for a, _b in p.terms), default=0)


def _primitive(row):
    """Strip common q, h, (q-1) and rational content; normalize the leading sign.

    All stripped factors are units of the ambient fraction field, so the row
    span is unchanged; only the (q-1) part matters for the evaluation at
    q = 1, the rest keeps the output canonical.  The output has integer
    coefficients with content 1.
    """
    nz = [p for p in row if p]
    if not nz:
        return list(row)
    # the least monomial of a polynomial has its least q-degree
    s = min(min(p.terms)[0] for p in nz)
    sh = min(b for p in nz for _a, b in p.terms)
    num = gcd(*(c for p in nz for c in p.terms.values()))
    den = lcm(*(p.den for p in nz))
    # dividing by q, h or (q-1) keeps the content (Gauss's lemma) and the
    # sign of a leading coefficient, so one pass strips q, h and the content
    # and fixes the sign; the content divides every numerator, so each entry
    # has integer coefficients over den 1
    if nz[0].leading()[1] < 0:
        num = -num
    if (s, sh, num, den) != (0, 0, 1, 1):
        row = [_wrap({(a - s, b - sh): c // num * (den // p.den) for (a, b), c in p.terms.items()})
               if p else p for p in row]
    while (quo := _div_q1_row(row)) is not None:
        row = quo
    return list(row)


def _div_q1_row(row):
    """Every entry of ``row`` divided by (q-1), or None at the first entry
    that (q-1) does not divide."""
    out = []
    for p in row:
        if p and (p := p.div_q1()) is None:
            return None
        out.append(p)
    return out
