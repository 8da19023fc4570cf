"""Matrices over the scalars and over the algebra; tensor index calculus.

ScalMat holds Coeff entries (the change-of-basis matrix g and the
R-matrices), AlgMat holds Element entries (the generator matrices); both
share the arithmetic of :class:`Matrix`.  :meth:`Matrix.on_legs` places a
matrix on chosen legs of a tensor power by picking entries, so the
tensor embeddings and the QYBE legs insert no signs: all sign effects
come from the relation rewriting, with the rule system that
:func:`~qhcontract.rewrite.orient` keeps for the matrix's algebra.
:meth:`ScalMat.inverse` runs the fraction-free elimination of
:mod:`~qhcontract.rewrite` on ``[A | I]``.
"""

from __future__ import annotations

import itertools

from .coeffring import Coeff, NotAUnit, PoleAtQ1, coeff
from .rewrite import _back_substitute, _bareiss, _clear_row, orient
from .superalgebra import AlgebraSpec, Element


class NotInvertible(Exception):
    """The matrix is singular or its determinant is not a unit."""


class Matrix:
    """Square matrix; a subclass gives its zero entry and builds its kind."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        self.rows = [list(row) for row in rows]
        self.n = len(self.rows)
        if any(len(row) != self.n for row in self.rows):
            raise ValueError("matrix must be square")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    __hash__ = None

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    def _check(self, other) -> None:
        if type(other) is not type(self) or self.n != other.n:
            raise ValueError(f"matrix mismatch: {self!r} vs {other!r}")

    def __add__(self, other):
        self._check(other)
        return self._new([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._check(other)
        return self._new([[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __mul__(self, other):
        """Row-by-column product; the entries keep their order."""
        self._check(other)
        cols = list(zip(*other.rows))
        out = []
        for row in self.rows:
            new = []
            for col in cols:
                s = self._zero()
                for a, b in zip(row, col):
                    s = s + a * b
                new.append(s)
            out.append(new)
        return self._new(out)

    def scale(self, c):
        c = coeff(c)
        return self._new([[e * c for e in row] for row in self.rows])

    def on_legs(self, legs, k: int):
        """This n^r x n^r matrix on the r tensor legs ``legs`` of a k-fold
        tensor power, the identity on the others.

        Its t-th factor goes to leg ``legs[t]``; legs count from 0, the
        most significant digit of an index.  A size that is not an r-th
        power raises ValueError.
        """
        r = len(legs)
        n = round(self.n ** (1 / r))
        if n ** r != self.n or len(set(legs)) != r or not set(legs) <= set(range(k)):
            raise ValueError(f"cannot place a {self.n}x{self.n} matrix on legs {legs} of {k}")
        others = [leg for leg in range(k) if leg not in legs]
        index = list(itertools.product(range(n), repeat=k))
        pos = [sum(t[leg] * n ** (r - 1 - s) for s, leg in enumerate(legs)) for t in index]
        rest = [[t[leg] for leg in others] for t in index]
        zero = self._zero()
        return self._new([[self.rows[pos[a]][pos[b]] if rest[a] == rest[b] else zero
                           for b in range(len(index))] for a in range(len(index))])


class ScalMat(Matrix):
    """Square matrix of Coeff entries."""

    __slots__ = ()

    def __init__(self, rows):
        super().__init__([[coeff(c) for c in row] for row in rows])

    def _new(self, rows) -> "ScalMat":
        return ScalMat(rows)

    def _zero(self) -> Coeff:
        return Coeff.zero()

    @classmethod
    def identity(cls, n: int) -> "ScalMat":
        return cls(
            [[Coeff.one() if i == j else Coeff.zero() for j in range(n)] for i in range(n)]
        )

    def limit_q1(self) -> "ScalMat":
        out = []
        for i, row in enumerate(self.rows):
            new = []
            for j, c in enumerate(row):
                try:
                    new.append(c.limit_q1())
                except PoleAtQ1 as exc:
                    raise PoleAtQ1(f"entry ({i + 1},{j + 1}): {exc}") from None
            out.append(new)
        return ScalMat(out)

    def inverse(self) -> "ScalMat":
        """Exact inverse over the localized ring.

        One Bareiss elimination of the lifted rows of ``[A | I]`` decides
        it: the last pivot is det A times a unit, so A is invertible
        exactly when the rank is n and that pivot is a unit.  Fraction-free
        back-substitution then gives the inverse times that pivot.
        """
        n = self.n
        eye = ScalMat.identity(n).rows
        rank, m = _bareiss([_clear_row(row + e) for row, e in zip(self.rows, eye)], n)
        if rank < n:
            raise NotInvertible("the matrix is singular")
        det, out = _back_substitute(m, range(n))
        try:
            inv_det = Coeff(det).try_inv()
        except NotAUnit:
            raise NotInvertible("the determinant is not a unit") from None
        zero = Coeff.zero()
        return ScalMat([[Coeff(row[j]) * inv_det if j in row else zero for j in range(n, 2 * n)]
                        for row in out])

    def entries_str(self):
        """The nonzero entries as ``(i,j): value`` strings, row by row."""
        return [
            f"({i + 1},{j + 1}): {c}"
            for i, row in enumerate(self.rows)
            for j, c in enumerate(row)
            if not c.is_zero()
        ]

    def __str__(self) -> str:
        cells = [[str(c) for c in row] for row in self.rows]
        widths = [max(len(cells[i][j]) for i in range(self.n)) for j in range(self.n)]
        lines = []
        for row in cells:
            lines.append("[ " + "  ".join(s.rjust(w) for s, w in zip(row, widths)) + " ]")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"ScalMat({self.n}x{self.n})"


def similarity(gg: ScalMat, r: ScalMat) -> ScalMat:
    """Exact conjugate gg^-1 * r * gg."""
    return gg.inverse() * r * gg


def qybe_residual(r: ScalMat) -> ScalMat:
    """R12 R13 R23 - R23 R13 R12 for an n^2 x n^2 matrix R; the equation
    holds iff the returned n^3 x n^3 matrix is 0."""
    r12, r13, r23 = (r.on_legs(legs, 3) for legs in ((0, 1), (0, 2), (1, 2)))
    return r12 * r13 * r23 - r23 * r13 * r12


class AlgMat(Matrix):
    """Square matrix with Element entries sharing one ambient algebra."""

    __slots__ = ("algebra",)

    def __init__(self, algebra: AlgebraSpec, rows):
        self.algebra = algebra
        super().__init__(rows)
        for row in self.rows:
            for e in row:
                if not isinstance(e, Element) or e.algebra is not algebra:
                    raise ValueError("entries must be elements of the ambient algebra")

    def _new(self, rows) -> "AlgMat":
        return AlgMat(self.algebra, rows)

    def _zero(self) -> Element:
        return self.algebra.zero()

    @classmethod
    def identity(cls, algebra: AlgebraSpec, n: int) -> "AlgMat":
        return cls(
            algebra,
            [
                [algebra.unit() if i == j else algebra.zero() for j in range(n)]
                for i in range(n)
            ],
        )

    def normal_form(self) -> "AlgMat":
        """Every entry in normal form under the rules of the algebra."""
        rs = orient(self.algebra)
        return self._new([[rs.normal_form(e) for e in row] for row in self.rows])

    def nonzero_entries(self):
        return [
            (i + 1, j + 1, e)
            for i, row in enumerate(self.rows)
            for j, e in enumerate(row)
            if not e.is_zero()
        ]

    def __repr__(self) -> str:
        return f"AlgMat({self.algebra.name}, {self.n}x{self.n})"


def rtt_residual(r: ScalMat, a: AlgMat, sign: int) -> AlgMat:
    """Normal form of R*A1*A2 - sign*A2*A1*R entrywise, in the algebra of A.

    The identity R A1 A2 = sign * A2 A1 R holds iff every entry of the
    result is zero.  Both anticommuting-entry identities in scope use
    sign = -1.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    a1, a2 = a.on_legs((0,), 2), a.on_legs((1,), 2)
    lifted = AlgMat(a.algebra, [[a.algebra.scalar(c) for c in row] for row in r.rows])
    return (lifted * (a1 * a2) - (a2 * a1 * lifted).scale(sign)).normal_form()
