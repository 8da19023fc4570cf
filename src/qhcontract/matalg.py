"""Matrices over the scalars and over the algebra; tensor index calculus.

ScalMat holds Coeff entries (the change-of-basis matrix g and the
R-matrices), AlgMat holds Element entries (the generator matrices and
their tensor embeddings).  The two tensor-leg embeddings and the three
QYBE legs are spelled out with explicit Kronecker deltas and insert no
signs: all sign effects come from the relation rewriting, with the rule
system that :func:`~qhcontract.rewrite.orient` keeps for the matrix's
algebra.  :meth:`ScalMat.inverse` runs the fraction-free elimination of
:mod:`~qhcontract.rewrite` on ``[A | I]``.
"""

from __future__ import annotations

from .coeffring import Coeff, NotAUnit, PoleAtQ1, coeff
from .rewrite import _back_substitute, _bareiss, _clear_row, orient
from .superalgebra import AlgebraSpec, Element


class NotInvertible(Exception):
    """The matrix is singular or its determinant is not a unit."""


class ScalMat:
    """Square matrix of Coeff entries."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = [[coeff(c) for c in row] for row in rows]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        self.n = n
        self.rows = rows

    @classmethod
    def identity(cls, n: int) -> "ScalMat":
        return cls(
            [[Coeff.one() if i == j else Coeff.zero() for j in range(n)] for i in range(n)]
        )

    @classmethod
    def zero(cls, n: int) -> "ScalMat":
        return cls([[Coeff.zero()] * n for _ in range(n)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalMat):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    __hash__ = None

    def is_zero(self) -> bool:
        return all(c.is_zero() for row in self.rows for c in row)

    def __add__(self, other: "ScalMat") -> "ScalMat":
        self._check(other)
        return ScalMat(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "ScalMat") -> "ScalMat":
        self._check(other)
        return ScalMat(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __neg__(self) -> "ScalMat":
        return ScalMat([[-c for c in row] for row in self.rows])

    def _check(self, other: "ScalMat") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __mul__(self, other: "ScalMat") -> "ScalMat":
        self._check(other)
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                s = Coeff.zero()
                for k in range(n):
                    s = s + self.rows[i][k] * other.rows[k][j]
                row.append(s)
            out.append(row)
        return ScalMat(out)

    def scale(self, c) -> "ScalMat":
        c = coeff(c)
        return ScalMat([[e * c for e in row] for row in self.rows])

    def kron(self, other: "ScalMat") -> "ScalMat":
        """Kronecker product, row/col index (i,j) -> i*other.n + j."""
        n, m = self.n, other.n
        out = [[None] * (n * m) for _ in range(n * m)]
        for i in range(n):
            for j in range(m):
                for k in range(n):
                    for l in range(m):
                        out[i * m + j][k * m + l] = self.rows[i][k] * other.rows[j][l]
        return ScalMat(out)

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
        return ScalMat([[Coeff(y) * inv_det for y in row[n:]] for row in out])

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
    """R12 R13 R23 - R23 R13 R12 on the triple tensor product.

    The three legs are built by index calculus on a 4x4 matrix acting on a
    2x2 tensor square; the identity holds iff the returned 8x8 matrix is 0.
    """
    if r.n != 4:
        raise ValueError("QYBE check needs a 4x4 matrix")
    zero, one = Coeff.zero(), Coeff.one()
    idx3 = [(i, j, k) for i in range(2) for j in range(2) for k in range(2)]
    r12 = ScalMat.zero(8).rows
    r13 = ScalMat.zero(8).rows
    r23 = ScalMat.zero(8).rows
    for a, (i, j, k) in enumerate(idx3):
        for b, (l, m, n) in enumerate(idx3):
            r12[a][b] = r.rows[2 * i + j][2 * l + m] * (one if k == n else zero)
            r13[a][b] = r.rows[2 * i + k][2 * l + n] * (one if j == m else zero)
            r23[a][b] = (one if i == l else zero) * r.rows[2 * j + k][2 * m + n]
    m12, m13, m23 = ScalMat(r12), ScalMat(r13), ScalMat(r23)
    return m12 * m13 * m23 - m23 * m13 * m12


class AlgMat:
    """Square matrix with Element entries sharing one ambient algebra."""

    __slots__ = ("algebra", "n", "rows")

    def __init__(self, algebra: AlgebraSpec, rows):
        self.algebra = algebra
        self.rows = [list(row) for row in rows]
        self.n = len(self.rows)
        for row in self.rows:
            if len(row) != self.n:
                raise ValueError("matrix must be square")
            for e in row:
                if not isinstance(e, Element) or e.algebra is not algebra:
                    raise ValueError("entries must be elements of the ambient algebra")

    @classmethod
    def identity(cls, algebra: AlgebraSpec, n: int) -> "AlgMat":
        return cls(
            algebra,
            [
                [algebra.unit() if i == j else algebra.zero() for j in range(n)]
                for i in range(n)
            ],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgMat):
            return NotImplemented
        return (
            self.algebra is other.algebra and self.n == other.n and self.rows == other.rows
        )

    __hash__ = None

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    def _check(self, other: "AlgMat") -> None:
        if self.algebra is not other.algebra or self.n != other.n:
            raise ValueError("matrix mismatch")

    def __add__(self, other: "AlgMat") -> "AlgMat":
        self._check(other)
        return AlgMat(
            self.algebra,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def __sub__(self, other: "AlgMat") -> "AlgMat":
        self._check(other)
        return AlgMat(
            self.algebra,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def __neg__(self) -> "AlgMat":
        return AlgMat(self.algebra, [[-e for e in row] for row in self.rows])

    def mat_mul(self, other: "AlgMat") -> "AlgMat":
        """Row-by-column product of free products; entry order is preserved."""
        self._check(other)
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                s = self.algebra.zero()
                for k in range(n):
                    s = s + self.rows[i][k].free_mul(other.rows[k][j])
                row.append(s)
            out.append(row)
        return AlgMat(self.algebra, out)

    __mul__ = mat_mul

    def scale(self, c) -> "AlgMat":
        return AlgMat(self.algebra, [[e.scale(c) for e in row] for row in self.rows])

    def normal_form(self) -> "AlgMat":
        """Every entry in normal form under the rules of the algebra."""
        rs = orient(self.algebra)
        return AlgMat(self.algebra, [[rs.normal_form(e) for e in row] for row in self.rows])

    def nonzero_entries(self):
        return [
            (i + 1, j + 1, e)
            for i, row in enumerate(self.rows)
            for j, e in enumerate(row)
            if not e.is_zero()
        ]

    def __str__(self) -> str:
        lines = []
        for i, row in enumerate(self.rows):
            for j, e in enumerate(row):
                lines.append(f"({i + 1},{j + 1}): {e}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"AlgMat({self.algebra.name}, {self.n}x{self.n})"


def _lift(r: ScalMat, algebra: AlgebraSpec) -> AlgMat:
    """The scalar matrix ``r`` as a matrix of scalars of ``algebra``."""
    return AlgMat(algebra, [[algebra.scalar(c) for c in row] for row in r.rows])


def embed1(a: AlgMat) -> AlgMat:
    """First tensor leg: entry[(i,j),(k,l)] = A[i][k] * delta(j,l), ungraded."""
    if a.n != 2:
        raise ValueError("embedding is defined for 2x2 matrices")
    alg = a.algebra
    out = [[alg.zero()] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    if j == l:
                        out[2 * i + j][2 * k + l] = a.rows[i][k]
    return AlgMat(alg, out)


def embed2(a: AlgMat) -> AlgMat:
    """Second tensor leg: entry[(i,j),(k,l)] = delta(i,k) * A[j][l], ungraded."""
    if a.n != 2:
        raise ValueError("embedding is defined for 2x2 matrices")
    alg = a.algebra
    out = [[alg.zero()] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    if i == k:
                        out[2 * i + j][2 * k + l] = a.rows[j][l]
    return AlgMat(alg, out)


def rtt_residual(r: ScalMat, a: AlgMat, sign: int) -> AlgMat:
    """Normal form of R*A1*A2 - sign*A2*A1*R entrywise, in the algebra of A.

    The identity R A1 A2 = sign * A2 A1 R holds iff every entry of the
    result is zero.  Both anticommuting-entry identities in scope use
    sign = -1.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    a1 = embed1(a)
    a2 = embed2(a)
    lifted = _lift(r, a.algebra)
    lhs = lifted.mat_mul(a1.mat_mul(a2))
    rhs = a2.mat_mul(a1).mat_mul(lifted).scale(sign)
    return (lhs - rhs).normal_form()
