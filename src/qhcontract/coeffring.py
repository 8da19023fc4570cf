"""Exact scalars: Q[q,h] localized at the powers of q and of (q-1).

Every scalar that shows up in the deformation computations is a polynomial
in q and h divided by a monomial q^m (q-1)^k, so the full rational-function
field is never needed.  Keeping denominators in this restricted shape makes
canonical forms cheap: divisibility by q is visible on exponents,
divisibility by (q-1) is a substitution check, and no multivariate gcd is
ever computed.  Fraction-free linear algebra elsewhere only needs
``exact_div``.

A polynomial stores integer coefficients over one positive common
denominator, so arithmetic is machine-size ``int`` arithmetic and never
builds a ``Fraction`` per coefficient; the contraction pipeline works
almost entirely on polynomials whose denominator is 1.  Accessors that hand
a rational back to the caller (``QHPoly.constant``, ``QHPoly.content``,
``Coeff.as_fraction``) still return ``Fraction``.

Both q and (q-1) are prime in Q[q,h], and a canonical ``Coeff`` numerator
is prime to every factor left in its denominator.  Products and sums use
this to skip the cancellation attempts that cannot succeed.

Most products in rewriting have a factor with a single term, often the
integer 1.  Such a product shifts and scales the other factor's terms: the
shift is injective and a product of nonzero integers is nonzero, so no two
terms meet and none vanishes, and the result needs neither the convolution
nor a zero filter.  A failing division by (q-1) is told apart by its
column sums before any quotient is built: (q-1) divides p exactly when
p(1, h) = 0, that is when the coefficients of every power of h sum to 0.

A sum of many products, as a normal form of a product collects them for
each of its words, is made canonical once: ``_sum_of_products`` for
polynomials and ``_sum_of_coeff_products`` for scalars sum every product
term by term in one int dict over a common denominator, and reduce only
the sum.

All values are immutable after construction and every operation returns a
canonical form, so equality is plain structural comparison.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import comb, gcd, lcm


def power(x, n: int, one, mul=operator.mul):
    """x**n for n >= 0 by square-and-multiply, in about 2*log2(n) products.

    ``one`` is the unit of x's ring and ``mul`` its product, which must be
    associative, so the result equals that of n successive products.
    """
    if n < 0:
        raise ValueError(f"negative exponent {n}")
    out = one
    while n:
        if n & 1:
            out = mul(out, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return out


class NotAUnit(ArithmeticError):
    """Inversion was attempted on a non-unit of the localized ring."""


class PoleAtQ1(ArithmeticError):
    """The q -> 1 limit does not exist for this scalar."""


class NotDivisible(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""


def _rat(x):
    """A rational coefficient in canonical form: int when integral, else Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"cannot use {type(x).__name__} as a rational number")


def _grlex(mono):
    a, b = mono
    return (a + b, a, b)


class QHPoly:
    """Polynomial in q and h over Q, keyed by (q-degree, h-degree).

    The value is ``sum(c * q^a * h^b for (a, b), c in terms.items()) / den``.
    The coefficients in ``terms`` are nonzero ``int``; ``den`` is a positive
    ``int`` with gcd(den, content of the terms) = 1, and 1 for the zero
    polynomial, so two equal polynomials have equal term dicts and equal
    ``den``.  Terms are kept in the order they were produced, since dict
    equality ignores order; :meth:`leading` takes the graded-lexicographic
    maximum and printing sorts.

    The constructor accepts coefficients as ``int`` or ``Fraction``.
    """

    __slots__ = ("terms", "den")

    def __init__(self, terms=None):
        values = [(m, _rat(c)) for m, c in terms.items()] if terms else ()
        den = lcm(*(c.denominator for _m, c in values))
        # reduced fractions over their lcm leave numerators prime to it
        self.terms = {m: c.numerator * (den // c.denominator) for m, c in values if c}
        self.den = den

    @classmethod
    def from_ints(cls, terms, den: int) -> "QHPoly":
        """``sum(c * q^a * h^b for (a, b), c in terms.items()) / den``.

        The coefficients are ``int`` and ``den`` is a positive ``int``;
        unlike the constructor, no coefficient is made a ``Fraction``.
        ``terms`` is left as it is.
        """
        return _reduced(dict(terms), den)

    @classmethod
    def zero(cls) -> "QHPoly":
        return cls()

    @classmethod
    def one(cls) -> "QHPoly":
        return _wrap({(0, 0): 1})

    @classmethod
    def const(cls, r) -> "QHPoly":
        return cls({(0, 0): r})

    @classmethod
    def monomial(cls, qdeg: int, hdeg: int, coeff=1) -> "QHPoly":
        return cls({(qdeg, hdeg): coeff})

    @classmethod
    def q(cls) -> "QHPoly":
        return cls.monomial(1, 0)

    @classmethod
    def h(cls) -> "QHPoly":
        return cls.monomial(0, 1)

    @classmethod
    def q_minus_1(cls) -> "QHPoly":
        return _wrap({(1, 0): 1, (0, 0): -1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, QHPoly) and self.terms == other.terms and self.den == other.den

    __hash__ = None

    def __add__(self, other: "QHPoly") -> "QHPoly":
        if self.den != other.den:
            return self._sum_over_lcm(other, 1)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return _reduced(out, self.den)

    def __neg__(self) -> "QHPoly":
        return _wrap({m: -c for m, c in self.terms.items()}, self.den)

    def __sub__(self, other: "QHPoly") -> "QHPoly":
        if self.den != other.den:
            return self._sum_over_lcm(other, -1)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) - c
        return _reduced(out, self.den)

    def _sum_over_lcm(self, other: "QHPoly", sign: int) -> "QHPoly":
        # self + sign * other with both lifted to the lcm of the denominators
        den = lcm(self.den, other.den)
        s1, s2 = den // self.den, sign * (den // other.den)
        out = {m: c * s1 for m, c in self.terms.items()}
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c * s2
        return _reduced(out, den)

    def __mul__(self, other: "QHPoly") -> "QHPoly":
        x, y = self.terms, other.terms
        if len(y) == 1:
            return _mul_term(self, other)
        if len(x) == 1:
            return _mul_term(other, self)
        return _reduced(_convolve(x, y), self.den * other.den)

    def scaled(self, r) -> "QHPoly":
        r = _rat(r)
        n = r.numerator
        return _reduced({m: c * n for m, c in self.terms.items()}, self.den * r.denominator)

    def leading(self):
        """Largest (monomial, coefficient) in graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=_grlex)
        c = self.terms[m]
        return m, c if self.den == 1 else _rat(Fraction(c, self.den))

    def is_constant(self) -> bool:
        return all(m == (0, 0) for m in self.terms)

    def constant(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return Fraction(self.terms.get((0, 0), 0), self.den)

    def q_valuation(self) -> int:
        """Largest s with q^s dividing the polynomial (0 for the zero poly)."""
        # the least monomial (a, b) has the least q-degree a
        return min(self.terms)[0] if self.terms else 0

    def divide_q(self, s: int) -> "QHPoly":
        if s == 0:
            return self
        if any(a < s for (a, _b) in self.terms):
            raise NotDivisible(f"q^{s} does not divide {self}")
        return _wrap({(a - s, b): c for (a, b), c in self.terms.items()}, self.den)

    def h_valuation(self) -> int:
        """Largest s with h^s dividing the polynomial (0 for the zero poly)."""
        if not self.terms:
            return 0
        return min(b for (_a, b) in self.terms)

    def divide_h(self, s: int) -> "QHPoly":
        if s == 0:
            return self
        if any(b < s for (_a, b) in self.terms):
            raise NotDivisible(f"h^{s} does not divide {self}")
        return _wrap({(a, b - s): c for (a, b), c in self.terms.items()}, self.den)

    def mul_qpow(self, s: int) -> "QHPoly":
        if s == 0:
            return self
        return _wrap({(a + s, b): c for (a, b), c in self.terms.items()}, self.den)

    def mul_q1pow(self, s: int) -> "QHPoly":
        """The product with (q-1)^s, which is primitive: by Gauss's lemma
        the product's content is this polynomial's, so ``den`` stays prime
        to it and no gcd is taken.  Terms can still cancel, as in
        (q+1)(q-1), and are dropped."""
        if s == 0:
            return self
        out = _convolve(self.terms, _q1_power(s).terms)
        if 0 in out.values():
            out = {m: c for m, c in out.items() if c}
        return _wrap(out, self.den)

    def at_q1(self) -> "QHPoly":
        """Substitute q = 1; the result only involves h."""
        out = {}
        for (_a, b), c in self.terms.items():
            m = (0, b)
            out[m] = out.get(m, 0) + c
        return _reduced(out, self.den)

    def div_q1(self):
        """Quotient by (q-1) when the division is exact, else None.

        (q-1) divides p exactly when p(1, h) = 0, that is when the
        coefficients in every h-column sum to 0; only then is the quotient
        computed, column by column by synthetic division, which then leaves
        no remainder.
        """
        sums = {}
        for (_a, b), c in self.terms.items():
            sums[b] = sums.get(b, 0) + c
        if any(sums.values()):
            return None
        cols = {}
        for (a, b), c in self.terms.items():
            cols.setdefault(b, {})[a] = c
        out = {}
        for b, col in cols.items():
            acc = 0
            for a in range(max(col), 0, -1):
                acc += col.get(a, 0)
                if acc:
                    out[(a - 1, b)] = acc
        # (q-1) is primitive, so by Gauss's lemma the quotient keeps the
        # content of self and with it the canonical denominator
        return _wrap(out, self.den)

    def exact_div(self, divisor: "QHPoly") -> "QHPoly":
        """Exact quotient self / divisor; raises NotDivisible otherwise."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        den = self.den
        quo = _int_quotient(self.terms, divisor.terms)
        if quo is None:
            # by Gauss's lemma the quotient by the primitive part of the
            # divisor has integer coefficients whenever the division is exact
            c = gcd(*divisor.terms.values())
            if c != 1:
                quo = _int_quotient(self.terms, {m: v // c for m, v in divisor.terms.items()})
            if quo is None:
                raise NotDivisible(f"{divisor} does not divide {self}")
            den *= c
        if divisor.den != 1:
            quo = {m: v * divisor.den for m, v in quo.items()}
        return _wrap(quo) if den == 1 else _reduced(quo, den)

    def content(self) -> Fraction:
        """gcd of the coefficients (positive; 0 for the zero polynomial)."""
        return Fraction(gcd(*self.terms.values()), self.den) if self.terms else Fraction(0)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for a, b in sorted(self.terms, key=_grlex, reverse=True):
            c = self.terms[(a, b)]
            parts = []
            if a:
                parts.append("q" if a == 1 else f"q^{a}")
            if b:
                parts.append("h" if b == 1 else f"h^{b}")
            mag = abs(c) if self.den == 1 else _rat(Fraction(abs(c), self.den))
            if mag != 1 or not parts:
                parts.insert(0, str(mag))
            body = "*".join(parts)
            chunks.append(("-" if c < 0 else "+", body))
        sign, body = chunks[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in chunks[1:]:
            text += (" - " if sign == "-" else " + ") + body
        return text

    def __repr__(self) -> str:
        return f"QHPoly({self})"


def _wrap(terms, den=1) -> QHPoly:
    """A QHPoly around terms and den that are already canonical, without copying."""
    p = object.__new__(QHPoly)
    p.terms = terms
    p.den = den
    return p


def _reduced(terms, den) -> QHPoly:
    """A QHPoly from int sums over den: zeros dropped, den made prime to the content.

    ``terms`` is a dict the caller has just built and hands over: its zero
    coefficients are deleted in place and it may become the result's dict.
    """
    if 0 in terms.values():
        for m in [m for m, c in terms.items() if not c]:
            del terms[m]
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            terms = {m: c // g for m, c in terms.items()}
            den //= g
    return _wrap(terms, den)


def _convolve(x, y) -> dict:
    """The int term dict of the product of two int term dicts, zero sums kept."""
    out = {}
    get = out.get
    for (a1, b1), c1 in x.items():
        for (a2, b2), c2 in y.items():
            m = (a1 + a2, b1 + b2)
            out[m] = get(m, 0) + c1 * c2
    return out


def _add_products(out, x, y, s) -> None:
    """Add s times the product of the int term dicts x and y into ``out``,
    zero sums kept."""
    get = out.get
    for (a1, b1), c1 in x.items():
        c1 *= s
        for (a2, b2), c2 in y.items():
            m = (a1 + a2, b1 + b2)
            out[m] = get(m, 0) + c1 * c2


def _sum_of_products(pairs) -> QHPoly:
    """The sum of a * b over the polynomial pairs ``(a, b)``.

    The products are summed term by term in one int dict over their common
    denominator, so neither a product nor a partial sum is built as a
    polynomial; one ``_reduced`` makes the result canonical.
    """
    den = lcm(*(a.den * b.den for a, b in pairs))
    out = {}
    for a, b in pairs:
        _add_products(out, a.terms, b.terms, den // (a.den * b.den))
    return _reduced(out, den)


def _mul_term(p: QHPoly, t: QHPoly) -> QHPoly:
    """p * t for a single-term t: p's terms shifted by t's monomial and scaled.

    Distinct monomials stay distinct under the shift and a product of
    nonzero ints is nonzero, so the terms need no merging and no zero
    filter; only a denominator other than 1 needs a gcd.
    """
    ((ta, tb), tc), = t.terms.items()
    if t.den == 1:
        # p's content is prime to p.den, so the product's content shares
        # with p.den what tc does: a gcd of two ints, cancelled before the
        # terms are built (none for +-1)
        g = gcd(p.den, tc)
        tc, den, lowest = tc // g, p.den // g, _wrap
    else:
        den, lowest = p.den * t.den, _reduced
    if ta == tb == 0:
        if tc == 1 and den == p.den:
            return p
        terms = {m: c * tc for m, c in p.terms.items()}
    else:
        terms = {(a + ta, b + tb): c * tc for (a, b), c in p.terms.items()}
    return lowest(terms, den)


def _int_quotient(num, divisor):
    """num / divisor for int term dicts when every quotient coefficient is an int.

    Returns None when the division is not exact or needs a non-integer
    quotient coefficient, and ``num`` itself when the divisor is 1.
    """
    if len(divisor) == 1:  # a monomial: shift and divide each term
        ((da, db), dc), = divisor.items()
        if da == db == 0 and dc == 1:
            return num
        quo = {}
        for (a, b), c in num.items():
            if a < da or b < db:
                return None
            qc, r = divmod(c, dc)
            if r:
                return None
            quo[(a - da, b - db)] = qc
        return quo
    da, db = dm = max(divisor, key=_grlex)
    dc = divisor[dm]
    rem = dict(num)
    quo = {}
    while rem:
        rm = max(rem, key=_grlex)
        qa, qb = rm[0] - da, rm[1] - db
        if qa < 0 or qb < 0:
            return None
        qc, r = divmod(rem[rm], dc)
        if r:
            return None
        # the leading monomial of rem strictly falls, so each quotient
        # monomial is produced exactly once
        quo[(qa, qb)] = qc
        for (a2, b2), c2 in divisor.items():
            m = (a2 + qa, b2 + qb)
            s = rem.get(m, 0) - qc * c2
            if s:
                rem[m] = s
            else:
                del rem[m]
    return quo


_Q1_POWERS = [QHPoly.one()]


def _q1_power(k: int) -> QHPoly:
    """(q-1)^k, expanded by the binomial theorem and kept for reuse."""
    while len(_Q1_POWERS) <= k:
        n = len(_Q1_POWERS)
        _Q1_POWERS.append(_wrap({(i, 0): (-1) ** (n - i) * comb(n, i) for i in range(n + 1)}))
    return _Q1_POWERS[k]


def _cancel_q(num: QHPoly, qpow: int):
    """num / q^qpow, num nonzero, with the common powers of q cancelled."""
    # the least monomial has the least q-degree, so s is at most the
    # q-valuation of num and q^-s * num is a polynomial
    s = min(min(num.terms)[0], qpow)
    return (num.mul_qpow(-s), qpow - s) if s else (num, qpow)


def _cancel_q1(num: QHPoly, q1pow: int):
    """num / (q-1)^q1pow with the common powers of (q-1) cancelled."""
    # a single term c q^a h^b is c h^b at q = 1, so (q-1) never divides it
    while q1pow and len(num.terms) != 1:
        d = num.div_q1()
        if d is None:
            break
        num, q1pow = d, q1pow - 1
    return num, q1pow


class Coeff:
    """num / (q^qpow (q-1)^q1pow) in fully cancelled form.

    Canonical form: the numerator is not divisible by q while qpow > 0 and
    not divisible by (q-1) while q1pow > 0; zero is 0/1.  The units of this
    ring are exactly r * q^a * (q-1)^b with r a nonzero rational.
    """

    __slots__ = ("num", "qpow", "q1pow")

    def __init__(self, num: QHPoly, qpow: int = 0, q1pow: int = 0):
        if qpow < 0 or q1pow < 0:
            raise ValueError("denominator exponents must be nonnegative")
        if not num.terms:
            num, qpow, q1pow = QHPoly.zero(), 0, 0
        else:
            if qpow:
                num, qpow = _cancel_q(num, qpow)
            if q1pow:
                num, q1pow = _cancel_q1(num, q1pow)
        self.num = num
        self.qpow = qpow
        self.q1pow = q1pow

    @classmethod
    def zero(cls) -> "Coeff":
        return _wrap_coeff(_wrap({}), 0, 0)

    @classmethod
    def one(cls) -> "Coeff":
        return cls(QHPoly.one())

    @classmethod
    def q(cls) -> "Coeff":
        return cls(QHPoly.q())

    @classmethod
    def h(cls) -> "Coeff":
        return cls(QHPoly.h())

    @classmethod
    def rational(cls, r) -> "Coeff":
        return cls(QHPoly.const(r))

    def is_zero(self) -> bool:
        return not self.num.terms

    def __bool__(self) -> bool:
        return bool(self.num.terms)

    def __eq__(self, other) -> bool:
        if type(other) is not Coeff:
            if isinstance(other, (int, Fraction)):
                other = Coeff.rational(other)
            elif not isinstance(other, Coeff):
                return NotImplemented
        return (
            self.num == other.num
            and self.qpow == other.qpow
            and self.q1pow == other.q1pow
        )

    __hash__ = None

    def _lift(self, m: int, k: int) -> QHPoly:
        # numerator after rescaling to the common denominator q^m (q-1)^k
        return self.num.mul_qpow(m - self.qpow).mul_q1pow(k - self.q1pow)

    def __add__(self, other) -> "Coeff":
        if type(other) is not Coeff:
            other = coeff(other)
        qx, kx, qy, ky = self.qpow, self.q1pow, other.qpow, other.q1pow
        m = qx if qx > qy else qy
        k = kx if kx > ky else ky
        # only an operand below the common denominator is lifted to it
        x = self.num if qx == m and kx == k else self._lift(m, k)
        y = other.num if qy == m and ky == k else other._lift(m, k)
        num = x + y
        if not num.terms:
            return Coeff.zero()
        # a numerator prime to q plus one divisible by q is prime to q, and
        # the same holds for (q-1): only equal exponents can leave a factor
        if qx == qy and m:
            num, m = _cancel_q(num, m)
        if kx == ky and k:
            num, k = _cancel_q1(num, k)
        return _wrap_coeff(num, m, k)

    __radd__ = __add__

    def __neg__(self) -> "Coeff":
        return _wrap_coeff(-self.num, self.qpow, self.q1pow)

    def __sub__(self, other) -> "Coeff":
        return self + (-coeff(other))

    def __rsub__(self, other) -> "Coeff":
        return coeff(other) + (-self)

    def __mul__(self, other):
        if type(other) is not Coeff:
            if isinstance(other, (int, Fraction)):
                other = Coeff.rational(other)
            elif not isinstance(other, Coeff):
                return NotImplemented
        x, qx, kx = self.num, self.qpow, self.q1pow
        y, qy, ky = other.num, other.qpow, other.q1pow
        if not x.terms or not y.terms:
            return Coeff.zero()
        # both numerators are prime to their own denominators and q, (q-1)
        # are prime, so only a factor with no q (or (q-1)) denominator can
        # cancel against the other's, and it is cancelled before multiplying
        if qx and not qy:
            y, qx = _cancel_q(y, qx)
        elif qy and not qx:
            x, qy = _cancel_q(x, qy)
        if kx and not ky:
            y, kx = _cancel_q1(y, kx)
        elif ky and not kx:
            x, ky = _cancel_q1(x, ky)
        return _wrap_coeff(x * y, qx + qy, kx + ky)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Coeff":
        return self * coeff(other).try_inv()

    def __pow__(self, n: int) -> "Coeff":
        if n < 0:
            return self.try_inv() ** (-n)
        return power(self, n, Coeff.one())

    def try_inv(self) -> "Coeff":
        """Inverse when self is a unit r*q^a*(q-1)^b; raises NotAUnit otherwise."""
        if self.is_zero():
            raise NotAUnit("0 is not a unit")
        p = self.num
        if len(p.terms) == 1 and (0, 0) in p.terms:
            # a rational constant c/den over q^qpow (q-1)^q1pow: its inverse
            # is den/c times that denominator, and den/|c| is in lowest terms
            c = p.terms[(0, 0)]
            num = _wrap({(0, 0): p.den if c > 0 else -p.den}, abs(c))
            return _wrap_coeff(num.mul_qpow(self.qpow).mul_q1pow(self.q1pow), 0, 0)
        a = p.q_valuation()
        if a:
            p = p.divide_q(a)
        b = 0
        while True:
            d = p.div_q1()
            if d is None:
                break
            p, b = d, b + 1
        if not p.is_constant():
            raise NotAUnit(f"{self} is not a unit of the localized ring")
        r = p.constant()
        e1 = self.qpow - a
        e2 = self.q1pow - b
        num = QHPoly.const(1 / r).mul_qpow(max(e1, 0)).mul_q1pow(max(e2, 0))
        return _wrap_coeff(num, max(-e1, 0), max(-e2, 0))

    def is_unit(self) -> bool:
        try:
            self.try_inv()
            return True
        except NotAUnit:
            return False

    def limit_q1(self) -> "Coeff":
        """Exact q -> 1 limit as a polynomial in h; raises PoleAtQ1 on a pole."""
        if self.is_zero():
            return Coeff.zero()
        if self.q1pow:
            # a canonical numerator is prime to (q-1) while q1pow > 0
            raise PoleAtQ1(f"{self} has a pole at q = 1")
        return Coeff(self.num.at_q1())

    def as_fraction(self) -> Fraction:
        if self.qpow or self.q1pow or not self.num.is_constant():
            raise ValueError(f"{self} is not a rational constant")
        return self.num.constant()

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        text = str(self.num)
        if (self.qpow or self.q1pow) and len(self.num.terms) > 1:
            text = f"({text})"
        if self.qpow:
            text += "/q" if self.qpow == 1 else f"/q^{self.qpow}"
        if self.q1pow:
            text += "/(q-1)" if self.q1pow == 1 else f"/(q-1)^{self.q1pow}"
        return text

    def __repr__(self) -> str:
        return f"Coeff({self})"


def _wrap_coeff(num: QHPoly, qpow: int, q1pow: int) -> Coeff:
    """A Coeff around parts that are already in canonical form, unchecked."""
    c = object.__new__(Coeff)
    c.num = num
    c.qpow = qpow
    c.q1pow = q1pow
    return c


def _sum_of_coeff_products(pairs) -> Coeff:
    """The sum of x * y over the Coeff pairs ``(x, y)``, in canonical form.

    Each product is lifted to the common denominator q^M (q-1)^K, with M
    and K the largest exponents among the products, and to the lcm of
    their rational denominators: the factor with fewer terms is shifted by
    the product's missing power of q and convolved with its missing power
    of (q-1).  The products are summed term by term in one int dict, so
    neither a product nor a partial sum is made canonical; one
    ``_reduced``, one ``_cancel_q`` and one ``_cancel_q1`` make the sum so.
    """
    m = max(x.qpow + y.qpow for x, y in pairs)
    k = max(x.q1pow + y.q1pow for x, y in pairs)
    den = lcm(*(x.num.den * y.num.den for x, y in pairs))
    out = {}
    for x, y in pairs:
        xt, yt = x.num.terms, y.num.terms
        if len(xt) > len(yt):
            xt, yt = yt, xt
        if t := k - x.q1pow - y.q1pow:
            xt = _convolve(xt, _q1_power(t).terms)
        if s := m - x.qpow - y.qpow:
            xt = {(a + s, b): c for (a, b), c in xt.items()}
        _add_products(out, xt, yt, den // (x.num.den * y.num.den))
    num = _reduced(out, den)
    if not num.terms:
        return Coeff.zero()
    if m:
        num, m = _cancel_q(num, m)
    if k:
        num, k = _cancel_q1(num, k)
    return _wrap_coeff(num, m, k)


def coeff(x) -> Coeff:
    """Coerce an int, Fraction or Coeff to a Coeff."""
    if isinstance(x, Coeff):
        return x
    if isinstance(x, (int, Fraction)):
        return Coeff.rational(x)
    raise TypeError(f"cannot use {type(x).__name__} as a scalar")
