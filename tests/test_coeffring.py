import random
from fractions import Fraction
from math import gcd

import pytest

from qhcontract import coeffring
from qhcontract.coeffring import Coeff, NotAUnit, NotDivisible, PoleAtQ1, QHPoly, power

from conftest import random_coeff

Q = Coeff.q()
H = Coeff.h()
ONE = Coeff.one()
F = H / (Q - ONE)  # h/(q-1)


def test_mul_cancels_q1_denominator():
    assert F * (Q - ONE) == H


def test_add_inverse_is_zero():
    assert (Q**-1 + (-(Q**-1))).is_zero()


def test_mul_clears_q_denominator():
    assert (Q - Q**-1) * Q == Q * Q - ONE


def test_try_inv_of_q_inverse():
    assert (Q**-1).try_inv() == Q


def test_try_inv_rejects_q_minus_qinv():
    # numerator (q-1)(q+1) carries the non-unit factor q+1
    with pytest.raises(NotAUnit):
        (Q - Q**-1).try_inv()


def test_try_inv_rejects_zero():
    with pytest.raises(NotAUnit):
        Coeff.zero().try_inv()


def test_limit_cancellation():
    assert ((Q * Q - ONE) / (Q - ONE)).limit_q1() == Coeff.rational(2)


def test_limit_pole():
    with pytest.raises(PoleAtQ1):
        F.limit_q1()


def test_limit_after_exact_cancellation():
    # (q - q^-1) * h/(q-1) = h(q+1)/q, which is 2h at q = 1
    assert ((Q - Q**-1) * F).limit_q1() == Coeff.rational(2) * H


def test_exact_div_cases():
    q2m1 = QHPoly({(2, 0): 1, (0, 0): -1})
    qm1 = QHPoly.q_minus_1()
    assert q2m1.exact_div(qm1) == QHPoly({(1, 0): 1, (0, 0): 1})
    qh_h = QHPoly({(1, 1): 1, (0, 1): 1})
    assert qh_h.exact_div(QHPoly.h()) == QHPoly({(1, 0): 1, (0, 0): 1})
    with pytest.raises(NotDivisible):
        QHPoly({(1, 0): 1, (0, 0): 1}).exact_div(qm1)


def test_canonicalization_is_idempotent(rng):
    for _ in range(300):
        c = random_coeff(rng)
        again = Coeff(c.num, c.qpow, c.q1pow)
        assert again == c


def _elision_pairs(rng):
    """Coeff pairs for every case in which products and sums skip a retry."""
    for _ in range(300):
        a, b = random_coeff(rng), random_coeff(rng)
        yield a, b
        # a (q-1) denominator against a numerator carrying (q-1)^2 and q
        with_pole = Coeff(a.num, a.qpow, rng.randint(1, 3))
        divisible = Coeff(b.num.mul_qpow(1).mul_q1pow(2), b.qpow, 0)
        yield with_pole, divisible
        yield divisible, with_pole
        # equal denominators whose numerators sum to a multiple of q (q-1)
        z = random_coeff(rng).num.mul_qpow(1).mul_q1pow(rng.randint(1, 3))
        yield with_pole, Coeff(z - with_pole.num, with_pole.qpow, with_pole.q1pow)


def test_products_and_sums_are_canonical(rng):
    cases = set()
    for a, b in _elision_pairs(rng):
        m, k = max(a.qpow, b.qpow), max(a.q1pow, b.q1pow)
        lifted = [c.num.mul_qpow(m - c.qpow).mul_q1pow(k - c.q1pow) for c in (a, b)]
        for r, want in (
            (a * b, Coeff(a.num * b.num, a.qpow + b.qpow, a.q1pow + b.q1pow)),
            (a + b, Coeff(lifted[0] + lifted[1], m, k)),
        ):
            assert r == Coeff(r.num, r.qpow, r.q1pow), (a, b, r)
            assert r == want, (a, b, r)
        cases.add((a.qpow == b.qpow, a.q1pow == b.q1pow, a.num.den > 1 or b.num.den > 1))
    assert len(cases) == 8


def test_ring_laws(rng):
    for _ in range(300):
        a, b, c = (random_coeff(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_limit_linearity_and_kill(rng):
    for _ in range(300):
        a = random_coeff(rng, q1_free=True)
        b = random_coeff(rng, q1_free=True)
        assert (a + b).limit_q1() == a.limit_q1() + b.limit_q1()
        assert (a * (Q - ONE)).limit_q1().is_zero()


def test_try_inv_roundtrip(rng):
    for _ in range(200):
        r = Fraction(rng.randint(1, 5), rng.randint(1, 5)) * rng.choice([1, -1])
        u = Coeff(
            QHPoly.const(r).mul_qpow(rng.randint(0, 2)).mul_q1pow(rng.randint(0, 2)),
            rng.randint(0, 2),
            rng.randint(0, 2),
        )
        assert u * u.try_inv() == ONE


def test_power_equals_repeated_products():
    rng = random.Random(20261018)
    for _ in range(20):
        c = random_coeff(rng)
        repeated = ONE
        for n in range(12):
            assert c**n == repeated
            repeated = repeated * c
        if c.is_unit():
            assert c**-5 * c**5 == ONE


@pytest.mark.parametrize("n", [-1, -2, -7])
def test_power_refuses_a_negative_exponent(n):
    # n >>= 1 keeps a negative n below 0, so the loop would never end
    with pytest.raises(ValueError, match="negative exponent"):
        power(Q, n, ONE)


def test_zero_normalizes_denominators():
    z = Coeff(QHPoly.zero(), 3, 2)
    assert z.is_zero() and z.qpow == 0 and z.q1pow == 0


def test_printing():
    assert str(F) == "h/(q-1)"
    assert str(Q - Q**-1) == "(q^2 - 1)/q"
    assert str(Coeff.zero()) == "0"
    assert str(Coeff.rational(Fraction(-3, 2)) * H) == "-3/2*h"


def test_term_order_does_not_matter():
    terms = {(2, 0): 3, (0, 1): Fraction(-1, 2), (1, 1): 1, (0, 0): -4}
    a = QHPoly(terms)
    b = QHPoly(dict(reversed(list(terms.items()))))
    assert list(a.terms) != list(b.terms)
    assert a == b
    assert str(a) == str(b) == "3*q^2 + q*h - 1/2*h - 4"
    assert a.leading() == b.leading() == ((2, 0), 3)
    x, y = QHPoly({(1, 0): 1, (0, 1): 2}), QHPoly({(0, 0): 1, (1, 1): -1})
    assert x * y == y * x and str(x * y) == str(y * x)
    assert x + y == y + x and str(x + y) == str(y + x)


def _assert_canonical_storage(p):
    assert all(type(c) is int and c for c in p.terms.values()), p.terms
    assert type(p.den) is int and p.den > 0
    assert gcd(p.den, *p.terms.values()) == 1


def test_integral_coefficients_are_stored_as_int():
    # integer terms over one positive denominator prime to their content
    p = QHPoly({(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 3), (0, 0): 0})
    assert (p.terms, p.den) == ({(1, 0): 6, (0, 1): 1}, 3)
    assert p == QHPoly({(1, 0): 2, (0, 1): Fraction(1, 3)})
    _assert_canonical_storage(p)
    half = QHPoly.const(Fraction(1, 2))
    results = [
        half + half,
        half * QHPoly.const(2),
        half.scaled(4),
        QHPoly({(1, 0): Fraction(1, 2), (0, 0): Fraction(-1, 2)}).div_q1().scaled(2),
        (QHPoly.q_minus_1().scaled(2)).exact_div(QHPoly.q_minus_1()),
        QHPoly.const(3).exact_div(QHPoly.const(3)),
        QHPoly({(1, 0): Fraction(3, 2), (0, 0): Fraction(1, 2)}).at_q1(),
    ]
    for r in results:
        _assert_canonical_storage(r)
        assert r.den == 1, (r.terms, r.den)
    third = QHPoly.const(3).exact_div(QHPoly.const(2))
    _assert_canonical_storage(third)
    assert (third.terms, third.den) == ({(0, 0): 3}, 2)
    rng = random.Random(20261019)
    for _ in range(100):
        a, b = random_coeff(rng).num, random_coeff(rng).num
        for r in (a, b, a + b, a - b, a * b, -a, a.scaled(Fraction(2, 3)), a.at_q1()):
            _assert_canonical_storage(r)


def test_rational_accessors_return_fractions():
    assert type(QHPoly.const(3).constant()) is Fraction
    assert QHPoly.const(3).constant() == 3
    assert type(QHPoly.zero().constant()) is Fraction
    assert type(QHPoly({(1, 0): 4, (0, 0): 6}).content()) is Fraction
    assert QHPoly({(1, 0): 4, (0, 0): 6}).content() == 2
    assert type(Coeff.rational(3).as_fraction()) is Fraction
    assert type(Coeff.rational(Fraction(6, 3)).as_fraction()) is Fraction
    assert (Coeff.rational(2) / Coeff.rational(4)).as_fraction() == Fraction(1, 2)


def test_from_ints_leaves_its_argument_unchanged():
    terms = {(2, 1): 4, (1, 0): 0, (0, 0): 2}
    p = QHPoly.from_ints(terms, 6)
    assert terms == {(2, 1): 4, (1, 0): 0, (0, 0): 2}
    assert (p.terms, p.den) == ({(2, 1): 2, (0, 0): 1}, 3)


# The kernel fast paths against the general computations they stand for.
# The inputs have negative coefficients, denominators other than 1 and zero
# results; every result must also be stored canonically.


def _random_poly(rng, max_terms=4):
    """A polynomial of up to max_terms terms over a denominator of 1 to 6,
    the zero polynomial included."""
    return QHPoly({
        (rng.randint(0, 3), rng.randint(0, 2)):
            Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6)))
        for _ in range(rng.randint(0, max_terms))
    })


def _convolution(x, y):
    """x * y summed term by term in Fractions and built by the constructor."""
    out = {}
    for (a1, b1), c1 in x.terms.items():
        for (a2, b2), c2 in y.terms.items():
            m = (a1 + a2, b1 + b2)
            out[m] = out.get(m, 0) + Fraction(c1, x.den) * Fraction(c2, y.den)
    return QHPoly(out)


def test_lift_by_powers_of_q_minus_1_matches_the_full_product():
    # no gcd is taken, so every denominator must come out as the full
    # product's; a factor (q+1) makes terms cancel, as in (q+1)(q-1)
    rng = random.Random("lift")
    q_minus_1, q_plus_1 = QHPoly({(1, 0): 1, (0, 0): -1}), QHPoly({(1, 0): 1, (0, 0): 1})
    seen = set()
    for _ in range(500):
        p = _random_poly(rng)
        if rng.random() < 0.4:
            p = _convolution(p, q_plus_1)
        s = rng.randint(0, 4)
        want = p
        for _ in range(s):
            want = _convolution(want, q_minus_1)
        got = p.mul_q1pow(s)
        assert got == want, (p, s)
        _assert_canonical_storage(got)
        cancels = 0 in coeffring._convolve(p.terms, coeffring._q1_power(s).terms).values()
        seen.add((p.den != 1, cancels))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_q_valuation_is_the_least_q_exponent():
    rng = random.Random("q-valuation")
    for _ in range(500):
        p = _random_poly(rng)
        assert p.q_valuation() == min((a for a, _b in p.terms), default=0)


def test_single_term_products_match_the_convolution():
    rng = random.Random("single-term")
    scales = (1, -1, 2, -3, 6, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6))
    seen = set()
    for _ in range(2000):
        p = _random_poly(rng)
        t = QHPoly.monomial(rng.randint(0, 2), rng.randint(0, 2), rng.choice(scales))
        for r, want in ((p * t, _convolution(p, t)), (t * p, _convolution(t, p))):
            assert r == want, (p, t)
            _assert_canonical_storage(r)
        kind = "unit" if abs(t.leading()[1]) == 1 else "integer" if t.den == 1 else "fraction"
        seen.add(("zero" if p.is_zero() else kind, r.den < p.den * t.den))
    # each kind of factor with and without a common factor of numerator
    # and denominator to cancel (a unit has none), and zero products
    assert seen == {("unit", False), ("integer", False), ("integer", True),
                    ("fraction", False), ("fraction", True), ("zero", False), ("zero", True)}


def test_cancelling_q_and_q_minus_1_matches_the_divisions():
    rng = random.Random("cancel")
    for _ in range(1000):
        num = _random_poly(rng)
        if num.is_zero():
            continue
        num = num.mul_qpow(rng.randint(0, 2)).mul_q1pow(rng.randint(0, 2))
        if rng.random() < 0.3:  # a monomial: (q-1) never divides it
            num = QHPoly.monomial(rng.randint(0, 3), rng.randint(0, 2), rng.choice((1, -2, Fraction(3, 4))))
        qpow, q1pow = rng.randint(0, 3), rng.randint(0, 3)
        s = min(num.q_valuation(), qpow)
        assert coeffring._cancel_q(num, qpow) == (num.divide_q(s), qpow - s)
        want, k = num, q1pow
        while k and want.div_q1() is not None:
            want, k = want.div_q1(), k - 1
        got = coeffring._cancel_q1(num, q1pow)
        assert got == (want, k)
        _assert_canonical_storage(got[0])


def test_equality_fast_path_matches_the_coercing_one():
    rng = random.Random("equality")
    for _ in range(500):
        a = random_coeff(rng)
        # an equal copy a third of the time, another sample otherwise
        b = Coeff(a.num, a.qpow, a.q1pow) if rng.random() < 0.3 else random_coeff(rng)
        parts = lambda c: (c.num.terms, c.num.den, c.qpow, c.q1pow)
        assert (a == b) == (parts(a) == parts(b))
        r = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert Coeff.rational(r) == r
        assert (a == r) == (a == Coeff.rational(r))
    assert Coeff.zero() == Coeff(QHPoly.zero()) == 0
    _assert_canonical_storage(Coeff.zero().num)
    assert not Coeff.zero() and Coeff.zero().is_zero() and (ONE - ONE).is_zero()


def _assert_canonical_coeff(c):
    """The numerator is stored canonically, and holds no factor q while
    qpow > 0 and no factor (q-1) while q1pow > 0; zero is 0/1."""
    _assert_canonical_storage(c.num)
    if not c:
        assert (c.qpow, c.q1pow) == (0, 0)
    if c.qpow:
        assert c.num.q_valuation() == 0, c
    if c.q1pow:
        assert c.num.div_q1() is None, c


def _product_sums(rng):
    """Lists of Coeff pairs: random ones, a single pair, pairs that cancel
    to 0, and pairs whose last one makes the sum a chosen value whose
    numerator carries factors of q and (q-1) to cancel."""
    for _ in range(400):
        pairs = [(random_coeff(rng), random_coeff(rng)) for _ in range(rng.randint(1, 4))]
        kind = rng.randrange(4)
        if kind == 1:
            pairs = pairs[:1]
        elif kind == 2:
            x, y = pairs[0]
            pairs += [(y, -x)]
        elif kind == 3:
            total = sum((x * y for x, y in pairs), Coeff.zero())
            num = random_coeff(rng).num.mul_qpow(rng.randint(0, 2)).mul_q1pow(rng.randint(1, 3))
            target = Coeff(num, rng.randint(1, 3), rng.randint(1, 3))
            # the last pair holds a unit with q and (q-1) denominators
            unit = Coeff(QHPoly.const(rng.choice((1, -2, Fraction(3, 2)))),
                         rng.randint(0, 2), rng.randint(0, 2))
            pairs.append(((target - total) * unit.try_inv(), unit))
        yield pairs


def test_sum_of_coeff_products_matches_the_sequential_sum():
    rng = random.Random("sum-of-coeff-products")
    seen = set()
    for pairs in _product_sums(rng):
        want = Coeff.zero()
        for x, y in pairs:
            want = want + x * y
        got = coeffring._sum_of_coeff_products(pairs)
        assert got == want, pairs
        assert str(got) == str(want)
        _assert_canonical_coeff(got)
        m = max(x.qpow + y.qpow for x, y in pairs)
        k = max(x.q1pow + y.q1pow for x, y in pairs)
        seen.add(("single" if len(pairs) == 1 else "zero" if not got else "sum",
                  any(x.q1pow + y.q1pow < k for x, y in pairs),
                  bool(got) and got.qpow < m and got.q1pow < k,
                  any(x.num.den * y.num.den > 1 for x, y in pairs)))
    # every shape, with a (q-1) lift, with both cancellations at the end,
    # and with rational denominators
    assert {s[0] for s in seen} == {"single", "zero", "sum"}
    assert ("sum", True, True, True) in seen
    assert ("zero", True, False, True) in seen
