"""QHPoly arithmetic and the Bareiss routine checked against sympy.

sympy is an independent implementation of polynomial arithmetic, exact
division and matrix rank over Q(q,h); every input here is drawn from a
seeded generator, so a failure reproduces exactly.
"""

import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from qhcontract.coeffring import NotDivisible, QHPoly
from qhcontract.contract import _bareiss

Q, H = sympy.symbols("q h")


def random_poly(rng, max_terms=4, max_deg=3) -> QHPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        if rng.random() < 0.5:
            terms[mono] = rng.randint(-5, 5)
        else:
            terms[mono] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return QHPoly(terms)


def nonzero_poly(rng, **kw) -> QHPoly:
    while True:
        p = random_poly(rng, **kw)
        if p:
            return p


def to_sympy(p: QHPoly):
    return sympy.Add(*[sympy.Rational(c, p.den) * Q**a * H**b
                       for (a, b), c in p.terms.items()])


def from_sympy(expr) -> QHPoly:
    poly = sympy.Poly(expr, Q, H)
    return QHPoly({m: Fraction(int(c.p), int(c.q)) for m, c in poly.terms()})


def test_mul_matches_sympy():
    rng = random.Random(101)
    for _ in range(100):
        a, b = random_poly(rng), random_poly(rng)
        want = from_sympy(sympy.expand(to_sympy(a) * to_sympy(b)))
        assert a * b == want
        assert str(a * b) == str(want)


def test_exact_div_matches_sympy():
    rng = random.Random(102)
    for _ in range(100):
        a, b = random_poly(rng), nonzero_poly(rng)
        quo, rem = sympy.div(to_sympy(a * b), to_sympy(b), Q, H)
        assert rem == 0
        assert (a * b).exact_div(b) == from_sympy(quo) == a
        c = random_poly(rng)
        quo, rem = sympy.div(to_sympy(c), to_sympy(b), Q, H)
        if rem == 0:
            assert c.exact_div(b) == from_sympy(quo)
        else:
            with pytest.raises(NotDivisible):
                c.exact_div(b)


def test_div_q1_and_at_q1_match_sympy():
    rng = random.Random(103)
    divisible = 0
    for _ in range(100):
        p = random_poly(rng)
        for cand in (p, p * QHPoly.q_minus_1()):
            quo, rem = sympy.div(to_sympy(cand), Q - 1, Q, H)
            if rem == 0:
                divisible += 1
                assert cand.div_q1() == from_sympy(quo)
            else:
                assert cand.div_q1() is None
            assert cand.at_q1() == from_sympy(to_sympy(cand).subs(Q, 1))
    assert divisible >= 100


def random_term(rng) -> QHPoly:
    """A nonzero single-term polynomial, over a denominator other than 1 half the time."""
    mono = (rng.randint(0, 3), rng.randint(0, 3))
    num = rng.choice([1, -1]) * rng.randint(1, 6)
    return QHPoly({mono: Fraction(num, rng.choice([1, rng.randint(2, 4)]))})


def test_single_term_mul_matches_sympy():
    # a single-term factor on either side, the constant 1, and the
    # denominator of the product reduced against the content
    rng = random.Random(105)
    one = QHPoly.one()
    reduced = both_dens = 0
    for _ in range(150):
        a, t = random_poly(rng), random_term(rng)
        unit_fraction = QHPoly.const(Fraction(1, rng.randint(2, 4)))
        for x, y in ((a, t), (t, a), (t, random_term(rng)), (a, one), (one, a),
                     (a, unit_fraction), (unit_fraction, a)):
            want = from_sympy(sympy.expand(to_sympy(x) * to_sympy(y)))
            got = x * y
            assert got == want, (x, y)
            assert str(got) == str(want)
            both_dens += x.den > 1 and y.den > 1
            reduced += got.den < x.den * y.den
    assert one * one == one
    assert both_dens >= 50 and reduced >= 50


def test_div_q1_with_some_zero_column_sums_matches_sympy():
    # h-columns that sum to 0 next to ones that do not, including column
    # sums that cancel each other across columns
    rng = random.Random(106)
    partial = cancelling = 0
    for _ in range(150):
        p = random_poly(rng) * QHPoly.q_minus_1()
        b1, b2 = rng.sample(range(4), 2)
        c = rng.choice([1, -1]) * rng.randint(1, 5)
        stray = QHPoly({(rng.randint(0, 3), b1): c})
        if rng.random() < 0.5:
            stray = stray - QHPoly({(rng.randint(0, 3), b2): c})
        for cand in (p + stray, (p + stray) * QHPoly.q_minus_1()):
            quo, rem = sympy.div(to_sympy(cand), Q - 1, Q, H)
            if rem == 0:
                assert cand.div_q1() == from_sympy(quo)
                continue
            assert cand.div_q1() is None
            sums = {}
            for (_a, b), v in cand.terms.items():
                sums[b] = sums.get(b, 0) + v
            if any(v == 0 for v in sums.values()):
                partial += 1
            if sum(sums.values()) == 0:
                cancelling += 1
    assert partial >= 30 and cancelling >= 30


def random_matrix(rng, nrows, ncols):
    rows = [[random_poly(rng, 2, 2) if rng.random() < 0.7 else QHPoly.zero()
             for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 3 and rng.random() < 0.6:
        f, g = random_poly(rng, 2, 1), random_poly(rng, 2, 1)
        rows[-1] = [f * x + g * y for x, y in zip(rows[0], rows[1])]
    return rows


def test_bareiss_rank_and_kernel_match_sympy():
    rng = random.Random(104)
    deficient = 0
    for _ in range(40):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        rows = random_matrix(rng, nrows, ncols)
        mat = sympy.Matrix([[to_sympy(p) for p in row] for row in rows])
        want = DomainMatrix.from_Matrix(mat).to_field().rank()
        rank, combo = _bareiss(rows, kernel=True)
        assert rank == want
        assert _bareiss(rows) == (want, None)
        if rank == nrows:
            assert combo is None
            continue
        deficient += 1
        assert len(combo) == nrows and any(combo)
        vec = sympy.Matrix([[to_sympy(t) for t in combo]])
        assert (vec * mat).expand() == sympy.zeros(1, ncols)
    assert deficient >= 8
