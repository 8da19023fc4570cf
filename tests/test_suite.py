"""Criterion 12 draws the same samples as its original construction."""

import random
from fractions import Fraction

from qhcontract import suite
from qhcontract.coeffring import Coeff, QHPoly


def _fraction_coeff(rng, q1_free=False):
    """The sampler as first written: a Fraction per term and both constructors."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[(rng.randint(0, 2), rng.randint(0, 2))] = Fraction(
            rng.randint(-3, 3), rng.randint(1, 3)
        )
    return Coeff(QHPoly(terms), rng.randint(0, 2), 0 if q1_free else rng.randint(0, 2))


def test_random_coeff_keeps_its_draws():
    new, old = random.Random(suite._SEED), random.Random(suite._SEED)
    for i in range(500):
        q1_free = i % 5 >= 3  # criterion 12 draws three, then two (q-1)-free
        a, b = suite._random_coeff(new, q1_free), _fraction_coeff(old, q1_free)
        assert a == b and str(a) == str(b)
    assert new.getstate() == old.getstate()
