"""Criterion 12 draws the same samples as its original construction, and
``residual_verdict`` reads a residual as the battery and the script
commands need it."""

import random
from fractions import Fraction

import pytest

from qhcontract import grgroup, suite
from qhcontract.coeffring import Coeff, QHPoly
from qhcontract.matalg import AlgMat
from qhcontract.rewrite import NotConfluent
from qhcontract.superalgebra import AlgebraSpec


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


def _cyclic():
    """x, y, z with cyclic relations: 4 overlaps stay unresolved."""
    spec = AlgebraSpec.build("cyc", [(n, "even", "main", i) for i, n in enumerate("xyz")])
    x, y, z = spec.gen_elements("x y z")
    for lhs, rhs in ((x * y, z * z), (y * z, x * x), (z * x, y * y)):
        spec.add_relation(lhs - rhs)
    return spec


def test_residual_verdict_witness_counts_the_other_entries():
    grh = grgroup.gr_h2()
    a, b = grh.gen_elements("alpha beta")
    zero = grh.zero()
    one = suite.residual_verdict("one", AlgMat(grh, [[zero, zero], [a, zero]]))
    assert one == suite.Verdict("one", "falsified", "entry (2,1): alpha")
    two = suite.residual_verdict("two", AlgMat(grh, [[zero, b], [a, zero]]))
    assert two == suite.Verdict("two", "falsified", "entry (1,2): beta (+1 more)")


def test_residual_verdict_certifies_confluence_before_it_falsifies():
    spec = _cyclic()
    x, zero = spec.gen_element("x"), spec.zero()
    with pytest.raises(NotConfluent, match=r"^not confluent: y\*z\*x -> x\^3 \| y\^3 \(\+3 more\)$"):
        suite.residual_verdict("nonzero", AlgMat(spec, [[x, zero], [zero, zero]]))
    # a zero normal form proves membership on any system
    assert suite.residual_verdict("zero", AlgMat(spec, [[zero, zero], [zero, zero]])) == (
        suite.Verdict("zero", "verified")
    )
