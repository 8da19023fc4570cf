"""Property test: the printed form of an element parses back to it.

Elements are drawn in every builtin algebra.  Their coefficients have
rational content and q and (q-1) denominators, so printing goes through
every branch of ``QHPoly.__str__`` and ``Coeff.__str__``: integral and
fractional magnitudes, multi-term numerators in parentheses and both kinds
of denominator suffix.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qhcontract.coeffring import Coeff, QHPoly
from qhcontract.grgroup import builtin_algebras
from qhcontract.script import parse_expression
from qhcontract.superalgebra import Element

ALGEBRAS = builtin_algebras()

rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
coeffs = st.builds(
    lambda terms, qpow, q1pow: Coeff(QHPoly(terms), qpow, q1pow),
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), rationals, max_size=4),
    st.integers(0, 3),
    st.integers(0, 3),
)


@st.composite
def elements(draw):
    spec = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    letters = st.integers(0, len(spec.generators) - 1)
    words = st.lists(letters, max_size=3).map(tuple)
    return Element(spec, draw(st.dictionaries(words, coeffs, max_size=4)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(elements())
def test_printed_element_parses_back(e):
    assert parse_expression(str(e), e.algebra) == e
