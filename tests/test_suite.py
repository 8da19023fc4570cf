"""Criterion 12 draws the same samples as its original construction,
``residual_verdict`` reads a residual as the battery and the script
commands need it, and the covariance, inverse and product readers give
the script commands and criteria 4, 10 and 11 the same part verdicts."""

import random
from fractions import Fraction

import pytest

from qhcontract import grgroup, suite
from qhcontract.cli import Runner
from qhcontract.script import parse_script
from qhcontract.coeffring import Coeff, NotAUnit, QHPoly
from qhcontract.matalg import AlgMat
from qhcontract.rewrite import NotConfluent, orient
from qhcontract.superalgebra import AlgebraSpec, Element

from conftest import prelude


def _fraction_coeff(rng, q1_free=False):
    """The sampler as first written: a Fraction per term and both constructors."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[(rng.randint(0, 2), rng.randint(0, 2))] = Fraction(
            rng.randint(-3, 3), rng.randint(1, 3)
        )
    return Coeff(QHPoly(terms), rng.randint(0, 2), 0 if q1_free else rng.randint(0, 2))


def _randint_element(rng, spec, max_degree=2, max_terms=3):
    """The element sampler as first written, on ``randint`` and ``randrange``."""
    n = len(spec.generators)
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        word = tuple(rng.randrange(n) for _ in range(rng.randint(0, max_degree)))
        terms[word] = _fraction_coeff(rng)
    return Element(spec, terms)


def _assert_same_sample(a, b):
    assert a == b and str(a) == str(b)


def test_random_coeff_keeps_its_draws():
    new, old = random.Random(suite._SEED), random.Random(suite._SEED)
    for i in range(500):
        q1_free = i % 5 >= 3  # criterion 12 draws three, then two (q-1)-free
        _assert_same_sample(suite._random_coeff(new, q1_free), _fraction_coeff(old, q1_free))
    assert new.getstate() == old.getstate()


def test_random_element_keeps_its_draws():
    # randrange(n) draws getrandbits(n.bit_length()) until the value is below
    # n: on 4, 5, 8 and 9 generators 3, 3, 4 and 4 bits, rejecting 4 of 8,
    # 3 of 8, 8 of 16 and 7 of 16 values
    specs = [grgroup.builtin_algebras()[name] for name in ("GRq2", "GRh2", "GRq2xGRq2")] + [
        AlgebraSpec.build(f"n{n}", [(f"g{i}", "even", "f", i) for i in range(n)]) for n in (5, 9)]
    new, old = random.Random(suite._SEED), random.Random(suite._SEED)
    for i in range(600):
        spec, bounds = specs[i % len(specs)], {"max_degree": i % 4, "max_terms": i % 5}
        _assert_same_sample(suite._random_element(new, spec, **bounds),
                            _randint_element(old, spec, **bounds))
    assert new.getstate() == old.getstate()


def test_battery_draws_the_samples_of_randint(monkeypatch):
    """Every sample criterion 12 draws, in its order, equals the one the
    samplers as first written draw from the same seed, and the battery
    leaves its generator in their final state."""
    drawn, inside = [], []
    random_coeff, random_element = suite._random_coeff, suite._random_element

    def element(rng, spec):
        inside.append(spec)  # its coefficients are part of this draw
        e = random_element(rng, spec)
        inside.pop()
        drawn.append((rng, lambda ref: _randint_element(ref, spec), e))
        return e

    def coeff(rng, q1_free=False):
        c = random_coeff(rng, q1_free)
        if not inside:
            drawn.append((rng, lambda ref: _fraction_coeff(ref, q1_free), c))
        return c

    monkeypatch.setattr(suite, "_random_element", element)
    monkeypatch.setattr(suite, "_random_coeff", coeff)
    assert suite.check_property_battery().status == "verified"
    # two elements, then three coefficients and two (q-1)-free ones, per sample
    assert len(drawn) == 7 * suite.PROPERTY_SAMPLES
    battery_rng = drawn[0][0]
    assert all(rng is battery_rng for rng, _ref, _sample in drawn)
    ref = random.Random(suite._SEED)
    for _rng, reference, sample in drawn:
        _assert_same_sample(sample, reference(ref))
    assert battery_rng.getstate() == ref.getstate()


def _cyclic():
    """x, y, z with cyclic relations: 4 overlaps stay unresolved."""
    spec = AlgebraSpec.build("cyc", [(n, "even", "main", i) for i, n in enumerate("xyz")])
    x, y, z = spec.gen_elements("x y z")
    for lhs, rhs in ((x * y, z * z), (y * z, x * x), (z * x, y * y)):
        spec.add_relation(lhs - rhs)
    return spec


def test_residual_verdict_witness_counts_the_other_entries():
    grh = grgroup.builtin_algebras()["GRh2"]
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


def test_multiply_and_nf_refuse_a_system_that_is_not_confluent():
    spec = _cyclic()
    rs = orient(spec)
    x, z = spec.gen_elements("x z")
    with pytest.raises(NotConfluent, match=r"^not confluent: y\*z\*x -> x\^3 \| y\^3 \(\+3 more\)$"):
        rs.multiply(z, x)
    verdicts = Runner().run(parse_script(
        "algebra cyc\n gen x\n gen y\n gen z\n rel x*y = z*z\n rel y*z = x*x\n"
        'rel z*x = y*y\nend\nnf cyc "z^3"'))
    assert [(v.status, v.witness) for v in verdicts] == [
        ("error", "not confluent: y*z*x -> x^3 | y^3 (+3 more)")]


@pytest.mark.parametrize("command, reader, algebra", [
    ("covariance", suite.covariance_verdict, "GRh2"),
    ("inverse-check", suite.inverse_verdicts, "GRh2"),
    ("product-check", suite.product_verdicts, "GRq2xGRq2"),
])
def test_script_commands_report_the_readers_parts(command, reader, algebra):
    runner = Runner()
    parts = reader(grgroup.builtin_algebras()[algebra])
    if command == "covariance":
        expected = [parts._replace(command="covariance")]
    else:
        expected = [v._replace(command=f"{command} [{v.command}]") for v in parts]
    assert runner.run(parse_script(command)) == expected


def _product_pair_with_a_wrong_second_copy():
    """The pair algebra with the second copy's names permuted in its
    relations: still confluent, but its product breaks four relations."""
    base = grgroup.builtin_algebras()["GRq2xGRq2"]
    spec = AlgebraSpec.build(
        base.name, [(g.name, g.parity, g.family, g.prec) for g in base.generators],
        {("first", "second"): -1},
    )
    # the second copy's alpha', beta', gamma', delta' read as beta', alpha',
    # delta', gamma'
    swap = {4: 5, 5: 4, 6: 7, 7: 6}
    for rel in base.relations:
        spec.add_relation(Element(spec, {tuple(swap.get(g, g) for g in w): c
                                         for w, c in rel.terms.items()}))
    return spec


def test_covariance_with_a_wrong_h_is_falsified(monkeypatch):
    # equal ranks, different spans: span_equal alone decides
    grh, = prelude("GRh2", h="2*h")
    part = suite.Verdict("covariance", "falsified", "combined rank 10, target rank 10")
    assert suite.covariance_verdict(grh) == part
    monkeypatch.setitem(grgroup.builtin_algebras(), "GRh2", grh)
    v = suite.check_covariance()
    assert (v.status, v.witness, v.details) == (
        "falsified", "covariance: combined rank 10, target rank 10", ())


def test_covariance_needs_a_unit_minor_of_the_goal(monkeypatch):
    # the goal relations times h span the covariance relations over Q(h)
    # but not over the ring, since h is not a unit: criterion 4 must not
    # verify them; the elimination that gives the goal's minor is the one
    # span_equal reduces against, so the spans are eliminated once each
    import qhcontract.contract as contract

    grh, = prelude("GRh2")
    scaled = AlgebraSpec.build(grh.name, [(g.name, g.parity, g.family, g.prec)
                                          for g in grh.generators])
    for r in grh.relations:
        scaled.add_relation(Element(scaled, {w: Coeff.h() * c for w, c in r.terms.items()}))
    calls = []
    bareiss = contract._bareiss
    monkeypatch.setattr(contract, "_bareiss", lambda rows, n: calls.append(n) or bareiss(rows, n))
    assert suite.covariance_verdict(grh).status == "verified"
    assert len(calls) == 2
    with pytest.raises(NotAUnit, match=r"^minor h\^10 of the target relations on "
                                       r"their leading words is not a unit: they span "
                                       r"the covariance relations over Q\(h\) only$"):
        suite.covariance_verdict(scaled)


def test_product_theorem_with_a_wrong_second_copy_is_falsified(monkeypatch):
    spec = _product_pair_with_a_wrong_second_copy()
    parts = suite.product_verdicts(spec)
    failed = [v for v in parts if v.status == "falsified"]
    assert [v.command for v in failed] == [
        "a*b - q*b*a", "b*c - c*b", "c*d - q*d*c", "a*d - d*a - (q - q^-1)*b*c"]
    assert parts[-1] == suite.Verdict("entries are even", "verified")
    residuals = dict(grgroup.product_theorem(spec))
    assert all(v.witness == str(residuals[v.command]) for v in failed)
    monkeypatch.setitem(grgroup.builtin_algebras(), "GRq2xGRq2", spec)
    v = suite.check_product_theorem()
    assert (v.status, v.details) == ("falsified", ())
    assert v.witness == "; ".join(f"{p.command}: {p.witness}" for p in failed)
