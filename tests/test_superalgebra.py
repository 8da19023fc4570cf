import random

import pytest

from qhcontract.coeffring import Coeff
from qhcontract.rewrite import orient
from qhcontract.superalgebra import AlgebraSpec
from qhcontract.grgroup import builtin_algebras

from conftest import prelude, random_element


@pytest.fixture
def mixed():
    """Odd entries plus even coordinates in one ambient algebra."""
    return AlgebraSpec.build(
        "mixed",
        [
            ("alpha", "odd", "entry", 0),
            ("x", "even", "coord", 1),
            ("y", "even", "coord", 2),
        ],
        {("entry", "coord"): 1},
    )


def test_free_mul_concatenates(mixed):
    al, x, y = mixed.gen_elements("alpha x y")
    prod = (al * x).free_mul(y)
    assert list(prod.terms) == [(0, 1, 2)]


def test_free_mul_is_bilinear(mixed):
    al, x, y = mixed.gen_elements("alpha x y")
    assert (al + x).free_mul(y) == al * y + x * y


def test_unit_word_is_identity(mixed):
    e = mixed.gen_element("x") + mixed.scalar(2)
    one = mixed.unit()
    assert one.free_mul(e) == e
    assert e.free_mul(one) == e


def test_add_cancels(mixed):
    al, x = mixed.gen_elements("alpha x")
    assert (al * x + (-(al * x))).is_zero()


def test_scale(mixed):
    al, x = mixed.gen_elements("alpha x")
    assert (al * x).scale(Coeff.h()) == Coeff.h() * (al * x)
    assert x.scale(0).is_zero()


def test_free_mul_associative(rng):
    spec = builtin_algebras()["GRh2"]
    for _ in range(200):
        a = random_element(rng, spec)
        b = random_element(rng, spec)
        c = random_element(rng, spec)
        assert (a * b) * c == a * (b * c)


def test_canonical_printing_is_injective(rng):
    spec = builtin_algebras()["GRh2"]
    for _ in range(200):
        a = random_element(rng, spec)
        b = random_element(rng, spec)
        assert (a == b) == (str(a) == str(b))


def test_words_stored_largest_first():
    spec = builtin_algebras()["hplane"]
    x, y = spec.gen_elements("x y")
    e = y * x + x * y + y * y
    keys = list(e.terms)
    assert keys == sorted(keys, key=spec.word_key, reverse=True)


def test_rejects_mixed_algebras():
    a = builtin_algebras()["GRh2"]
    b, = prelude("GRh2")
    with pytest.raises(ValueError):
        a.gen_element("alpha") + b.gen_element("alpha")


def test_relation_degree_validation(mixed):
    x, y = mixed.gen_elements("x y")
    with pytest.raises(ValueError):
        mixed.add_relation(x)  # degree 1
    with pytest.raises(ValueError):
        mixed.add_relation(x * y - y)  # inhomogeneous


def test_reserved_generator_names():
    with pytest.raises(ValueError):
        AlgebraSpec.build("bad", [("q", "even", "f", 0)])


def test_precedence_must_be_permutation():
    with pytest.raises(ValueError):
        AlgebraSpec.build("bad", [("u", "even", "f", 0), ("v", "even", "f", 2)])


def test_word_key_is_length_then_precedences():
    rng = random.Random("word-key")
    for spec in (builtin_algebras()["GRh2"], builtin_algebras()["hplane"], AlgebraSpec.build(
            "reversed", [(f"g{i}", "even", "f", 4 - i) for i in range(5)])):
        prec = [g.prec for g in spec.generators]
        for _ in range(300):
            w = tuple(rng.randrange(len(prec)) for _ in range(rng.randint(0, 5)))
            assert spec.word_key(w) == (len(w), tuple(prec[g] for g in w))


def _assert_stored_canonically(e):
    assert all(e.terms.values()), e
    keys = list(e.terms)
    assert keys == sorted(keys, key=e.algebra.word_key, reverse=True), e


def _signed_element(rng, spec, max_terms=4):
    # coefficients +-1 and +-q on short words, so that sums and products
    # often cancel, as the terms of (1 + x) * (x - 1) do
    scalars = [Coeff.one(), -Coeff.one(), Coeff.q(), -Coeff.q()]
    max_len = rng.randint(1, 2)
    out = spec.zero()
    for _ in range(rng.randint(0, max_terms)):
        word = tuple(rng.randrange(len(spec.generators)) for _ in range(rng.randint(0, max_len)))
        out = out + spec.word_element(word).scale(rng.choice(scalars))
    return out


@pytest.mark.parametrize("name", ["GRh2", "hplane"])
def test_results_have_no_zero_and_are_sorted(name):
    # free_mul, +, - and normal_form delete the sums that cancel and only
    # sort; scale and negation keep their input's order
    spec = builtin_algebras()[name]
    rules = orient(spec)
    rng = random.Random(f"stored-{spec.name}")
    products_cancelled = sums_cancelled = 0
    for _ in range(300):
        a, b = _signed_element(rng, spec), _signed_element(rng, spec)
        if rng.random() < 0.3:
            b = b - a.scale(rng.choice([Coeff.one(), Coeff.q()]))
        elif rng.random() < 0.5:
            # (1 + g) * (g - 1) = g*g - 1: the two terms in g cancel
            g, one = spec.word_element((rng.randrange(len(spec.generators)),)), spec.unit()
            a, b = a.free_mul(one + g), (g - one).free_mul(b)
        c = rng.choice([Coeff.zero(), Coeff.h(), -Coeff.q() ** -1])
        results = [a.free_mul(b), a + b, a - b, b - a, -a, a.scale(c),
                   rules.normal_form(a.free_mul(b)), rules.normal_form(a + b)]
        for r in results:
            _assert_stored_canonically(r)
        products = {u + v for u in a.terms for v in b.terms}
        products_cancelled += len(results[0].terms) < len(products)
        sums_cancelled += len(results[1].terms) < len(set(a.terms) | set(b.terms))
    assert products_cancelled >= 20 and sums_cancelled >= 20
