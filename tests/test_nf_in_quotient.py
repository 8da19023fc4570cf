"""Property test: ``nf`` reports the normal form of the free expansion.

``nf`` reduces every product as soon as it is formed, which equals reducing
the fully expanded expression once on a confluent system.  For random
expressions in every builtin algebra, with sums, products, powers and
scalars with q and (q-1) denominators, the ``nf`` report must be the one
built from ``RuleSystem.normal_form`` of the unreduced expression.

That oracle sends both of its sides through the one evaluator, which keeps
scalars as Coeff until a generator enters them, so it cannot catch an
error of the evaluator itself.  A seeded test compares it, free and with
rules, with the reference that makes every value an Element and every
product one call of the free or the rule product, value for value and
error for error.
"""

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhcontract.cli import Runner, Verdict, parse_expression, parse_script, report
from qhcontract.grgroup import builtin_algebras
from qhcontract.rewrite import orient
from qhcontract.script import ParseError

from conftest import element_parse_expression

RUNNER = Runner()
ALGEBRAS = sorted(builtin_algebras())

SCALARS = ["2", "-3/2", "q", "h", "q^-1", "(q-1)^-1", "h/(q-1)^2", "(q - q^-1)"]
DIVISORS = ["q", "(q-1)", "(2*q^2)", "(q-1)^2"]


@st.composite
def expressions(draw, names, depth=3):
    """Expression text of at most ``depth`` nested operations.

    Exponents stay at most 3 so that the free expansion, which the
    reference builds, stays small.
    """
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.one_of(st.sampled_from(names), st.sampled_from(SCALARS)))
    op = draw(st.sampled_from("+-*^/"))
    left = draw(expressions(names, depth - 1))
    if op == "^":
        return f"({left})^{draw(st.integers(0, 3))}"
    if op == "/":
        return f"({left})/{draw(st.sampled_from(DIVISORS))}"
    right = draw(expressions(names, depth - 1))
    return f"({left} {op} {right})"


@st.composite
def nf_commands(draw):
    name = draw(st.sampled_from(ALGEBRAS))
    spec = RUNNER.resolve_algebra(name)
    return name, draw(expressions([g.name for g in spec.generators]))


def _report(verdicts) -> str:
    out = io.StringIO()
    report(verdicts, False, out)
    return out.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(nf_commands())
def test_nf_report_equals_normal_form_of_free_expansion(command):
    name, expr = command
    script = f'nf {name} "{expr}"'
    got = _report(RUNNER.run(parse_script(script)))

    spec = RUNNER.resolve_algebra(name)
    free = parse_expression(expr, spec)
    nf = orient(spec).normal_form(free)
    want = _report([Verdict(script, "verified", details=(f"normal form: {nf}",))])
    assert got == want


# scalar-only atoms and subexpressions, and divisors that are units
SCALAR_ATOMS = ["0", "2", "3/2", "q", "h", "q^-2", "(q-1)^-1", "h/(q-1)^2", "(q - q^-1)",
                "-(2*q - 1/3)^2", "(-3/2*q)^-3"]
UNIT_DIVISORS = ["q", "(q-1)", "(2*q^2)", "(q-1)^2", "(-3/2*q^-1)", "(q*(q-1))^2"]


def _random_expression(rng, names, depth):
    """Expression text with sums, products, unary minus, nesting, powers
    with negative exponents on scalars, and division by units, by scalars
    that are no units and by generators, which are errors."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(names + SCALAR_ATOMS)
    op = rng.choice(["+", "-", "*", "*", "/", "^", "neg", "scalar"])
    if op == "^":
        scalar = rng.random() < 0.4
        base = _random_expression(rng, [] if scalar else names, depth - 1)
        n = rng.randint(-3, 3) if scalar else rng.choice([0, 1, 2, 3, 3, -1])
        return f"({base})^{n}"
    left = _random_expression(rng, [] if op == "scalar" else names, depth - 1)
    if op == "neg":
        return f"-{left}"
    if op == "scalar":
        return f"({left})"
    if op == "/":
        divisor = rng.choice(UNIT_DIVISORS + [f"({_random_expression(rng, [], 1)})"]
                             + names[:1])
        return f"({left})/{divisor}"
    return f"({left} {op} {_random_expression(rng, names, depth - 1)})"


def _outcome(parse, text, spec, rules):
    try:
        value = parse(text, spec, line=3, rules=rules)
    except ParseError as exc:
        return "error", str(exc)
    return str(value), value


def test_evaluator_matches_the_element_evaluator():
    rng = random.Random("evaluator")
    seen = set()
    for name in ("hplane", "qplane", "hdualplane", "GRh2", "GRq2"):
        spec = builtin_algebras()[name]
        names = [g.name for g in spec.generators]
        for _ in range(60):
            text = _random_expression(rng, names, 3)
            for rules in (None, orient(spec)):
                got = _outcome(parse_expression, text, spec, rules)
                assert got == _outcome(element_parse_expression, text, spec, rules), text
                seen.add(("error" if got[0] == "error" else "scalar"
                          if not any(got[1].terms) else "element", rules is None))
    assert seen == {(kind, free) for kind in ("error", "scalar", "element")
                    for free in (True, False)}


@pytest.mark.parametrize("name, text, message", [
    ("GRh2", "alpha/beta", "column 6: divisor/exponent base must be a scalar"),
    ("hplane", "2/x", "column 2: divisor/exponent base must be a scalar"),
    ("hplane", "x^-1", "column 2: divisor/exponent base must be a scalar"),
    ("hplane", "x/(q+1)", "column 2: q + 1 is not a unit of the scalar ring"),
    ("hplane", "x/0", "column 2: 0 is not a unit of the scalar ring"),
    ("hplane", "0^-1", "column 2: 0 is not a unit of the scalar ring"),
])
def test_evaluator_errors_match_the_element_evaluator(name, text, message):
    spec = builtin_algebras()[name]
    for rules in (None, orient(spec)):
        got = _outcome(parse_expression, text, spec, rules)
        assert got == ("error", f"line 3, {message}")
        assert got == _outcome(element_parse_expression, text, spec, rules)
