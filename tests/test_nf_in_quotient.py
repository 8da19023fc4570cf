"""Property test: ``nf`` reports the normal form of the free expansion.

``nf`` reduces every product as soon as it is formed, which equals reducing
the fully expanded expression once on a confluent system.  For random
expressions in every builtin algebra, with sums, products, powers and
scalars with q and (q-1) denominators, the ``nf`` report must be the one
built from ``RuleSystem.normal_form`` of the unreduced expression.
"""

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from qhcontract.cli import Runner, Verdict, parse_expression, parse_script, report
from qhcontract.grgroup import builtin_algebras
from qhcontract.rewrite import orient

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
