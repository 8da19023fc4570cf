"""Large normal forms reproduce their recorded reports, byte for byte.

``tests/data/nf`` holds the report of ``nf hplane "(x+y)^12"`` and
``nf qplane "(x'+y')^12"``, recorded when each still took about 37 s.
``nf`` reduces each product as it forms it, so it never holds more than a
few dozen terms; the library-level case expands the same powers in the
free algebra (4096 words) and reduces them in one ``normal_form`` call, so
it pins the rewrite order and the coefficient arithmetic of normal forms
with thousands of intermediate terms.  Both must give the recorded bytes.
"""

from pathlib import Path

import pytest

from qhcontract.cli import main
from qhcontract.grgroup import builtin_algebras
from qhcontract.rewrite import orient
from qhcontract.script import parse_expression

RECORDED = Path(__file__).resolve().parent / "data" / "nf"
CASES = [("hplane", "(x+y)^12"), ("qplane", "(x'+y')^12")]


@pytest.mark.parametrize("algebra, expr", CASES)
def test_large_normal_form_is_unchanged(algebra, expr, capsys):
    assert main(["nf", "--algebra", algebra, "--expr", expr]) == 0
    captured = capsys.readouterr()
    assert captured.out == (RECORDED / f"{algebra}.txt").read_text(encoding="utf-8")
    assert captured.err == ""


@pytest.mark.parametrize("algebra, expr", CASES)
def test_free_expansion_reduces_to_the_recorded_normal_form(algebra, expr):
    spec = builtin_algebras()[algebra]
    free = parse_expression(expr, spec)
    assert len(free.terms) == 2**12
    nf = orient(spec).normal_form(free)
    recorded = (RECORDED / f"{algebra}.txt").read_text(encoding="utf-8").splitlines()
    assert recorded[1] == f"       normal form: {nf}"
