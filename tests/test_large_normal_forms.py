"""Large normal forms reproduce their recorded reports, byte for byte.

``tests/data/nf`` holds the report of ``nf hplane "(x+y)^12"`` and
``nf qplane "(x'+y')^12"``, recorded when each still took about 37 s.  They
pin the rewrite order and the coefficient arithmetic of normal forms with
thousands of intermediate terms.
"""

from pathlib import Path

import pytest

from qhcontract.cli import main

RECORDED = Path(__file__).resolve().parent / "data" / "nf"


@pytest.mark.parametrize("algebra, expr", [("hplane", "(x+y)^12"), ("qplane", "(x'+y')^12")])
def test_large_normal_form_is_unchanged(algebra, expr, capsys):
    assert main(["nf", "--algebra", algebra, "--expr", expr]) == 0
    captured = capsys.readouterr()
    assert captured.out == (RECORDED / f"{algebra}.txt").read_text(encoding="utf-8")
    assert captured.err == ""
